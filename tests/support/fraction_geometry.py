"""Certificate points and envelope images in plain `Fraction` geometry: the
references that `nervetower.oracles._word_points` and
`nervetower.exactgeom.map_polygon` are checked against.

`word_points` pushes every tail-table point through the word's map as a
`Point2` and keys the result by that point; the fast path works on
normalized integer triples instead.  `map_polygon` re-hulls every image; the
fast path skips the hull when the map is nonsingular.
"""

from nervetower.exactgeom import ConvexPolygon, Point2, RationalAffineMap
from nervetower.oracles import Budget, SystemSpec, _tail_table, word_map
from nervetower.words import Address, Word


def word_points(spec: SystemSpec, w: Word, budget: Budget) -> dict[Point2, Address]:
    """In-budget certified points of cell(w), each mapped to its tail address."""
    f = word_map(spec, w)
    table: dict[Point2, Address] = {}
    for point, addr in _tail_table(spec, budget).items():
        table.setdefault(f(point), addr)
    return table


def certificate_points(spec: SystemSpec, ws, budget: Budget) -> list[Point2]:
    """All in-budget points certified to lie in every listed cell, sorted."""
    dicts = [word_points(spec, w, budget) for w in ws]
    common = set(dicts[0])
    for d in dicts[1:]:
        common &= set(d)
    return sorted(common, key=Point2.as_pair)


def map_polygon(f: RationalAffineMap, poly: ConvexPolygon) -> ConvexPolygon:
    """The hull of the image vertices."""
    return ConvexPolygon.hull(f(p) for p in poly.vertices)
