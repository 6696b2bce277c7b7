"""Plane geometry in plain `Fraction` arithmetic: the references that the
integer kernel of `nervetower.exactgeom` and the integer-triple certificate
points of `nervetower.oracles` are checked against.

`FractionPoint` and `FractionMap` are a point and a map as frozen dataclasses
of `Fraction`s, compared, hashed and printed by them; `point` and
`affine_map` read a `Point2` or `RationalAffineMap` into them.  Maps are
applied, composed, inverted and solved for fixed points in `Fraction`s and
give these reference values; polygons are tested, bounded and clipped with
`Fraction` half-planes; envelope images are re-hulled.  `word_points` pushes
every tail-table point through the word's map as a `FractionPoint`.
"""

from dataclasses import dataclass
from fractions import Fraction

from nervetower.exactgeom import ConvexPolygon, Point2
from nervetower.oracles import Budget, SystemSpec, _tail_table, word_map
from nervetower.words import Word


@dataclass(frozen=True)
class FractionPoint:
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class FractionMap:
    """p = (x, y)  |->  (a x + b y + e,  c x + d y + f)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction


def point(p) -> FractionPoint:
    return FractionPoint(p.x, p.y)


def affine_map(f) -> FractionMap:
    return FractionMap(f.a, f.b, f.c, f.d, f.e, f.f)


def cross(o, a, b) -> Fraction:
    """Signed area of the parallelogram (a - o, b - o); > 0 means left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


# Maps: each takes points and maps of either kind and gives reference values.

def apply(f, p) -> FractionPoint:
    return FractionPoint(f.a * p.x + f.b * p.y + f.e, f.c * p.x + f.d * p.y + f.f)


def compose(outer, inner) -> FractionMap:
    return FractionMap(
        outer.a * inner.a + outer.b * inner.c,
        outer.a * inner.b + outer.b * inner.d,
        outer.c * inner.a + outer.d * inner.c,
        outer.c * inner.b + outer.d * inner.d,
        outer.a * inner.e + outer.b * inner.f + outer.e,
        outer.c * inner.e + outer.d * inner.f + outer.f,
    )


def fixed_point(f) -> FractionPoint:
    det = (1 - f.a) * (1 - f.d) - f.b * f.c
    if det == 0:
        raise ValueError("map has no unique fixed point (I - M is singular)")
    return FractionPoint(((1 - f.d) * f.e + f.b * f.f) / det,
                         (f.c * f.e + (1 - f.a) * f.f) / det)


def inverse(f) -> FractionMap:
    det = f.a * f.d - f.b * f.c
    if det == 0:
        raise ValueError("affine map is singular")
    ia, ib = f.d / det, -f.b / det
    ic, id_ = -f.c / det, f.a / det
    return FractionMap(ia, ib, ic, id_, -(ia * f.e + ib * f.f), -(ic * f.e + id_ * f.f))


# Polygons.

def is_convex_cycle(vertices: tuple[Point2, ...]) -> bool:
    """What ConvexPolygon accepts: a nonempty CCW cycle without repeated
    vertices, strictly convex from three vertices on."""
    v = vertices
    n = len(v)
    if not v or len(set(v)) != n:
        return False
    return n < 3 or all(cross(v[i], v[(i + 1) % n], v[(i + 2) % n]) > 0 for i in range(n))


def halfplanes(poly: ConvexPolygon) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """(A, B, C) rows with the polygon = {A x + B y + C >= 0 for all rows}."""
    v = poly.vertices
    if len(v) == 1:
        (p,) = v
        return ((Fraction(1), Fraction(0), -p.x), (Fraction(-1), Fraction(0), p.x),
                (Fraction(0), Fraction(1), -p.y), (Fraction(0), Fraction(-1), p.y))
    if len(v) == 2:
        p, q = v
        dx, dy = q.x - p.x, q.y - p.y
        return (
            (-dy, dx, dy * p.x - dx * p.y),    # on the line, one side
            (dy, -dx, dx * p.y - dy * p.x),    # and the other
            (dx, dy, -(dx * p.x + dy * p.y)),  # between the endpoints
            (-dx, -dy, dx * q.x + dy * q.y),
        )
    rows = []
    n = len(v)
    for i in range(n):
        p, q = v[i], v[(i + 1) % n]
        a, b = -(q.y - p.y), q.x - p.x
        rows.append((a, b, -(a * p.x + b * p.y)))
    return tuple(rows)


def contains_point(poly: ConvexPolygon, p: Point2) -> bool:
    return all(a * p.x + b * p.y + c >= 0 for a, b, c in halfplanes(poly))


def bbox(poly: ConvexPolygon) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    xs = [p.x for p in poly.vertices]
    ys = [p.y for p in poly.vertices]
    return (min(xs), max(xs), min(ys), max(ys))


def bboxes_overlap(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    ax0, ax1, ay0, ay1 = bbox(a)
    bx0, bx1, by0, by1 = bbox(b)
    return ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1


def _clip(cycle: list[Point2], hp: tuple[Fraction, Fraction, Fraction]) -> list[Point2]:
    """Sutherland-Hodgman step: intersect a convex cycle with a halfplane."""
    a, b, c = hp
    if not cycle:
        return cycle
    vals = [a * p.x + b * p.y + c for p in cycle]
    if len(cycle) == 1:
        return cycle if vals[0] >= 0 else []
    out: list[Point2] = []
    n = len(cycle)
    for i in range(n):
        p, vp = cycle[i], vals[i]
        q, vq = cycle[(i + 1) % n], vals[(i + 1) % n]
        if vp >= 0:
            out.append(p)
        if (vp > 0 > vq) or (vp < 0 < vq):
            t = vp / (vp - vq)
            out.append(Point2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)))
    deduped: list[Point2] = []
    for p in out:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def intersection_cycle(polys) -> tuple[Point2, ...]:
    region = list(polys[0].vertices)
    for poly in polys[1:]:
        for hp in halfplanes(poly):
            region = _clip(region, hp)
            if not region:
                return ()
    return tuple(region)


def common_point_exists(polys) -> bool:
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not bboxes_overlap(polys[i], polys[j]):
                return False
    return bool(intersection_cycle(polys))


def map_polygon(f, poly: ConvexPolygon) -> ConvexPolygon:
    """The hull of the image vertices."""
    return ConvexPolygon.hull(Point2(q.x, q.y) for q in (apply(f, p) for p in poly.vertices))


# Certificate points.

def word_points(spec: SystemSpec, w: Word, budget: Budget) -> set[FractionPoint]:
    """In-budget certified points of cell(w)."""
    f = affine_map(word_map(spec, w))
    return {apply(f, point(Point2.from_homogeneous(t))) for t in _tail_table(spec, budget)}


def certificate_points(spec: SystemSpec, ws, budget: Budget) -> list[FractionPoint]:
    """All in-budget points certified to lie in every listed cell, sorted."""
    common = set.intersection(*(word_points(spec, w, budget) for w in ws))
    return sorted(common, key=lambda p: (p.x, p.y))
