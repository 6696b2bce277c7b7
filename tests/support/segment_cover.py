"""The interval-cover licence of `oracles.envelope_exact`, in Fractions: the
reference it is checked against, and the cell intervals of
`oracles.interval_ends`.  Also the meet of segments and points on one line
in the coordinate of that line (`collinear_region`), the reference for the
integer interval meets of `oracles._segment_meet`, and the refinement step
on cell envelopes (`refine`), the reference for `oracles._refine`.

A system passes when its envelope is a segment [P, Q] and the images of that
segment under the cell maps cover it.  Each image lies on the segment (the
envelope check), so it is the interval of parameters t with P + t (Q - P) in
it, read off the coordinate in which Q - P is not zero; a singular map's
point image is an interval of length zero.  The intervals cover [0, 1] when,
sorted by their starts, none starts past the reach of the ones before.  The
cell of a longer word is the interval between the images of P and Q under
the word's whole map, applied symbol by symbol in Fractions.
"""

from fractions import Fraction
from itertools import product
from math import gcd
from typing import Optional, Sequence

from nervetower.exactgeom import ConvexPolygon, Triple, _line, _precedes, common_point_exists
from nervetower.oracles import _ALIVE_CAP, PointKey, SystemSpec, cell_envelope
from nervetower.words import Word


def cell_interval(spec: SystemSpec, symbols: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """The parameter interval of the cell of a word on a segment envelope."""
    p, q = (v.as_pair() for v in spec.backend.envelope.vertices)
    axis = 0 if p[0] != q[0] else 1
    ends = []
    for x, y in (p, q):
        for j in reversed(symbols):
            f = spec.cell_maps[j - 1]
            x, y = f.a * x + f.b * y + f.e, f.c * x + f.d * y + f.f
        ends.append(((x, y)[axis] - p[axis]) / (q[axis] - p[axis]))
    return min(ends), max(ends)


def envelope_covered(spec: SystemSpec) -> bool:
    if not spec.is_geometric or len(spec.backend.envelope.vertices) != 2:
        return False
    reach = Fraction(0)
    for start, end in sorted(cell_interval(spec, (j,)) for j in range(1, spec.m + 1)):
        if start > reach:
            return False
        reach = max(reach, end)
    return reach == 1


def span(poly: ConvexPolygon) -> Optional[tuple[Triple, Triple, Optional[Triple]]]:
    """(lo, hi, row) for a segment or a point: its ends in `_precedes` order,
    and the primitive row of the line lo -> hi (None for a point).  Rows of
    segments on one line are equal.  None for a polygon of three or more
    vertices."""
    v = poly.vertices
    if len(v) > 2:
        return None
    lo, hi = v[0].homogeneous(), v[-1].homogeneous()
    if lo == hi:
        return (lo, hi, None)
    if _precedes(hi, lo):
        lo, hi = hi, lo
    a, b, c = _line(lo, hi)
    g = gcd(a, b, c)
    return (lo, hi, (a // g, b // g, c // g))


def collinear_region(polys: Sequence[ConvexPolygon]) -> Optional[list[Triple]]:
    """`exactgeom.common_region(polys)` when every polygon is a segment or a
    point on one line, else None.

    On a line, the (x, y) order of `_precedes` is the order along the line,
    so closed segments [s_i, e_i] meet exactly in [max s_i, min e_i], and
    not at all when that end precedes that start.  Segments lie on one line
    exactly when their primitive rows (`span`) are equal.  The clip keeps
    the direction of the first polygon's stored vertices, so a first segment
    stored from its later end gets its meet from the later end too.
    """
    line = start = end = None
    points = []
    for poly in polys:
        ends = span(poly)
        if ends is None:
            return None
        lo, hi, row = ends
        if row is None:
            points.append(lo)
        elif line is None:
            line = row
        elif row != line:
            return None
        if start is None:
            start, end = lo, hi
            forward = poly.vertices[0].homogeneous() == lo
        else:
            if _precedes(start, lo):
                start = lo
            if _precedes(hi, end):
                end = hi
    if start is None:
        return None
    if line is None and len(set(points)) > 2:  # points only: the line through two
        line = _line(*list(dict.fromkeys(points))[:2])
    if line is not None:
        a, b, c = line
        if any(a * x + b * y + c * z for x, y, z in points):
            return None
    if _precedes(end, start):
        return []
    if start == end:
        return [start]
    return [start, end] if forward else [end, start]


def envelope_meet(spec: SystemSpec, ws: Sequence[Word]) -> Optional[list[PointKey]]:
    """What `oracles._segment_meet` answers, from the cell envelopes: their
    meet in the coordinate of their line on a spec whose envelope is a
    segment, else None."""
    if len(spec.backend.envelope.vertices) != 2:
        return None
    return collinear_region([cell_envelope(spec, w) for w in ws])


def refine(spec: SystemSpec, alive: list[tuple[Word, ...]]) -> Optional[list[tuple[Word, ...]]]:
    """`oracles._refine` on cell envelopes: every child tuple of an alive
    tuple whose envelopes share a point, in product order, or None once
    more than `oracles._ALIVE_CAP` children survive."""
    frontier = []
    for tup in alive:
        for ext in product(range(1, spec.m + 1), repeat=len(tup)):
            child = tuple(w.extended(j) for w, j in zip(tup, ext))
            if common_point_exists([cell_envelope(spec, w) for w in child]):
                frontier.append(child)
                if len(frontier) > _ALIVE_CAP:
                    return None
    return frontier
