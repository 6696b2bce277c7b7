"""Exact rational plane geometry: affine maps and convex polygon predicates.

Coordinates are fractions.Fraction.  Certified limit points, which are
mapped in bulk, are also written as normalized integer triples
(Point2.homogeneous) and maps over one common denominator
(RationalAffineMap.over_common_denominator), so that an image is a few
integer products and equal points have equal keys.  There are no floats:
they are rejected at the boundary, because the intersection patterns this
package certifies routinely hinge on polygons meeting in exactly one point,
which no floating-point predicate can witness.

Degenerate convex polygons are first-class: a segment (two vertices) and a
single point (one vertex) occur naturally as envelopes of systems living on a
line, and as intersections of nondegenerate polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def rational(value: RationalLike) -> Fraction:
    """Coerce to Fraction, refusing floats (they have no place in exact geometry)."""
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a string like '1/3' or a Fraction")
    return Fraction(value)


@dataclass(frozen=True)
class Point2:
    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", rational(self.x))
        object.__setattr__(self, "y", rational(self.y))

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scaled(self, t: Fraction) -> "Point2":
        return Point2(t * self.x, t * self.y)

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)

    def homogeneous(self) -> tuple[int, int, int]:
        """The normalized integer triple (X, Y, Z): x = X/Z, y = Y/Z, Z > 0 and
        gcd(X, Y, Z) = 1, so equal points have equal triples."""
        z = lcm(self.x.denominator, self.y.denominator)
        return (self.x.numerator * (z // self.x.denominator),
                self.y.numerator * (z // self.y.denominator), z)

    @staticmethod
    def from_homogeneous(triple: tuple[int, int, int]) -> "Point2":
        x, y, z = triple
        return Point2(Fraction(x, z), Fraction(y, z))


def cross(o: Point2, a: Point2, b: Point2) -> Fraction:
    """Signed area of the parallelogram (a - o, b - o); > 0 means left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


@dataclass(frozen=True)
class RationalAffineMap:
    """p = (x, y)  |->  (a x + b y + e,  c x + d y + f)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    def __post_init__(self) -> None:
        for name in "abcdef":
            object.__setattr__(self, name, rational(getattr(self, name)))

    def __call__(self, p: Point2) -> Point2:
        return Point2(self.a * p.x + self.b * p.y + self.e,
                      self.c * p.x + self.d * p.y + self.f)

    @staticmethod
    def identity() -> "RationalAffineMap":
        return RationalAffineMap(1, 0, 0, 1, 0, 0)

    @staticmethod
    def scaling(ratio: RationalLike, center: Point2 | None = None) -> "RationalAffineMap":
        """p |-> center + ratio (p - center); the workhorse for test systems."""
        r = rational(ratio)
        if center is None:
            return RationalAffineMap(r, 0, 0, r, 0, 0)
        return RationalAffineMap(r, 0, 0, r, (1 - r) * center.x, (1 - r) * center.y)

    def over_common_denominator(self) -> tuple[int, int, int, int, int, int, int]:
        """(A, B, C, D, E, F, den): the six coefficients a..f as A/den .. F/den."""
        coeffs = (self.a, self.b, self.c, self.d, self.e, self.f)
        den = lcm(*(q.denominator for q in coeffs))
        return tuple(q.numerator * (den // q.denominator) for q in coeffs) + (den,)

    def determinant(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def is_contraction(self) -> bool:
        """Exact operator-norm test: ||M|| < 1 for the linear part M.

        M^T M - I is negative definite iff tr(M^T M) < 2 and det(M^T M - I) > 0.
        """
        s11 = self.a * self.a + self.c * self.c
        s22 = self.b * self.b + self.d * self.d
        s12 = self.a * self.b + self.c * self.d
        return s11 + s22 < 2 and (s11 - 1) * (s22 - 1) - s12 * s12 > 0

    def fixed_point(self) -> Point2:
        det = (1 - self.a) * (1 - self.d) - self.b * self.c
        if det == 0:
            raise ValueError("map has no unique fixed point (I - M is singular)")
        x = ((1 - self.d) * self.e + self.b * self.f) / det
        y = (self.c * self.e + (1 - self.a) * self.f) / det
        return Point2(x, y)

    def inverse(self) -> "RationalAffineMap":
        det = self.determinant()
        if det == 0:
            raise ValueError("affine map is singular")
        ia, ib = self.d / det, -self.b / det
        ic, id_ = -self.c / det, self.a / det
        return RationalAffineMap(ia, ib, ic, id_,
                                 -(ia * self.e + ib * self.f),
                                 -(ic * self.e + id_ * self.f))


def compose(outer: RationalAffineMap, inner: RationalAffineMap) -> RationalAffineMap:
    """The map p |-> outer(inner(p))."""
    return RationalAffineMap(
        outer.a * inner.a + outer.b * inner.c,
        outer.a * inner.b + outer.b * inner.d,
        outer.c * inner.a + outer.d * inner.c,
        outer.c * inner.b + outer.d * inner.d,
        outer.a * inner.e + outer.b * inner.f + outer.e,
        outer.c * inner.e + outer.d * inner.f + outer.f,
    )


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon as a CCW vertex cycle with no repeated or interior-collinear vertices.

    One vertex is a point, two a segment.  Build with ConvexPolygon.hull()
    unless the vertices are already in normal form.
    """

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if not v:
            raise ValueError("polygon needs at least one vertex")
        if len(set(v)) != len(v):
            raise ValueError("repeated vertex")
        n = len(v)
        if n >= 3:
            for i in range(n):
                if cross(v[i], v[(i + 1) % n], v[(i + 2) % n]) <= 0:
                    raise ValueError("vertices are not a strictly convex CCW cycle")

    @staticmethod
    def hull(points: Iterable[Point2]) -> "ConvexPolygon":
        """Convex hull (monotone chain), collapsing to segment or point as needed."""
        pts = sorted(set(points), key=Point2.as_pair)
        if not pts:
            raise ValueError("hull of no points")
        if len(pts) <= 2:
            return ConvexPolygon(tuple(pts))
        lower: list[Point2] = []
        for p in pts:
            while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper: list[Point2] = []
        for p in reversed(pts):
            while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        ring = lower[:-1] + upper[:-1]
        if len(ring) < 3:  # all points collinear
            return ConvexPolygon((pts[0], pts[-1]))
        return ConvexPolygon(tuple(ring))

    @cached_property
    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return (min(xs), max(xs), min(ys), max(ys))

    @cached_property
    def halfplanes(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """(A, B, C) rows with the polygon = {A x + B y + C >= 0 for all rows}."""
        v = self.vertices
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

    def contains_point(self, p: Point2) -> bool:
        return all(a * p.x + b * p.y + c >= 0 for a, b, c in self.halfplanes)


def map_polygon(f: RationalAffineMap, poly: ConvexPolygon) -> ConvexPolygon:
    """The image polygon, in the normal form ConvexPolygon.hull gives."""
    images = [f(p) for p in poly.vertices]
    det = f.determinant()
    if det == 0:  # the map may collapse dimension; the hull re-normalizes
        return ConvexPolygon.hull(images)
    # A nonsingular map keeps a strictly convex cycle strictly convex; only
    # a reflection turns it clockwise.  The hull starts at the smallest vertex.
    if det < 0:
        images.reverse()
    start = min(range(len(images)), key=lambda i: images[i].as_pair())
    return ConvexPolygon(tuple(images[start:] + images[:start]))


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
            out.append(p + (q - p).scaled(t))
    deduped: list[Point2] = []
    for p in out:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def bboxes_overlap(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    ax0, ax1, ay0, ay1 = a.bbox
    bx0, bx1, by0, by1 = b.bbox
    return ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1


def intersection_cycle(polys: Sequence[ConvexPolygon]) -> tuple[Point2, ...]:
    """Vertex cycle of the common intersection; empty tuple if it is empty."""
    if not polys:
        raise ValueError("need at least one polygon")
    region = list(polys[0].vertices)
    for poly in polys[1:]:
        for hp in poly.halfplanes:
            region = _clip(region, hp)
            if not region:
                return ()
    return tuple(region)


def common_point_exists(polys: Sequence[ConvexPolygon]) -> bool:
    """Exact emptiness test for the intersection of convex polygons."""
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not bboxes_overlap(polys[i], polys[j]):
                return False
    return bool(intersection_cycle(polys))


def check_envelope(maps: Sequence[RationalAffineMap], envelope: ConvexPolygon) -> bool:
    """Every map contracts and sends the envelope into itself."""
    for f in maps:
        if not f.is_contraction():
            return False
        if not all(envelope.contains_point(f(v)) for v in envelope.vertices):
            return False
    return True
