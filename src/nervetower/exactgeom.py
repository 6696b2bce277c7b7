"""Exact rational plane geometry: affine maps and convex polygon predicates.

Points and maps are given and reported in fractions.Fraction, but their
values are integers, and every predicate runs on Python ints:

* a point (Point2.homogeneous) is the normalized triple (X, Y, Z) with
  x = X/Z, y = Y/Z, Z > 0 and gcd 1, so equal points have equal triples;
* a map (RationalAffineMap.over_common_denominator) is its six coefficients
  over one least common denominator, so an image is six products and a gcd,
  and compose, inverse, preimage and fixed_point are integer formulas;
* a polygon keeps integer half-plane rows (A, B, C), the point (X, Y, Z)
  inside when A X + B Y + C Z >= 0 for every row, and an integer bounding
  box over the common denominator of its vertices.

Equality and hashing compare the integer forms.  A point's x and y and a
map's a..f are Fractions made only when read, for reports and tests: no
predicate, composition or image reads them.  Strict convexity is the sign of
a 3x3 integer determinant, bounding boxes compare cross-multiplied, and
clipping yields normalized triples.  There are no floats: they are rejected
at the boundary, because the intersection patterns this package certifies
routinely hinge on polygons meeting in exactly one point, which no
floating-point predicate can witness.

Degenerate convex polygons are first-class: a segment (two vertices) and a
single point (one vertex) occur naturally as envelopes of systems living on a
line, and as intersections of nondegenerate polygons.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .words import _Frozen

Rational = Fraction
RationalLike = Union[Fraction, int, str]
# A point as a normalized homogeneous integer triple (Point2.homogeneous).
Triple = tuple[int, int, int]
# A map as its reduced integer row (RationalAffineMap.over_common_denominator).
Row = tuple[int, int, int, int, int, int, int]


def rational(value: RationalLike) -> Fraction:
    """Coerce to Fraction, refusing floats (they have no place in exact geometry)."""
    if type(value) is Fraction:  # immutable, so shared as it is
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a string like '1/3' or a Fraction")
    return Fraction(value)


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator > 0) in lowest terms; an int makes no Fraction."""
    if type(value) is int:
        return value, 1
    q = rational(value)
    return q.numerator, q.denominator


def _normalized(x: int, y: int, z: int) -> Triple:
    """The triple (x, y, z), z != 0, divided by its gcd and signed so that z > 0."""
    g = gcd(x, y, z)
    if z < 0:
        g = -g
    return (x // g, y // g, z // g)


def _line(p: Triple, q: Triple) -> Triple:
    """The row p x q: its value at r is det[p; q; r], > 0 left of p -> q."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _det3(o: Triple, a: Triple, b: Triple) -> int:
    """det[o; a; b]: with every Z > 0 it has the sign of the turn o -> a -> b,
    > 0 for a left turn."""
    x, y, z = _line(o, a)
    return x * b[0] + y * b[1] + z * b[2]


class Point2(_Frozen):
    """The point (x, y), held as its normalized triple (homogeneous())."""

    __slots__ = ("_t",)

    def __init__(self, x: RationalLike, y: RationalLike) -> None:
        (xn, xd), (yn, yd) = _ratio(x), _ratio(y)
        z = lcm(xd, yd)
        object.__setattr__(self, "_t", (xn * (z // xd), yn * (z // yd), z))

    @staticmethod
    def _of(triple: Triple) -> "Point2":
        """The point of an already normalized triple."""
        p = object.__new__(Point2)
        object.__setattr__(p, "_t", triple)
        return p

    @staticmethod
    def from_homogeneous(triple: Triple) -> "Point2":
        """The point (X/Z, Y/Z) of any triple with Z != 0."""
        return Point2._of(_normalized(*triple))

    def homogeneous(self) -> Triple:
        """The normalized integer triple (X, Y, Z): x = X/Z, y = Y/Z, Z > 0 and
        gcd(X, Y, Z) = 1, so equal points have equal triples."""
        return self._t

    @property
    def x(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def y(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)

    def __add__(self, other: "Point2") -> "Point2":
        (x, y, z), (u, v, w) = self._t, other._t
        return Point2.from_homogeneous((x * w + u * z, y * w + v * z, z * w))

    def __sub__(self, other: "Point2") -> "Point2":
        (x, y, z), (u, v, w) = self._t, other._t
        return Point2.from_homogeneous((x * w - u * z, y * w - v * z, z * w))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Point2:
            return self._t == other._t
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._t)

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        return (Point2._of, (self._t,))


def _coefficient(i: int) -> property:
    return property(lambda self: Fraction(self._row[i], self._row[6]))


class RationalAffineMap(_Frozen):
    """p = (x, y)  |->  (a x + b y + e,  c x + d y + f), held as its reduced
    integer row (over_common_denominator())."""

    __slots__ = ("_row",)

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike,
                 d: RationalLike, e: RationalLike, f: RationalLike) -> None:
        coeffs = [_ratio(v) for v in (a, b, c, d, e, f)]
        den = lcm(*(q for _, q in coeffs))
        # Over the least common denominator the seven entries have gcd 1:
        # this is the row _from_row reduces to.
        object.__setattr__(self, "_row", tuple(n * (den // q) for n, q in coeffs) + (den,))

    @staticmethod
    def _from_row(*row: int) -> "RationalAffineMap":
        """The map A/den .. F/den of the integer row (A, B, C, D, E, F, den),
        den != 0, divided by its gcd and signed so that den > 0."""
        g = gcd(*row)
        if row[6] < 0:
            g = -g
        f = object.__new__(RationalAffineMap)
        object.__setattr__(f, "_row", tuple(v // g for v in row))
        return f

    a, b, c, d, e, f = (_coefficient(i) for i in range(6))

    def over_common_denominator(self) -> Row:
        """(A, B, C, D, E, F, den): the six coefficients a..f as A/den .. F/den,
        den > 0 the least common denominator."""
        return self._row

    def __eq__(self, other: object) -> bool:
        if other.__class__ is RationalAffineMap:
            return self._row == other._row
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._row)

    def __repr__(self) -> str:
        return ("RationalAffineMap(" + ", ".join(f"{name}={getattr(self, name)!r}"
                                                for name in "abcdef") + ")")

    def __reduce__(self):
        return (RationalAffineMap._from_row, self._row)

    def apply(self, t: Triple) -> Triple:
        """The image of a homogeneous triple, normalized."""
        a, b, c, d, e, f, den = self._row
        x, y, z = t
        return _normalized(a * x + b * y + e * z, c * x + d * y + f * z, den * z)

    def preimage(self, t: Triple) -> Triple:
        """The normalized triple that a nonsingular map sends to t.

        With u = den X - E Z and v = den Y - F Z, Cramer's rule for
        M (x, y) = (u, v) / Z gives (D u - B v, A v - C u, Z (A D - B C)).
        """
        a, b, c, d, e, f, den = self._row
        x, y, z = t
        u, v = den * x - e * z, den * y - f * z
        det = a * d - b * c
        if det == 0:
            raise ValueError("affine map is singular")
        return _normalized(d * u - b * v, a * v - c * u, z * det)

    def __call__(self, p: Point2) -> Point2:
        return Point2._of(self.apply(p._t))

    @staticmethod
    def identity() -> "RationalAffineMap":
        return RationalAffineMap._from_row(1, 0, 0, 1, 0, 0, 1)

    def is_singular(self) -> bool:
        """Whether the linear part has determinant 0."""
        a, b, c, d = self._row[:4]
        return a * d == b * c

    def is_contraction(self) -> bool:
        """Exact operator-norm test: ||M|| < 1 for the linear part M.

        M^T M - I is negative definite iff tr(M^T M) < 2 and det(M^T M - I) > 0;
        here every entry of M^T M is scaled by den^2.
        """
        a, b, c, d, _, _, den = self._row
        s11, s22, s12, one = a * a + c * c, b * b + d * d, a * b + c * d, den * den
        return s11 + s22 < 2 * one and (s11 - one) * (s22 - one) - s12 * s12 > 0

    def fixed_point(self) -> Point2:
        # Cramer's rule for (I - M) p = t, every entry scaled by den.
        a, b, c, d, e, f, den = self._row
        det = (den - a) * (den - d) - b * c
        if det == 0:
            raise ValueError("map has no unique fixed point (I - M is singular)")
        return Point2.from_homogeneous(((den - d) * e + b * f, c * e + (den - a) * f, det))

    def inverse(self) -> "RationalAffineMap":
        # M^-1 = den / (a d - b c) [[d, -b], [-c, a]] and t' = -M^-1 t.
        a, b, c, d, e, f, den = self._row
        det = a * d - b * c
        if det == 0:
            raise ValueError("affine map is singular")
        return RationalAffineMap._from_row(den * d, -den * b, -den * c, den * a,
                                           b * f - d * e, c * e - a * f, det)


def compose(outer: RationalAffineMap, inner: RationalAffineMap) -> RationalAffineMap:
    """The map p |-> outer(inner(p))."""
    a, b, c, d, e, f, n = outer._row
    p, q, r, s, t, u, k = inner._row
    return RationalAffineMap._from_row(
        a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s,
        a * t + b * u + e * k, c * t + d * u + f * k, n * k)


class ConvexPolygon(_Frozen):
    """Convex polygon as a CCW vertex cycle with no repeated or interior-collinear vertices.

    One vertex is a point, two a segment.  Build with ConvexPolygon.hull()
    unless the vertices are already in normal form.  The `__dict__` holds
    the cached integer forms.
    """

    _fields = ("vertices",)
    __slots__ = ("vertices", "__dict__")
    vertices: tuple[Point2, ...]

    def __init__(self, vertices: tuple[Point2, ...]) -> None:
        v = [p.homogeneous() for p in vertices]
        if not v:
            raise ValueError("polygon needs at least one vertex")
        if len(set(v)) != len(v):
            raise ValueError("repeated vertex")
        n = len(v)
        if n >= 3:
            for i in range(n):
                if _det3(v[i], v[(i + 1) % n], v[(i + 2) % n]) <= 0:
                    raise ValueError("vertices are not a strictly convex CCW cycle")
        object.__setattr__(self, "vertices", vertices)

    @staticmethod
    def _of(vertices: tuple[Point2, ...]) -> "ConvexPolygon":
        """The polygon of vertices already in normal form, left unchecked."""
        poly = object.__new__(ConvexPolygon)
        object.__setattr__(poly, "vertices", vertices)
        return poly

    @staticmethod
    def hull(points: Iterable[Point2]) -> "ConvexPolygon":
        """Convex hull (monotone chain), collapsing to segment or point as needed."""
        pts = sorted(set(points), key=Point2.as_pair)
        if not pts:
            raise ValueError("hull of no points")
        if len(pts) <= 2:
            return ConvexPolygon(tuple(pts))

        def turns_left(chain: list[Point2], p: Point2) -> bool:
            return _det3(chain[-2].homogeneous(), chain[-1].homogeneous(),
                         p.homogeneous()) > 0

        lower: list[Point2] = []
        for p in pts:
            while len(lower) >= 2 and not turns_left(lower, p):
                lower.pop()
            lower.append(p)
        upper: list[Point2] = []
        for p in reversed(pts):
            while len(upper) >= 2 and not turns_left(upper, p):
                upper.pop()
            upper.append(p)
        ring = lower[:-1] + upper[:-1]
        if len(ring) < 3:  # all points collinear
            return ConvexPolygon((pts[0], pts[-1]))
        return ConvexPolygon(tuple(ring))

    @cached_property
    def _box(self) -> tuple[int, int, int, int, int]:
        """(x0, x1, y0, y1, den): the bounding box [x0/den, x1/den] x [y0/den, y1/den]."""
        v = [p.homogeneous() for p in self.vertices]
        den = lcm(*(z for _, _, z in v))
        xs = [x * (den // z) for x, _, z in v]
        ys = [y * (den // z) for _, y, z in v]
        return (min(xs), max(xs), min(ys), max(ys), den)

    @cached_property
    def _rows(self) -> tuple[Triple, ...]:
        """Integer rows (A, B, C) with the polygon = {(X, Y, Z) : A X + B Y + C Z >= 0
        for all rows}; each row a positive multiple of the affine half-plane."""
        v = [p.homogeneous() for p in self.vertices]
        if len(v) == 1:
            ((x, y, z),) = v
            return ((z, 0, -x), (-z, 0, x), (0, z, -y), (0, -z, y))
        if len(v) == 2:
            (px, py, pz), (qx, qy, qz) = v
            dx, dy = qx * pz - px * qz, qy * pz - py * qz  # pz qz (q - p)
            a, b, c = _line(v[0], v[1])
            return (
                (a, b, c),                                 # on the line, one side
                (-a, -b, -c),                              # and the other
                (dx * pz, dy * pz, -(dx * px + dy * py)),  # between the endpoints
                (-dx * qz, -dy * qz, dx * qx + dy * qy),
            )
        n = len(v)
        return tuple(_line(v[i], v[(i + 1) % n]) for i in range(n))

    def contains_point(self, p: Point2) -> bool:
        x, y, z = p.homogeneous()
        for a, b, c in self._rows:
            if a * x + b * y + c * z < 0:
                return False
        return True


def _precedes(p: Triple, q: Triple) -> bool:
    """p < q in the (x, y) order that ConvexPolygon.hull sorts by."""
    dx = p[0] * q[2] - q[0] * p[2]
    return dx < 0 or (dx == 0 and p[1] * q[2] < q[1] * p[2])


def map_polygon(f: RationalAffineMap, poly: ConvexPolygon) -> ConvexPolygon:
    """The image polygon, in the normal form ConvexPolygon.hull gives."""
    images = [f.apply(p.homogeneous()) for p in poly.vertices]
    a, b, c, d = f.over_common_denominator()[:4]
    det = a * d - b * c
    if det == 0:  # the map may collapse dimension; the hull re-normalizes
        return ConvexPolygon.hull(map(Point2._of, images))
    # A nonsingular map is injective and keeps a strictly convex cycle
    # strictly convex, so the image needs no check; only a reflection turns
    # it clockwise.  The hull starts at the smallest vertex.
    if det < 0:
        images.reverse()
    start = 0
    for i in range(1, len(images)):
        if _precedes(images[i], images[start]):
            start = i
    return ConvexPolygon._of(tuple(map(Point2._of, images[start:] + images[:start])))


def _clip(cycle: list[Triple], row: Triple) -> list[Triple]:
    """Sutherland-Hodgman step: intersect a convex cycle with a halfplane."""
    a, b, c = row
    if not cycle:
        return cycle
    vals = [a * x + b * y + c * z for x, y, z in cycle]
    if len(cycle) == 1:
        return cycle if vals[0] >= 0 else []
    out: list[Triple] = []
    n = len(cycle)
    for i in range(n):
        p, vp = cycle[i], vals[i]
        q, vq = cycle[(i + 1) % n], vals[(i + 1) % n]
        if vp >= 0:
            out.append(p)
        if (vp > 0 > vq) or (vp < 0 < vq):
            # vp q - vq p lies on the row's line, between p and q
            out.append(_normalized(vp * q[0] - vq * p[0], vp * q[1] - vq * p[1],
                                   vp * q[2] - vq * p[2]))
    deduped: list[Triple] = []
    for p in out:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def bboxes_overlap(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    ax0, ax1, ay0, ay1, ad = a._box
    bx0, bx1, by0, by1, bd = b._box
    return (ax0 * bd <= bx1 * ad and bx0 * ad <= ax1 * bd
            and ay0 * bd <= by1 * ad and by0 * ad <= ay1 * bd)


def _region(polys: Sequence[ConvexPolygon]) -> list[Triple]:
    if not polys:
        raise ValueError("need at least one polygon")
    region = [p.homogeneous() for p in polys[0].vertices]
    for poly in polys[1:]:
        for row in poly._rows:
            region = _clip(region, row)
            if not region:
                return region
    return region


def common_region(polys: Sequence[ConvexPolygon]) -> list[Triple]:
    """The common intersection of convex polygons as a cycle of normalized
    triples, [] when it is empty: pairwise bounding boxes first, then the
    clip of the first polygon by the others' half-planes (_region).
    """
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not bboxes_overlap(polys[i], polys[j]):
                return []
    return _region(polys)


def common_point_exists(polys: Sequence[ConvexPolygon]) -> bool:
    """Exact emptiness test for the intersection of convex polygons."""
    return bool(common_region(polys))


def check_envelope(maps: Sequence[RationalAffineMap], envelope: ConvexPolygon) -> bool:
    """Every map contracts and sends the envelope into itself."""
    for f in maps:
        if not f.is_contraction():
            return False
        if not all(envelope.contains_point(f(v)) for v in envelope.vertices):
            return False
    return True
