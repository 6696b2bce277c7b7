"""Exact rational geometry: maps, hulls, clipping, intersection emptiness."""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from nervetower import FrozenInstanceError
from nervetower.exactgeom import (ConvexPolygon, Point2, RationalAffineMap, _region,
                                  bboxes_overlap, check_envelope,
                                  common_point_exists, common_region, compose,
                                  map_polygon, rational)
from support import fraction_geometry
from support.fraction_geometry import cross
from support.points import intersection_cycle, scaling
from support.segment_cover import collinear_region


def P(x, y):
    return Point2(Fraction(x), Fraction(y))


fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
points = st.builds(Point2, fracs, fracs)


def _invertible_contractions():
    # |a|,|d| <= 1/2 and b = c = 0 keeps things contracting and invertible
    diag = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(1, 2),
                        max_denominator=8)
    sign = st.sampled_from([1, -1])
    return st.builds(
        lambda a, d, sa, sd, e, f: RationalAffineMap(sa * a, Fraction(0), Fraction(0),
                                                     sd * d, e, f),
        diag, diag, sign, sign, fracs, fracs)


maps = _invertible_contractions()

UNIT_SQUARE = ConvexPolygon.hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
TRIANGLE = ConvexPolygon.hull([P(0, 0), P(1, 0), P(0, 1)])


class TestRational:
    def test_accepts_int_str_fraction(self):
        assert rational(3) == 3
        assert rational("1/2") == Fraction(1, 2)
        assert rational(Fraction(2, 4)) == Fraction(1, 2)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            rational(0.5)


class TestAffineMap:
    @given(maps, points)
    def test_inverse_roundtrip(self, f, p):
        g = f.inverse()
        assert g(f(p)) == p
        assert f(g(p)) == p

    @given(maps, maps, points)
    def test_compose_is_outer_after_inner(self, f, g, p):
        assert compose(f, g)(p) == f(g(p))

    @given(maps)
    def test_fixed_point(self, f):
        q = f.fixed_point()
        assert f(q) == q

    def test_scaling(self):
        f = scaling("1/2", P(1, 1))
        assert f(P(1, 1)) == P(1, 1)
        assert f(P(0, 0)) == P("1/2", "1/2")
        assert f.is_contraction()

    def test_expansion_is_not_contraction(self):
        f = scaling(2)
        assert not f.is_contraction()
        assert f.inverse().is_contraction()

    def test_rotation_like_contraction(self):
        # operator norm needs the full matrix, not just the entries
        f = RationalAffineMap(Fraction(1, 2), Fraction(-1, 2),
                              Fraction(1, 2), Fraction(1, 2), 0, 0)
        assert f.is_contraction()
        g = RationalAffineMap(Fraction(1, 2), Fraction(1, 2),
                              Fraction(1, 2), Fraction(1, 2), 0, 0)
        assert not g.is_contraction()  # sends (1,1) to (1,1)

    def test_singular_map_has_no_inverse(self):
        f = RationalAffineMap(1, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            f.inverse()


class TestHull:
    def test_square(self):
        assert len(UNIT_SQUARE.vertices) == 4

    def test_interior_and_duplicate_points_dropped(self):
        poly = ConvexPolygon.hull([P(0, 0), P(1, 0), P(0, 1), P("1/4", "1/4"),
                                   P(0, 0), P("1/2", 0)])
        assert set(poly.vertices) == {P(0, 0), P(1, 0), P(0, 1)}

    def test_degenerate_segment_and_point(self):
        seg = ConvexPolygon.hull([P(0, 0), P(2, 0), P(1, 0)])
        assert set(seg.vertices) == {P(0, 0), P(2, 0)}
        pt = ConvexPolygon.hull([P(3, 3)])
        assert pt.vertices == (P(3, 3),)

    @given(st.lists(points, min_size=1, max_size=10))
    def test_hull_contains_inputs(self, pts):
        poly = ConvexPolygon.hull(pts)
        assert all(poly.contains_point(p) for p in pts)

    @given(st.lists(points, min_size=3, max_size=8))
    def test_hull_is_ccw(self, pts):
        poly = ConvexPolygon.hull(pts)
        v = poly.vertices
        if len(v) >= 3:
            n = len(v)
            assert all(cross(v[i], v[(i + 1) % n], v[(i + 2) % n]) > 0
                       for i in range(n))

    def test_rejects_non_convex_cycle(self):
        with pytest.raises(ValueError):
            ConvexPolygon((P(0, 0), P(2, 0), P(1, "1/4"), P(0, 2)))


class TestIntersection:
    def test_overlapping_squares(self):
        other = map_polygon(RationalAffineMap.identity(), UNIT_SQUARE)
        shifted = ConvexPolygon.hull([p + P("1/2", "1/2") for p in UNIT_SQUARE.vertices])
        cyc = intersection_cycle([other, shifted])
        assert ConvexPolygon.hull(cyc).vertices == ConvexPolygon.hull(
            [P("1/2", "1/2"), P(1, "1/2"), P(1, 1), P("1/2", 1)]).vertices

    def test_corner_touch_is_single_point(self):
        shifted = ConvexPolygon.hull([p + P(1, 1) for p in UNIT_SQUARE.vertices])
        assert intersection_cycle([UNIT_SQUARE, shifted]) == (P(1, 1),)
        assert common_point_exists([UNIT_SQUARE, shifted])

    def test_disjoint(self):
        far = ConvexPolygon.hull([p + P(3, 0) for p in UNIT_SQUARE.vertices])
        assert intersection_cycle([UNIT_SQUARE, far]) == ()
        assert not common_point_exists([UNIT_SQUARE, far])

    def test_open_gap_with_overlapping_bboxes(self):
        # bboxes meet but the polygons do not
        left = ConvexPolygon.hull([P(0, 0), P(1, 0), P(0, 1)])
        right = ConvexPolygon.hull([P(1, 1), P(2, 1), P(2, 2)])
        assert bboxes_overlap(left, right)
        assert not common_point_exists([left, right])

    def test_segment_meets_polygon(self):
        seg = ConvexPolygon.hull([P(0, "1/2"), P(2, "1/2")])
        got = ConvexPolygon.hull(intersection_cycle([UNIT_SQUARE, seg]))
        assert set(got.vertices) == {P(0, "1/2"), P(1, "1/2")}

    def test_three_way_single_point(self):
        a = ConvexPolygon.hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        b = ConvexPolygon.hull([P(1, 1), P(2, 1), P(2, 2), P(1, 2)])
        c = ConvexPolygon.hull([P(1, 0), P(2, 0), P(1, 1)])
        assert intersection_cycle([a, b, c]) == (P(1, 1),)

    @given(maps, maps)
    def test_emptiness_agrees_with_cycle(self, f, g):
        a = map_polygon(f, UNIT_SQUARE)
        b = map_polygon(g, UNIT_SQUARE)
        assert common_point_exists([a, b]) == bool(intersection_cycle([a, b]))

    @given(maps, maps, st.lists(points, min_size=1, max_size=4))
    def test_cycle_points_lie_in_all_inputs(self, f, g, pts):
        polys = [map_polygon(f, UNIT_SQUARE), map_polygon(g, UNIT_SQUARE),
                 ConvexPolygon.hull(pts)]
        for q in intersection_cycle(polys):
            assert all(poly.contains_point(q) for poly in polys)


@st.composite
def affine_maps(draw):
    """Rational affine maps of every kind: det > 0, det < 0 (reflections),
    rank one (projections) and rank zero (constants)."""
    kind = draw(st.sampled_from(["preserving", "reflecting", "projection", "constant"]))
    e, f = draw(fracs), draw(fracs)
    if kind == "constant":
        return RationalAffineMap(0, 0, 0, 0, e, f)
    if kind == "projection":
        p, q, r, s = (draw(fracs) for _ in range(4))
        return RationalAffineMap(p * r, p * s, q * r, q * s, e, f)
    a, b, c, d = (draw(fracs) for _ in range(4))
    det = a * d - b * c
    assume(det != 0)
    if (det > 0) != (kind == "preserving"):
        a, b, c, d = c, d, a, b  # swapping the rows negates det
    return RationalAffineMap(a, b, c, d, e, f)


SHAPES = [  # a point, a segment, a triangle and a hexagon
    ConvexPolygon.hull([P(1, 2)]),
    ConvexPolygon.hull([P(0, 0), P(2, 1)]),
    TRIANGLE,
    ConvexPolygon.hull([P(0, 0), P(2, 0), P(3, 1), P(2, 2), P(0, 2), P(-1, 1)]),
]


class TestMapPolygon:
    @given(affine_maps(), st.sampled_from(SHAPES))
    def test_matches_the_hull_reference(self, f, poly):
        assert map_polygon(f, poly).vertices == \
            fraction_geometry.map_polygon(f, poly).vertices

    def test_reflection_keeps_ccw_normal_form(self):
        swap = RationalAffineMap(0, Fraction(1, 2), Fraction(1, 2), 0, 0, 0)
        assert map_polygon(swap, UNIT_SQUARE).vertices == (
            P(0, 0), P("1/2", 0), P("1/2", "1/2"), P(0, "1/2"))


class TestHomogeneous:
    @given(points)
    def test_round_trip_and_normal_form(self, p):
        x, y, z = p.homogeneous()
        assert z > 0 and gcd(x, y, z) == 1
        assert Point2.from_homogeneous((x, y, z)) == p

    @given(affine_maps())
    def test_common_denominator(self, f):
        *nums, den = f.over_common_denominator()
        assert den > 0
        assert [Fraction(n, den) for n in nums] == [f.a, f.b, f.c, f.d, f.e, f.f]


class TestEnvelope:
    def test_gasket_maps_fit_triangle(self):
        half = Fraction(1, 2)
        fs = [RationalAffineMap(half, 0, 0, half, e, f)
              for e, f in ((0, 0), (half, 0), (0, half))]
        assert check_envelope(fs, TRIANGLE)

    def test_translation_escapes(self):
        f = RationalAffineMap(Fraction(1, 2), 0, 0, Fraction(1, 2), 5, 5)
        assert not check_envelope([f], TRIANGLE)

    def test_non_contraction_rejected(self):
        f = RationalAffineMap.identity()
        assert not check_envelope([f], TRIANGLE)


# The integer kernel against the Fraction references.  Points on a coarse
# grid make touching polygons, shared vertices, collinear triples and
# boundary points common.
grid = st.fractions(min_value=-2, max_value=2, max_denominator=3)
grid_points = st.builds(Point2, grid, grid)
any_points = st.one_of(points, grid_points)
# hulls of one, two or more points: single points, segments and polygons
polygons = st.lists(grid_points, min_size=1, max_size=6).map(ConvexPolygon.hull)


def _accepts(vertices) -> bool:
    try:
        ConvexPolygon(tuple(vertices))
    except ValueError:
        return False
    return True


@st.composite
def vertex_cycles(draw):
    """Candidate vertex tuples: raw point lists, and hull cycles rotated,
    reversed, with a vertex repeated or an edge midpoint inserted."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(grid_points, min_size=1, max_size=5)))
    v = list(draw(polygons).vertices)
    k = draw(st.integers(0, len(v) - 1))
    v = v[k:] + v[:k]
    edit = draw(st.sampled_from(["none", "reverse", "repeat", "midpoint"]))
    if edit == "reverse":
        v.reverse()
    elif edit == "repeat":
        v.insert(draw(st.integers(0, len(v))), v[0])
    elif edit == "midpoint" and len(v) >= 2:
        p, q = v[0], v[1]
        v.insert(1, Point2((p.x + q.x) / 2, (p.y + q.y) / 2))
    return tuple(v)


@st.composite
def polygon_and_point(draw):
    """A polygon and a point: anywhere, or on the line through two of its
    vertices (on an edge, a chord or their extension), where the predicate
    is tight."""
    poly = draw(polygons)
    if draw(st.booleans()):
        return poly, draw(any_points)
    p = draw(st.sampled_from(poly.vertices))
    q = draw(st.sampled_from(poly.vertices))
    t = draw(st.fractions(min_value=-1, max_value=2, max_denominator=4))
    return poly, Point2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


# Axis-parallel scalings and reflections keep vertical edges vertical, so
# the image's smallest vertex is decided by y.
nonzero = fracs.filter(bool)
axis_maps = st.builds(lambda a, d, e, f: RationalAffineMap(a, 0, 0, d, e, f),
                      nonzero, nonzero, fracs, fracs)


@st.composite
def maps_with_fixed_point_cases(draw):
    """affine_maps(), plus maps with eigenvalue 1, where I - M may be singular."""
    if draw(st.booleans()):
        return draw(affine_maps())
    b, d, e, f = (draw(fracs) for _ in range(4))
    return RationalAffineMap(1, b, 0, d, e, f)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


# Maps whose coefficients come from a coarse grid, so that equal maps, and
# maps with I - M singular, are drawn often.
grid_maps = st.builds(RationalAffineMap, grid, grid, grid, grid, grid, grid)
values_maps = st.one_of(affine_maps(), maps_with_fixed_point_cases(), grid_maps)


class TestIntegerKernel:
    @given(polygon_and_point())
    def test_contains_point(self, case):
        poly, p = case
        assert poly.contains_point(p) == fraction_geometry.contains_point(poly, p)

    @given(vertex_cycles())
    def test_convexity_accept_reject(self, vertices):
        assert _accepts(vertices) == fraction_geometry.is_convex_cycle(vertices)

    @given(st.lists(polygons, min_size=2, max_size=3))
    def test_common_point_exists(self, polys):
        assert common_point_exists(polys) == fraction_geometry.common_point_exists(polys)
        assert intersection_cycle(polys) == fraction_geometry.intersection_cycle(polys)
        expected = (fraction_geometry.intersection_cycle(polys)
                    if fraction_geometry.common_point_exists(polys) else ())
        assert tuple(map(Point2.from_homogeneous, common_region(polys))) == expected

    @given(polygons, polygons)
    def test_bbox_shortcut(self, a, b):
        assert bboxes_overlap(a, b) == fraction_geometry.bboxes_overlap(a, b)

    @given(st.one_of(affine_maps(), axis_maps), polygons)
    def test_map_polygon(self, f, poly):
        assert map_polygon(f, poly).vertices == fraction_geometry.map_polygon(f, poly).vertices

    @given(affine_maps(), any_points)
    def test_apply(self, f, p):
        assert fraction_geometry.point(f(p)) == fraction_geometry.apply(f, p)

    @given(values_maps, values_maps)
    def test_compose(self, f, g):
        h = compose(f, g)
        assert fraction_geometry.affine_map(h) == fraction_geometry.compose(
            fraction_geometry.affine_map(f), fraction_geometry.affine_map(g))
        # the reduced row is the one the map's own coefficients give
        assert h.over_common_denominator() == \
            RationalAffineMap(h.a, h.b, h.c, h.d, h.e, h.f).over_common_denominator()

    @given(values_maps)
    def test_fixed_point(self, f):
        got = _outcome(f.fixed_point)
        if got is not ValueError:
            got = fraction_geometry.point(got)
        assert got == _outcome(fraction_geometry.fixed_point, fraction_geometry.affine_map(f))

    @given(values_maps, any_points)
    def test_inverse(self, f, p):
        g = _outcome(f.inverse)
        expected = _outcome(fraction_geometry.inverse, fraction_geometry.affine_map(f))
        assert (g is ValueError) == (expected is ValueError) == f.is_singular()
        if g is not ValueError:
            assert fraction_geometry.affine_map(g) == expected
            assert g.over_common_denominator() == \
                RationalAffineMap(g.a, g.b, g.c, g.d, g.e, g.f).over_common_denominator()
            q = Point2.from_homogeneous(f.preimage(p.homogeneous()))
            assert fraction_geometry.point(q) == fraction_geometry.apply(expected, p)


# Segments and points on one line through a grid point: horizontal,
# vertical or sloped.  Ends sit at coarse line parameters, so shared ends,
# nested and equal segments and single points are common; the two ends are
# stored in the order drawn, either way along the line.
line_parameters = st.fractions(min_value=-2, max_value=2, max_denominator=2)
directions = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (Fraction(1, 3), 1)])


@st.composite
def collinear_polygons(draw):
    ox, oy = draw(grid), draw(grid)
    dx, dy = draw(directions)
    polys = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        s, t = draw(line_parameters), draw(line_parameters)
        ends = (s,) if s == t else (s, t)
        polys.append(ConvexPolygon(tuple(Point2(ox + u * dx, oy + u * dy) for u in ends)))
    return polys


@st.composite
def mixed_polygons(draw):
    """Collinear polygons, one of them perhaps swapped for a segment with an
    end off the line or for any polygon, placed anywhere in the list."""
    polys = draw(collinear_polygons())
    kind = draw(st.sampled_from(["collinear", "off-line", "any"]))
    if kind == "off-line":
        p = draw(st.sampled_from(polys)).vertices[0]
        q = Point2(p.x + draw(grid), p.y + draw(grid))
        if q != p:
            polys[-1] = ConvexPolygon((p, q) if draw(st.booleans()) else (q, p))
    elif kind == "any":
        polys[-1] = draw(polygons)
    return draw(st.permutations(polys))


def _segments_on_one_line(polys) -> bool:
    """Whether every polygon is a segment or a point, all on one line."""
    if any(len(poly.vertices) > 2 for poly in polys):
        return False
    vertices = list(dict.fromkeys(v for poly in polys for v in poly.vertices))
    return all(cross(vertices[0], vertices[1], r) == 0 for r in vertices[2:])


class TestCollinearMeet:
    """Segments on one line meet in the coordinate of that line
    (`support.segment_cover.collinear_region`, the reference for the
    interval meets of segment specs), and the meet is the list the clip
    gives, element for element and in order."""

    @settings(max_examples=300)
    @given(collinear_polygons())
    def test_collinear_meet_is_the_clip(self, polys):
        assert collinear_region(polys) == common_region(polys) == _region(polys)

    @settings(max_examples=300)
    @given(mixed_polygons())
    def test_only_collinear_segments_take_the_line(self, polys):
        region = collinear_region(polys)
        assert (region is not None) == _segments_on_one_line(polys)
        assert region in (None, common_region(polys))
        assert common_region(polys) == _region(polys)

    def test_reversed_first_segment_keeps_its_direction(self):
        a = ConvexPolygon((P(0, 2), P(0, 0)))
        b = ConvexPolygon((P(0, 1), P(0, 3)))
        inner = ConvexPolygon((P(0, "1/2"), P(0, 1)))
        assert common_region([a, b]) == _region([a, b]) == [(0, 2, 1), (0, 1, 1)]
        assert common_region([b, a]) == [(0, 1, 1), (0, 2, 1)]
        assert common_region([a, inner]) == _region([a, inner]) == [(0, 1, 1), (0, 1, 2)]

    def test_touching_and_disjoint_segments(self):
        a = ConvexPolygon((P(0, 0), P(1, 1)))
        b = ConvexPolygon((P(2, 2), P(1, 1)))
        c = ConvexPolygon((P("3/2", "3/2"), P(2, 2)))
        assert common_region([a, b]) == [(1, 1, 1)]
        assert intersection_cycle([a, c]) == ()
        assert intersection_cycle([b, c]) == (P(2, 2), P("3/2", "3/2"))


class TestIntegerValues:
    """Points and maps held as integer forms agree with the Fraction-valued
    reference types on equality, hash and repr; TestIntegerKernel checks
    their operations against the Fraction formulas."""

    @given(any_points, any_points)
    def test_point_equality_hash_and_repr(self, p, q):
        fp, fq = fraction_geometry.point(p), fraction_geometry.point(q)
        assert (p == q) == (fp == fq)
        if p == q:
            assert hash(p) == hash(q)
        assert repr(p) == "Point2" + repr(fp).removeprefix("FractionPoint")
        same = Point2.from_homogeneous(tuple(3 * v for v in p.homogeneous()))
        assert same == p and hash(same) == hash(p)
        assert Point2(str(p.x), str(p.y)) == p

    @given(values_maps, values_maps)
    def test_map_equality_hash_and_repr(self, f, g):
        ff, fg = fraction_geometry.affine_map(f), fraction_geometry.affine_map(g)
        assert (f == g) == (ff == fg)
        if f == g:
            assert hash(f) == hash(g)
        assert repr(f) == "RationalAffineMap" + repr(ff).removeprefix("FractionMap")
        assert RationalAffineMap(*(str(v) for v in (f.a, f.b, f.c, f.d, f.e, f.f))) == f

    def test_values_are_immutable_and_pickle(self):
        p, f = P("1/2", 3), scaling("1/3", P(1, 0))
        for value, field in ((p, "x"), (f, "a")):
            with pytest.raises(FrozenInstanceError):
                setattr(value, field, 0)
            assert pickle.loads(pickle.dumps(value)) == value
