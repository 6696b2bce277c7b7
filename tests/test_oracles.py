"""Intersection oracle: verdicts, budgets, backends, symbolic generation."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nervetower import cli, nerve, oracles
from nervetower.classify import check_postunbranched, check_singleton_overlaps, lift_addresses
from nervetower.exactgeom import (ConvexPolygon, Point2, RationalAffineMap, _region,
                                  common_point_exists, common_region, compose)
from nervetower.nerve import (build_iterate_or_subsystem, build_nerve,
                              iterate_system, tower_complexes)
from nervetower.oracles import (AddressConsistencyError, Budget, GeometricBackend, SpecError,
                                SymbolicPUBackend, SystemSpec, TableBackend,
                                Verdict, _common_keys, _envelope_meet, _tail_table,
                                _word_points, cell_envelope,
                                cells_containing_point, cells_intersect,
                                certificate_points, generate_pu_nerve,
                                point_in_cell, word_map)
from nervetower.words import Address, Word, enumerate_words, word_from_string
from support import certificate_sets, fraction_geometry, segment_cover, tail_names, unpruned
from support.complexes import simplex_word_sets
from support.finite_oracle import finite_cycle_system, finite_trivial_system
from support.points import limit_point
from support.segment_cover import collinear_region
from test_classify import derived_systems
from test_golden import CARPET_SPEC
from test_nerve import SEGMENT_SPECS, STARVED, _fresh, singular_spec


def P(x, y):
    return Point2(Fraction(x), Fraction(y))


def W(text, m=3):
    return word_from_string(text, m)


TINY = Budget(refine_depth=1, cert_period_max=1, cert_preperiod_max=0)


def turning_spec():
    """Four maps of the unit square whose linear parts are not diagonal: a
    reflection in the diagonal, quarter and half turns, and a turn by the
    angle whose cosine is 3/5, so composed rows mix x and y."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    maps = (RationalAffineMap(0, half, half, 0, 0, 0),
            RationalAffineMap(0, -half, half, 0, 1, 0),
            RationalAffineMap(-third, 0, 0, -third, 1, 1),
            RationalAffineMap(Fraction(3, 10), Fraction(-2, 5), Fraction(2, 5), Fraction(3, 10),
                              Fraction(2, 5), 0))
    envelope = ConvexPolygon.hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    return SystemSpec("turning", "forward", 4, GeometricBackend(maps, envelope))


# the bundled systems past the gasket and interval-overlap, the carpet, and
# the turning spec, each loaded fresh
NAMED_SPECS = {**{name: (lambda name=name: cli.load_bundled(name).spec)
                  for name in ("snowflake", "gasket-sub7", "gasket-sub-mixed",
                               "five-map-funnel", "two-map-split")},
               "carpet": lambda: cli.resolve_spec(str(CARPET_SPEC)).spec,
               "turning": turning_spec}


class TestVerdict:
    def test_not_boolean(self):
        v = Verdict.intersect()
        with pytest.raises(TypeError):
            bool(v)

    def test_budget_validation(self):
        with pytest.raises(SpecError):
            Budget(refine_depth=-1)
        with pytest.raises(SpecError):
            Budget(cert_period_max=0)


class TestWordMap:
    def test_first_symbol_outermost(self, gasket):
        maps = gasket.cell_maps
        direct = word_map(gasket, W("13"))
        expected = compose(maps[0], maps[2])
        q = P("1/3", "1/7")
        assert direct(q) == expected(q)

    def test_empty_word_is_identity(self, gasket):
        q = P("2/5", "1/5")
        assert word_map(gasket, W(""))(q) == q

    def test_cell_envelope_nests(self, gasket):
        outer = cell_envelope(gasket, W("1"))
        inner = cell_envelope(gasket, W("12"))
        assert all(outer.contains_point(v) for v in inner.vertices)

    def test_limit_points(self, gasket):
        assert limit_point(gasket, W(""), W("1")) == P(0, 0)
        assert limit_point(gasket, W(""), W("2")) == P(1, 0)
        assert limit_point(gasket, W("1"), W("2")) == P("1/2", 0)


class TestGeometricVerdicts:
    def test_gasket_depth1_touching(self, gasket):
        v = cells_intersect(gasket, [W("1"), W("2")])
        assert v.kind == "intersect"
        assert certificate_points(gasket, [W("1"), W("2")], Budget()) == [P("1/2", 0)]

    def test_gasket_depth1_all_pairs_touch(self, gasket):
        for a, b in [("1", "2"), ("1", "3"), ("2", "3")]:
            assert cells_intersect(gasket, [W(a), W(b)]).kind == "intersect"

    def test_gasket_no_triple_point(self, gasket):
        v = cells_intersect(gasket, [W("1"), W("2"), W("3")])
        assert v.kind == "disjoint"

    def test_gasket_depth2_disjoint(self, gasket):
        v = cells_intersect(gasket, [W("11"), W("22")])
        assert v.kind == "disjoint"

    def test_depth2_touching_pair(self, gasket):
        v = cells_intersect(gasket, [W("12"), W("21")])
        assert v.kind == "intersect"
        assert certificate_points(gasket, [W("12"), W("21")], Budget()) == [P("1/2", 0)]

    def test_single_word_intersects_itself(self, gasket):
        assert cells_intersect(gasket, [W("1")]).kind == "intersect"

    def test_malformed_queries_rejected(self, gasket):
        with pytest.raises(SpecError):
            cells_intersect(gasket, [Word((1,), 4)])
        with pytest.raises(SpecError):
            cells_intersect(gasket, [])
        with pytest.raises(SpecError):
            cells_intersect(gasket, [W("1"), W("12")])  # nerve queries are per-level
        with pytest.raises(SpecError):
            cells_intersect(gasket, [W("1"), W("1")])

    def test_certificate_points_include_corner(self, gasket):
        pts = certificate_points(gasket, [W("1"), W("2")], Budget())
        assert P("1/2", 0) in pts

    def test_budget_monotone_on_gasket_pairs(self, gasket):
        # a certified verdict at a tiny budget never flips at the default one
        words = enumerate_words(3, 2)
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                small = cells_intersect(gasket, [words[i], words[j]], TINY)
                if small.kind == "unknown":
                    continue
                big = cells_intersect(gasket, [words[i], words[j]], Budget())
                assert big.kind == small.kind


def _gasket_doc(map1, orientation="forward", scale="1/2", shift="1/2"):
    """The gasket with its first map replaced by `map1`."""
    return {
        "name": "gasket-variant", "orientation": orientation, "m": 3,
        "backend": {
            "kind": "geometric",
            "maps": [map1,
                     {"matrix": [[scale, 0], [0, scale]], "translation": [shift, 0]},
                     {"matrix": [[scale, 0], [0, scale]], "translation": [0, shift]}],
            "envelope": [[0, 0], [1, 0], [0, 1]],
        },
    }


CERTIFICATE_DOCS = {
    "reflected": _gasket_doc({"matrix": [[0, "1/2"], ["1/2", 0]], "translation": [0, 0]}),
    "singular": _gasket_doc({"matrix": [["1/2", 0], [0, 0]], "translation": [0, 0]}),
    "backward": _gasket_doc({"matrix": [[2, 0], [0, 2]], "translation": [0, 0]},
                            orientation="backward", scale=2, shift=-1),
}


@st.composite
def certificate_systems(draw):
    """Gasket variants with a reflection, a singular map or a backward
    orientation, subsystems of the snowflake, and the second iterate of
    interval-overlap."""
    kind = draw(st.sampled_from(sorted(CERTIFICATE_DOCS) + ["snowflake-sub", "iterate"]))
    if kind in CERTIFICATE_DOCS:
        return cli.parse_spec(CERTIFICATE_DOCS[kind]).spec
    if kind == "iterate":
        return iterate_system(cli.load_bundled("interval-overlap").spec, 2)
    depth = draw(st.integers(min_value=1, max_value=2))
    words = draw(st.lists(st.sampled_from(enumerate_words(7, depth)),
                          min_size=2, max_size=4, unique=True))
    return build_iterate_or_subsystem(cli.load_bundled("snowflake").spec, words)


@settings(max_examples=40, deadline=None)
@given(certificate_systems(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=1), st.data())
def test_word_points_match_the_fraction_reference(spec, period, preperiod, data):
    """Integer-triple certificate points are the Fraction reference's points,
    and the same sorted common points.  The oracle answers intersect exactly
    when there is a common point, which classify takes as its witness."""
    budget = Budget(cert_period_max=period, cert_preperiod_max=preperiod)
    words = st.integers(min_value=0, max_value=2).flatmap(
        lambda k: st.sampled_from(enumerate_words(spec.m, k)))
    for w in data.draw(st.lists(words, min_size=1, max_size=4)):
        fast = {fraction_geometry.point(Point2.from_homogeneous(t))
                for t in _word_points(spec, w, budget)}
        assert fast == fraction_geometry.word_points(spec, w, budget)
    for _ in range(3):
        k = data.draw(st.integers(min_value=1, max_value=2))
        u, v = data.draw(st.lists(st.sampled_from(enumerate_words(spec.m, k)),
                                  min_size=2, max_size=2, unique=True))
        expected = fraction_geometry.certificate_points(spec, (u, v), budget)
        got = certificate_points(spec, (u, v), budget)
        assert [fraction_geometry.point(p) for p in got] == expected
        kind = cells_intersect(spec, (u, v), budget).kind
        assert (kind == "intersect") == bool(expected), (u, v, kind)


def _draw_cells(spec, data, k=None) -> tuple[Word, ...]:
    """A pair or triple of distinct words at depth k, drawn from 1-3 when not
    given.  Half the tuples are drawn among words whose envelopes meet the
    first word's, where meets of one point or a segment occur."""
    if k is None:
        k = data.draw(st.integers(min_value=1, max_value=3))
    words = enumerate_words(spec.m, k)
    u = data.draw(st.sampled_from(words))
    near = [v for v in words if v != u and common_point_exists(
        [cell_envelope(spec, u), cell_envelope(spec, v)])]
    size = data.draw(st.integers(min_value=2, max_value=min(3, len(words))))
    pool = near if len(near) >= size - 1 and data.draw(st.booleans()) else \
        [v for v in words if v != u]
    return (u, *data.draw(st.lists(st.sampled_from(pool), min_size=size - 1,
                                   max_size=size - 1, unique=True)))


@settings(max_examples=30, deadline=None)
@given(derived_systems(), st.sampled_from([Budget(), TINY]), st.data())
def test_one_point_meets_match_the_per_word_sets(spec, budget, data):
    """Pulling a one-point envelope meet back through each word finds the
    common certified points that intersecting the words' whole point sets
    finds, for pairs and triples at depths 1-3."""
    for _ in range(4):
        ws = _draw_cells(spec, data)
        expected = certificate_sets.common_keys(spec, ws, budget)
        assert _common_keys(spec, ws, budget, _envelope_meet(spec, ws)) == expected
        assert certificate_points(spec, ws, budget) == \
            certificate_sets.certificate_points(spec, ws, budget)


@settings(max_examples=30, deadline=None)
@given(derived_systems(), st.data())
def test_envelope_meets_match_the_clip(spec, data):
    """The envelope meet is the clip's list, element for element: on
    interval-overlap's systems, whose envelopes are segments on one line,
    it is read off the words' integer intervals, and on the gasket's it is
    the clip, or the kept depth-1 meet as a set."""
    segments = len(spec.backend.envelope.vertices) == 2
    for _ in range(4):
        ws = _draw_cells(spec, data)
        polys = [cell_envelope(spec, w) for w in ws]
        assert (collinear_region(polys) is not None) == segments
        assert common_region(polys) == _region(polys)
        if segments or len(ws[0]) > 1:
            assert _envelope_meet(spec, ws) == common_region(polys)
        else:
            assert set(_envelope_meet(spec, ws)) == set(common_region(polys))


@settings(max_examples=20, deadline=None)
@given(derived_systems())
def test_depth1_meets_are_kept_whatever_the_order(spec):
    """The meet of one-symbol words, clipped once and kept under the sorted
    symbols, is the fresh clip's point set, and a one-point meet is one
    vertex, for every pair and triple of symbols in either order."""
    for size in (2, 3):
        for symbols in combinations(range(1, spec.m + 1), size):
            for order in (symbols, symbols[::-1]):
                ws = [Word((j,), spec.m) for j in order]
                fresh = common_region([cell_envelope(spec, w) for w in ws])
                got = _envelope_meet(spec, ws)
                assert set(got) == set(fresh)
                assert (len(got) == 1) == (len(fresh) == 1)


def _assert_symbol_tuples_meet_as_the_clip(spec):
    """Every tuple of 3..m one-symbol words meets, as a set of triples, as
    the clip of its envelopes.  The largest tuples are asked first, on a
    fresh spec, so their meets are derived from meets not yet kept."""
    envelopes = [cell_envelope(spec, Word((j,), spec.m)) for j in range(1, spec.m + 1)]
    for size in range(spec.m, 2, -1):
        for symbols in combinations(range(1, spec.m + 1), size):
            got = _envelope_meet(spec, [Word((j,), spec.m) for j in reversed(symbols)])
            assert set(got) == set(common_region([envelopes[j - 1] for j in symbols])), symbols


@pytest.mark.parametrize("name", ["snowflake", "five-map-funnel", "carpet", "turning"])
def test_symbol_tuples_meet_as_the_clip(name):
    _assert_symbol_tuples_meet_as_the_clip(NAMED_SPECS[name]())


@settings(max_examples=20, deadline=None)
@given(derived_systems())
def test_derived_symbol_tuples_meet_as_the_clip(spec):
    _assert_symbol_tuples_meet_as_the_clip(spec)


def test_snowflake_tower_clips_each_depth1_meet_once(monkeypatch):
    """tower snowflake --max-depth 3 asks the meet of the same depth-1 pairs
    from the postunbranched and singleton checks, N_1 and the depth-2
    candidates: it clipped 27 distinct tuples 138 times.  Now it clips each
    of the 21 pairs once, and the 6 triples of N_1 are answered from the
    kept meet of a pair, empty or one point, with no clip."""
    loaded = cli.load_bundled("snowflake")
    spec = loaded.spec
    symbol_of = {id(cell_envelope(spec, Word((j,), spec.m))): j for j in range(1, spec.m + 1)}
    clips: dict[tuple[int, ...], int] = {}
    original = oracles.common_region

    def counting(polys):
        if all(id(p) in symbol_of for p in polys):
            key = tuple(sorted(symbol_of[id(p)] for p in polys))
            clips[key] = clips.get(key, 0) + 1
        return original(polys)

    monkeypatch.setattr(oracles, "common_region", counting)
    monkeypatch.setattr(cli, "resolve_spec", lambda ref: loaded)
    assert cli.main(["tower", "snowflake", "--max-depth", "3"]) == 0
    assert len(clips) == 21 and max(clips.values()) == 1
    assert {len(key) for key in clips} == {2}


def _assert_deep_meets_match_the_clip(spec, words):
    """Every pair of `words` (equal-length, at depth 2 or more) meets as the
    clip of its envelopes, element for element.  On a segment envelope no
    pair is clipped; on a polygon one, each pair is clipped once."""
    segment = len(spec.backend.envelope.vertices) == 2
    clips = 0
    original = oracles.common_region

    def counting(polys):
        nonlocal clips
        clips += 1
        return original(polys)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "common_region", counting)
        for u, v in combinations(words, 2):
            expected = original([cell_envelope(spec, u), cell_envelope(spec, v)])
            clips = 0
            assert _envelope_meet(spec, (u, v)) == expected, (u, v)
            assert clips == (0 if segment else 1), (u, v)


@pytest.mark.parametrize("name", ["five-map-funnel", "gasket", "gasket-sub-mixed",
                                  "gasket-sub7", "interval-overlap", "snowflake",
                                  "two-map-split"])
def test_deep_envelope_meets_match_the_clip(name):
    """Every pair of words at depths 2 and 3 of each bundled geometric
    system meets as the clip, with one clip per pair on a polygon envelope
    and none on a segment."""
    spec = cli.load_bundled(name).spec
    for k in (2, 3):
        _assert_deep_meets_match_the_clip(spec, enumerate_words(spec.m, k))


@settings(max_examples=10, deadline=None)
@given(derived_systems(), st.data())
def test_derived_deep_envelope_meets_match_the_clip(spec, data):
    """The same on derived systems, every pair at depth 2 and, for the
    nine-map iterate, the depth-3 words under three drawn first symbols."""
    _assert_deep_meets_match_the_clip(spec, enumerate_words(spec.m, 2))
    words = enumerate_words(spec.m, 3)
    if len(words) > 343:
        firsts = data.draw(st.sets(st.integers(1, spec.m), min_size=3, max_size=3))
        words = [w for w in words if w.symbols[0] in firsts]
    _assert_deep_meets_match_the_clip(spec, words)


def test_singular_deep_envelope_meets_are_clipped():
    """A singular map may send the envelope onto a point or a segment, so
    f_w^-1(p) is not one point: every deep pair is clipped."""
    spec = singular_spec()
    assert not spec.injective
    for k in (2, 3):
        _assert_deep_meets_match_the_clip(spec, enumerate_words(spec.m, k))


def _frontiers(spec, ws, budget, step):
    """The refinement frontiers of one tuple under the refinement `step`,
    round by round, as `cells_intersect` would walk them: up to
    `budget.refine_depth` rounds, and at most three, stopping after an
    empty frontier or the cap (None)."""
    alive, frontiers = [tuple(ws)], []
    for _ in range(min(budget.refine_depth, 3)):
        alive = step(spec, alive)
        frontiers.append(alive)
        if not alive:
            break
    return frontiers


def _assert_segment_meets_match_the_polygon_reference(spec, budget, data):
    """At each depth 1-3, on drawn pairs and triples: the integer interval
    meet is the clip of the cell envelopes and the meet the collinear
    reference takes in the line's coordinate, element for element; the
    refinement frontiers are those of refining on the envelopes; and with
    `_segment_meet` and `_refine` patched to those references, on a fresh
    spec, the verdict's kind, depth and note are the same."""
    reference = _fresh(spec)
    for k in (1, 2, 3):
        for _ in range(2):
            ws = _draw_cells(spec, data, k)
            polys = [cell_envelope(spec, w) for w in ws]
            assert _envelope_meet(spec, ws) == common_region(polys) == collinear_region(polys)
            assert _frontiers(spec, ws, budget, oracles._refine) == \
                _frontiers(reference, ws, budget, segment_cover.refine), ws
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracles, "_segment_meet", segment_cover.envelope_meet)
                patch.setattr(oracles, "_refine", segment_cover.refine)
                expected = cells_intersect(reference, ws, budget)
            got = cells_intersect(spec, ws, budget)
            assert (got.kind, got.depth, got.note) == \
                (expected.kind, expected.depth, expected.note), ws


@pytest.mark.parametrize("name", sorted(SEGMENT_SPECS))
@pytest.mark.parametrize("budget", [Budget(), STARVED], ids=["default", "starved"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_segment_meets_match_the_polygon_reference(name, budget, data):
    _assert_segment_meets_match_the_polygon_reference(SEGMENT_SPECS[name](), budget, data)


def _gapped_segment(spec) -> bool:
    return len(spec.backend.envelope.vertices) == 2 and not oracles.envelope_exact(spec)


@settings(max_examples=10, deadline=None)
@given(derived_systems().filter(_gapped_segment), st.sampled_from([Budget(), STARVED]),
       st.data())
def test_gapped_derived_segment_meets_match_the_polygon_reference(spec, budget, data):
    """The same on the interval-overlap subsystems whose depth-1 intervals
    leave a gap, so that the nerve generator queries the oracle."""
    _assert_segment_meets_match_the_polygon_reference(spec, budget, data)


@pytest.mark.parametrize("name,depth", [("snowflake", 4), ("gasket", 6)])
def test_one_point_towers_build_no_deep_envelope(monkeypatch, name, depth):
    """These towers are certified postunbranched, so every level past depth
    1 is lifted from N_1 with no oracle query, and no envelope of a word of
    length 2 or more is built."""
    loaded = cli.load_bundled(name)
    monkeypatch.setattr(cli, "resolve_spec", lambda ref: loaded)
    assert cli.main(["tower", name, "--max-depth", str(depth)]) == 0
    built = loaded.spec._cache["cell_envelope"]
    assert sorted(built) == [(j,) for j in range(1, loaded.spec.m + 1)]


@settings(max_examples=20, deadline=None)
@given(derived_systems(), st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=3))
def test_tail_table_matches_the_normalizing_reference(spec, preperiod, period):
    """Enumerating only normalized pairs gives the table that normalizing
    every address and skipping the pairs seen gives: the same keys in the
    same order, each named by the same address."""
    _assert_tail_table_matches_the_reference(
        spec, Budget(cert_period_max=period, cert_preperiod_max=preperiod))


@pytest.mark.parametrize("budget", [Budget(), Budget(cert_period_max=3, cert_preperiod_max=2)],
                         ids=["default", "preperiod-2-period-3"])
@pytest.mark.parametrize("name", NAMED_SPECS)
def test_named_tail_tables_match_the_normalizing_reference(name, budget):
    """The same on the bundled systems of other shapes, the carpet's eight
    maps, and a system whose composed rows rotate and reflect."""
    _assert_tail_table_matches_the_reference(NAMED_SPECS[name](), budget)


def _assert_tail_table_matches_the_reference(spec, budget):
    table = _tail_table(spec, budget)
    expected = tail_names.tail_table(spec, budget)
    assert list(table) == list(expected)
    assert all(Address._of(*name, spec.m) == expected[key] for key, name in table.items())


def _envelopes_to_depth_3(spec):
    return [cell_envelope(spec, w) for k in (1, 2, 3) for w in enumerate_words(spec.m, k)]


def test_bundled_cell_envelopes_are_strictly_convex():
    """Nonsingular images of the envelope are built without the convexity
    check; each is a cycle that the check accepts."""
    for name in cli.bundled_names():
        spec = cli.load_bundled(name).spec
        if spec.is_geometric:
            for env in _envelopes_to_depth_3(spec):
                assert ConvexPolygon(env.vertices) == env


@settings(max_examples=10, deadline=None)
@given(derived_systems())
def test_derived_cell_envelopes_are_strictly_convex(spec):
    for env in _envelopes_to_depth_3(spec):
        assert ConvexPolygon(env.vertices) == env


@pytest.mark.parametrize("name,depth", [("snowflake", 3), ("gasket", 6)])
def test_one_point_meets_build_no_word_point_sets(name, depth):
    """Every certification query of these towers meets the envelopes in one
    point, so each word is asked about one pulled-back point, and no word's
    tail table is mapped whole."""
    spec = cli.load_bundled(name).spec
    build_nerve(spec, depth)
    assert not [key for key in spec._cache if key[0] == "word_points"]


def test_snowflake_nerve_builds_no_fraction(monkeypatch):
    """Points and maps are integer values and predicates read only those:
    building the depth-3 snowflake nerve, which certifies the overlaps to
    lift it, constructs no Fraction, and nor do the two overlap checks run
    on a fresh copy (sorting certified points by Point2.as_pair made 72)."""
    spec, fresh = cli.load_bundled("snowflake").spec, cli.load_bundled("snowflake").spec
    calls = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    build_nerve(spec, 3)
    check_postunbranched(fresh)
    check_singleton_overlaps(fresh)
    monkeypatch.undo()
    assert calls == 0
    assert lift_addresses(spec, Budget()) is not None


def test_snowflake_certificate_map_calls(monkeypatch):
    """Certified points are mapped as integer triples, and nonsingular
    envelope images are not re-hulled: with Fraction points and a hull per
    image, this run made 20,516 map applications and 308 hulls."""
    spec = cli.load_bundled("snowflake").spec
    calls = {"map": 0, "hull": 0}
    apply, hull = RationalAffineMap.__call__, ConvexPolygon.hull

    def counting_apply(self, p):
        calls["map"] += 1
        return apply(self, p)

    def counting_hull(points):
        calls["hull"] += 1
        return hull(points)

    monkeypatch.setattr(RationalAffineMap, "__call__", counting_apply)
    monkeypatch.setattr(ConvexPolygon, "hull", staticmethod(counting_hull))
    tower_complexes(spec, 3)
    check_postunbranched(spec)
    assert calls["map"] < 5000
    assert calls["hull"] == 0


def test_snowflake_single_envelope_walk(monkeypatch):
    """Each pulled-back overlap point is tested against the depth-1
    envelopes along its orbit, once per point, not walked for every
    d = 1..4 of the postunbranched check: re-walking from the root made
    1,776 contains_point calls on this run, a walk kept across depths 264,
    the walk down pulled-back points 168, and the orbit walk makes 42.  Only
    the check is counted; the tower before it tests points against
    envelopes of its own, with the certified lift patched off, since
    lifting would run the check and keep its walks before the count."""
    spec = cli.load_bundled("snowflake").spec
    calls = 0
    contains = ConvexPolygon.contains_point

    def counting(self, p):
        nonlocal calls
        calls += 1
        return contains(self, p)

    with monkeypatch.context() as withheld:
        withheld.setattr(nerve, "lift_addresses", lambda spec, budget: None)
        tower_complexes(spec, 3)
    monkeypatch.setattr(ConvexPolygon, "contains_point", counting)
    check_postunbranched(spec)
    assert 0 < calls < 100


def test_snowflake_one_point_meets_prune_the_candidates(monkeypatch):
    """Children of a crossing pair whose envelopes meet in one point are
    paired only when both hold that point: the m^2 children of every
    crossing edge made 1,203 oracle queries on this tower, 36 of them
    intersecting; the pruned candidates make 51."""
    spec = cli.load_bundled("snowflake").spec
    queries = 0
    original = oracles.cells_intersect

    def counting(spec, ws, budget=Budget()):
        nonlocal queries
        queries += 1
        return original(spec, ws, budget)

    monkeypatch.setattr(oracles, "cells_intersect", counting)
    tower_complexes(spec, 3)
    assert queries <= 100


def _hole_point(envelope):
    """The average of an envelope's vertices, which misses most invariant sets."""
    n = len(envelope.vertices)
    return Point2(sum(v.x for v in envelope.vertices) / n, sum(v.y for v in envelope.vertices) / n)


@settings(max_examples=20, deadline=None)
@given(derived_systems(), st.sampled_from([Budget(), TINY]), st.data())
def test_pull_back_walk_matches_the_forward_walk(spec, budget, data):
    """cells_containing_point, walking down pulled-back points against the
    depth-1 envelopes, answers tail points and hole points at depths 1-3 as
    the walk that builds every word's envelope and pulls the point back
    through its whole map answers them."""
    tails = sorted(_tail_table(spec, budget))
    points = [Point2.from_homogeneous(t) for t in
              data.draw(st.lists(st.sampled_from(tails), min_size=1, max_size=3, unique=True))]
    words = [w for k in (0, 1, 2) for w in enumerate_words(spec.m, k)]
    points += [_hole_point(cell_envelope(spec, w))
               for w in data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=2))]
    for point in points:
        for depth in (1, 2, 3):
            fresh = SystemSpec(spec.name, spec.orientation, spec.m, spec.backend)
            assert cells_containing_point(spec, point, depth, budget) == \
                unpruned.cells_containing_point(fresh, point, depth, budget)


class TestPointQueries:
    def test_point_in_cell(self, gasket):
        assert point_in_cell(gasket, P("1/2", 0), W("1")) == "yes"
        assert point_in_cell(gasket, P("1/2", 0), W("3")) == "no"

    def test_hole_point_outside_invariant_set(self, gasket):
        # the barycenter of the middle hole sits in the envelope but
        # separates from every depth-1 cell immediately
        hole = P("1/3", "1/3")
        assert point_in_cell(gasket, hole, W("")) == "no"

    def test_cells_containing_corner(self, gasket):
        yes, undecided = cells_containing_point(gasket, P("1/2", 0), 2)
        assert undecided == []
        assert {str(w) for w in yes} == {"12", "21"}

    def test_cells_containing_origin(self, gasket):
        yes, undecided = cells_containing_point(gasket, P(0, 0), 3)
        assert undecided == []
        assert {str(w) for w in yes} == {"111"}

    def test_kept_walk_answers_any_depth_order(self):
        walked = cli.load_bundled("gasket").spec
        for point in (P("1/2", 0), P("1/4", "1/4"), P("1/3", "1/3")):
            for depth in (3, 1, 4, 2):
                fresh = cli.load_bundled("gasket").spec
                assert cells_containing_point(walked, point, depth) == \
                    cells_containing_point(fresh, point, depth)

    @pytest.mark.parametrize("budget", [Budget(), TINY], ids=["default", "tiny"])
    def test_singular_maps_walk_forward(self, budget):
        """Without inverses the walk tests each word's own envelope."""
        spec = singular_spec()
        for point in (P(0, 0), P("1/2", "1/2"), P("1/3", "1/6"), P("5/6", 0)):
            for depth in (1, 2, 3):
                fresh = singular_spec()
                assert cells_containing_point(spec, point, depth, budget) == \
                    unpruned.cells_containing_point(fresh, point, depth, budget)

    def test_needs_geometry(self, bundled):
        table = bundled("finite-cycle").spec
        with pytest.raises(SpecError):
            cells_containing_point(table, P(0, 0), 1)

    @pytest.mark.parametrize("name", ["finite-cycle", "pentagasket"])
    def test_cells_intersect_needs_geometry(self, bundled, name):
        """Table and symbolic tuples are simplices of `build_nerve`, or not."""
        spec = bundled(name).spec
        with pytest.raises(SpecError, match="needs the geometric backend"):
            cells_intersect(spec, [Word((1,), spec.m), Word((2,), spec.m)])


class TestTableBackend:
    def test_face_closure_and_singletons(self):
        backend = TableBackend(3, {1: [[(1,), (2,), (3,)]]})
        spec = SystemSpec("t", "forward", 3, backend)
        nerve = build_nerve(spec, 1)
        assert all(tuple(map(nerve.index_of, ws)) in nerve
                   for size in (1, 2, 3) for ws in combinations(enumerate_words(3, 1), size))

    def test_lone_words_are_vertices_without_being_stored(self):
        backend = TableBackend(2, {1: [], 2: [[(1, 1), (1, 2)]]})
        spec = SystemSpec("t", "forward", 2, backend)
        assert all(len(s) > 1 for stored in backend.levels.values() for s in stored)
        for level in (1, 2):
            nerve = build_nerve(spec, level)
            assert all((nerve.index_of(w),) in nerve for w in enumerate_words(2, level))
        nerve = build_nerve(spec, 2)
        assert (nerve.index_of(Word((2, 1), 2)), nerve.index_of(Word((2, 2), 2))) not in nerve

    def test_absent_simplex_is_disjoint(self):
        backend = TableBackend(2, {1: []})
        spec = SystemSpec("t", "forward", 2, backend)
        nerve = build_nerve(spec, 1)
        assert (nerve.index_of(Word((1,), 2)), nerve.index_of(Word((2,), 2))) not in nerve

    def test_wrong_length_rejected(self):
        with pytest.raises(SpecError):
            TableBackend(2, {1: [[(1, 1), (2,)]]})

    def test_level_one_required(self):
        with pytest.raises(SpecError):
            TableBackend(2, {2: [[(1, 1), (2, 2)]]})

    @pytest.mark.parametrize("name,system", [("finite-cycle", finite_cycle_system),
                                             ("finite-trivial", finite_trivial_system)])
    def test_bundled_levels_match_point_sets(self, bundled, name, system):
        """The hand-worked table levels, with every word a vertex, are the
        nerves of the point-set systems."""
        spec = bundled(name).spec
        for level in spec.backend.levels:
            nerve = build_nerve(spec, level, dim_cap=spec.m ** level)
            assert nerve.complete
            assert {frozenset(w.symbols for w in s) for s in simplex_word_sets(nerve)} == \
                system().nerve_word_sets(level)


class TestSymbolicBackend:
    def _addresses(self, pairs):
        return {pair: Address(Word((), 3), Word((s,), 3))
                for pair, s in pairs.items()}

    def test_address_cover_enforced(self):
        with pytest.raises(SpecError):
            SymbolicPUBackend(3, [[1, 2]], self._addresses({(1, 2): 3}))
        with pytest.raises(SpecError):
            SymbolicPUBackend(3, [[1, 2]], self._addresses(
                {(1, 2): 3, (2, 1): 3, (1, 3): 2}))

    def test_generation_matches_geometry(self, bundled, gasket):
        twin = SystemSpec("twin", "forward", 3, SymbolicPUBackend(
            3, [[1, 2], [1, 3], [2, 3]],
            self._addresses({(1, 2): 2, (2, 1): 1, (1, 3): 3,
                             (3, 1): 1, (2, 3): 3, (3, 2): 2})))
        for k in (1, 2, 3):
            nerve = build_nerve(twin, k)
            symbolic = {frozenset(str(w) for w in s) for s in simplex_word_sets(nerve)}
            geometric = set()
            words = enumerate_words(3, k)
            for i in range(len(words)):
                geometric.add(frozenset({str(words[i])}))
                for j in range(i + 1, len(words)):
                    v = cells_intersect(gasket, [words[i], words[j]])
                    if v.kind == "intersect":
                        geometric.add(frozenset({str(words[i]), str(words[j])}))
            assert symbolic == geometric
            # the lifts are the edges that cross blocks
            block = 3 ** (k - 1)
            assert set(generate_pu_nerve(twin, k)) == {
                (a, b) for a, b in nerve.simplices[1] if a // block != b // block}

    def test_inconsistent_triangle_raises(self):
        backend = SymbolicPUBackend(3, [[1, 2, 3]], self._addresses(
            {(1, 2): 1, (1, 3): 2, (2, 1): 1, (2, 3): 1, (3, 1): 1, (3, 2): 1}))
        spec = SystemSpec("bad", "forward", 3, backend)
        assert generate_pu_nerve(spec, 1) == ((0, 1), (0, 1, 2), (0, 2), (1, 2))
        assert len(simplex_word_sets(build_nerve(spec, 1))) == 7  # depth 1 is stored as-is
        for dim_cap in (1, 2):
            with pytest.raises(AddressConsistencyError,
                               match="vertex 1 lifts ambiguously at depth 1: 1, 2"):
                build_nerve(spec, 2, dim_cap)

    def test_consistent_triangle_lifts(self):
        backend = SymbolicPUBackend(3, [[1, 2, 3]], self._addresses(
            {(1, 2): 1, (1, 3): 1, (2, 1): 2, (2, 3): 2, (3, 1): 3, (3, 2): 3}))
        spec = SystemSpec("ok", "forward", 3, backend)
        assert (0, 4, 8) in generate_pu_nerve(spec, 2)
        assert frozenset({W("11"), W("22"), W("33")}) in simplex_word_sets(build_nerve(spec, 2))


class TestUnknownPaths:
    def test_overlapping_cells_exhaust_tiny_budget(self, bundled):
        spec = bundled("interval-overlap").spec
        # cells 1 and 2 share a fat segment; with no periodic tails allowed
        # beyond period 1 and one refinement round nothing is certified
        exhausted = Budget(refine_depth=0, cert_period_max=1, cert_preperiod_max=0)
        v = cells_intersect(spec, [Word((1,), 3), Word((3,), 3)], exhausted)
        assert v.kind in ("intersect", "unknown")
