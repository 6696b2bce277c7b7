"""Intersection oracle: verdicts, budgets, backends, symbolic generation."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nervetower import cli, oracles
from nervetower.classify import check_postunbranched
from nervetower.exactgeom import (ConvexPolygon, Point2, RationalAffineMap, _collinear_region,
                                  _region, common_point_exists, common_region, compose)
from nervetower.nerve import (build_iterate_or_subsystem, build_nerve,
                              iterate_system, tower_complexes)
from nervetower.oracles import (AddressConsistencyError, Budget, SpecError,
                                SymbolicPUBackend, SystemSpec, TableBackend,
                                Verdict, _common_keys, _envelope_meet, _tail_table,
                                _word_points, cell_envelope,
                                cells_containing_point, cells_intersect,
                                certificate_points, generate_pu_nerve,
                                limit_point, point_in_cell, word_map)
from nervetower.words import Address, Word, enumerate_words, word_from_string
from support import certificate_sets, fraction_geometry, tail_names, unpruned
from support.complexes import simplex_word_sets
from support.finite_oracle import finite_cycle_system, finite_trivial_system
from test_classify import derived_systems
from test_nerve import singular_spec


def P(x, y):
    return Point2(Fraction(x), Fraction(y))


def W(text, m=3):
    return word_from_string(text, m)


TINY = Budget(refine_depth=1, cert_period_max=1, cert_preperiod_max=0)


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


def _draw_cells(spec, data) -> tuple[Word, ...]:
    """A pair or triple of distinct words at depth 1-3.  Half the tuples are
    drawn among words whose envelopes meet the first word's, where meets of
    one point or a segment occur."""
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
    it is taken in the line's coordinate, and on the gasket's by the clip."""
    segments = len(spec.backend.envelope.vertices) == 2
    for _ in range(4):
        polys = [cell_envelope(spec, w) for w in _draw_cells(spec, data)]
        assert (_collinear_region(polys) is not None) == segments
        assert common_region(polys) == _region(polys)


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


def test_snowflake_tower_clips_each_depth1_meet_once(monkeypatch):
    """tower snowflake --max-depth 3 asks the meet of the same depth-1 pairs
    from the postunbranched and singleton checks, N_1 and the depth-2
    candidates: it clipped 27 distinct tuples 138 times, and now clips each
    once."""
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
    assert len(clips) == 27 and max(clips.values()) == 1


@settings(max_examples=20, deadline=None)
@given(derived_systems(), st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=3))
def test_tail_table_matches_the_normalizing_reference(spec, preperiod, period):
    """Enumerating only normalized pairs gives the table that normalizing
    every address and skipping the pairs seen gives: the same keys in the
    same order, each named by the same address."""
    budget = Budget(cert_period_max=period, cert_preperiod_max=preperiod)
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
    building the depth-3 snowflake nerve constructs no Fraction."""
    spec = cli.load_bundled("snowflake").spec
    calls = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    build_nerve(spec, 3)
    monkeypatch.undo()
    assert calls == 0


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
    """Each pulled-back overlap point's envelope frontier is walked from the
    root once and kept per depth, not re-walked for every d = 1..4 of the
    postunbranched check: the re-walking code made 1,776 contains_point
    calls on this run, the kept walk 264, and the walk down pulled-back
    points makes 168.  Only the check is counted; the tower before it tests
    points against envelopes of its own."""
    spec = cli.load_bundled("snowflake").spec
    calls = 0
    contains = ConvexPolygon.contains_point

    def counting(self, p):
        nonlocal calls
        calls += 1
        return contains(self, p)

    tower_complexes(spec, 3)
    monkeypatch.setattr(ConvexPolygon, "contains_point", counting)
    check_postunbranched(spec)
    assert calls < 500


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
