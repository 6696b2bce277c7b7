"""Nerve construction, truncation maps, towers, block and derived systems."""

import importlib
import json
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from nervetower import FrozenInstanceError, cli, homology, nerve, oracles
from nervetower.classify import check_postunbranched
from nervetower.components import dim0_facts
from nervetower.exactgeom import ConvexPolygon, Point2, RationalAffineMap
from nervetower.homology import FieldKind, betti_exact, lambda_ranks
from nervetower.nerve import (IntervalCover, SimplicialComplex, TowerData, build_nerve,
                              build_iterate_or_subsystem, iterate_system,
                              tower_complexes, truncation_map)
from nervetower.oracles import (AddressConsistencyError, Budget, ConsistencyError,
                                GeometricBackend, SpecError, SymbolicPUBackend,
                                SystemSpec, TableBackend)
from nervetower.words import Address, Word, enumerate_words, word_from_string
from support import segment_cover, unpruned
from support.allpairs_nerve import allpairs_nerve, allpairs_tower, sweep_certificates
from support.complexes import (block_subcomplex, edge_sets, euler_characteristic,
                               simplex_word_sets)
from support.full_tower import (full_truncation_map, labels, reference_tower,
                                unionfind_components, vertex_parents)
from support.pu_nerve import capped, pu_nerve, truncate
from test_classify import derived_systems

components_module = importlib.import_module("nervetower.components")


def P(x, y):
    return Point2(Fraction(x), Fraction(y))


def W(text, m=3):
    return word_from_string(text, m)


def edge_words(complex_):
    return {frozenset(str(complex_.word(i)) for i in e)
            for e in complex_.simplices.get(1, ())}


GASKET_N2_EDGES = {
    frozenset(e) for e in [
        ("11", "12"), ("11", "13"), ("12", "13"),
        ("21", "22"), ("21", "23"), ("22", "23"),
        ("31", "32"), ("31", "33"), ("32", "33"),
        ("12", "21"), ("13", "31"), ("23", "32"),
    ]
}


def slow_to_separate_spec():
    """Two disjoint cells whose envelopes overlap in a segment.

    One refinement round separates them, so refine_depth=0 must answer
    unknown and the default budget must answer disjoint.
    """
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    maps = (RationalAffineMap(half, 0, 0, quarter, 0, 0),
            RationalAffineMap(half, 0, 0, quarter, quarter, quarter))
    envelope = ConvexPolygon.hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    return SystemSpec("slow", "forward", 2, GeometricBackend(maps, envelope))


def singular_spec():
    """Two disjoint cells and a third map that collapses the square to a point.

    c_3 is constant, so the cells 31, 32 and 33 coincide although cells 1 and
    2 are disjoint: block 3 of N_2 is no copy of N_1.
    """
    third = Fraction(1, 3)
    maps = (RationalAffineMap(third, 0, 0, third, 0, 0),
            RationalAffineMap(third, 0, 0, third, 2 * third, 0),
            RationalAffineMap(0, 0, 0, 0, Fraction(1, 2), Fraction(1, 2)))
    envelope = ConvexPolygon.hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    return SystemSpec("singular", "forward", 3, GeometricBackend(maps, envelope))


def flipped_halves_spec():
    """The unit interval as two halves, the second flipped: c_2(x) = 1 - x/2.

    The halves meet at 1/2, whose addresses 12(1)^inf and 22(1)^inf need a
    preperiod: a budget without one certifies the contact only one level
    down, where the words themselves supply it.
    """
    half = Fraction(1, 2)
    maps = (RationalAffineMap(half, 0, 0, half, 0, 0),
            RationalAffineMap(-half, 0, 0, half, 1, 0))
    envelope = ConvexPolygon.hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    return SystemSpec("flipped", "forward", 2, GeometricBackend(maps, envelope))


STARVED = Budget(refine_depth=0, cert_period_max=1, cert_preperiod_max=0)


class TestBuildNerve:
    def test_gasket_depth1(self, gasket):
        n1 = build_nerve(gasket, 1)
        assert [str(n1.word(v)) for v in range(3)] == ["1", "2", "3"]
        assert edge_words(n1) == {frozenset(e) for e in [("1", "2"), ("1", "3"), ("2", "3")]}
        assert n1.simplex_counts() == {0: 3, 1: 3}
        assert n1.complete and n1.uncertain == ()

    def test_gasket_depth2_frozen(self, gasket):
        n2 = build_nerve(gasket, 2)
        assert edge_words(n2) == GASKET_N2_EDGES
        assert n2.simplex_counts() == {0: 9, 1: 12}
        assert n2.complete

    def test_snowflake_depth1_is_a_wheel(self, bundled):
        n1 = build_nerve(bundled("snowflake").spec, 1)
        rim = {frozenset((str(i), str(i % 6 + 1))) for i in range(1, 7)}
        spokes = {frozenset((str(i), "7")) for i in range(1, 7)}
        assert edge_words(n1) == rim | spokes
        assert n1.simplex_counts() == {0: 7, 1: 12}

    def test_pentagasket_counts(self, bundled):
        spec = bundled("pentagasket").spec
        assert build_nerve(spec, 1).simplex_counts() == {0: 5, 1: 5}
        assert build_nerve(spec, 2).simplex_counts() == {0: 25, 1: 30}

    def test_euler_characteristic(self, bundled):
        n2 = build_nerve(bundled("finite-trivial").spec, 2, dim_cap=2)
        assert n2.complete
        assert euler_characteristic(n2) == 9 - 9 + 3

    def test_dim_cap_marks_incomplete(self, bundled):
        n2 = build_nerve(bundled("finite-trivial").spec, 2, dim_cap=1)
        assert not n2.complete
        with pytest.raises(ConsistencyError):
            euler_characteristic(n2)

    def test_bad_arguments(self, gasket):
        with pytest.raises(SpecError):
            build_nerve(gasket, 0)
        with pytest.raises(SpecError):
            build_nerve(gasket, 1, dim_cap=0)

    def test_table_backend_unstored_level(self, bundled):
        with pytest.raises(SpecError):
            build_nerve(bundled("finite-cycle").spec, 3)

    def test_uncertain_pairs_recorded(self):
        spec = slow_to_separate_spec()
        starved = build_nerve(spec, 1, budget=Budget(refine_depth=0,
                                                     cert_period_max=1,
                                                     cert_preperiod_max=0))
        assert [s for s, _ in starved.uncertain] == [(0, 1)]  # the cells 1 and 2
        assert edge_sets(starved) == set()

        resolved = build_nerve(spec, 1)
        assert resolved.uncertain == ()
        assert edge_sets(resolved) == set()


def hand_built(level, simplices, dim_cap):
    """A complex on all 3^level vertices with the given simplices above them."""
    return SimplicialComplex(level, 3, simplices, dim_cap, True)


def one_step_targets(tower):
    """What truncation_map returns for each pair of consecutive depths."""
    return [truncation_map(long, short)
            for long, short in zip(tower.complexes[1:], tower.complexes)]


class TestTruncation:
    def test_gasket_map_contracts(self, gasket):
        n1 = build_nerve(gasket, 1)
        n2 = build_nerve(gasket, 2)
        assert truncation_map(n2, n1) is n1
        for i in range(9):
            assert n1.word(i // 3) == Word(n2.word(i).symbols[:1], 3)

    def test_wrong_direction_rejected(self, gasket):
        n1 = build_nerve(gasket, 1)
        n2 = build_nerve(gasket, 2)
        with pytest.raises(SpecError):
            truncation_map(n1, n2)

    def test_simpliciality_enforced(self, gasket):
        n1 = build_nerve(gasket, 1)
        n2 = build_nerve(gasket, 2)
        hollow = type(n1)(n1.level, n1.m, {1: ()}, n1.dim_cap, True)
        with pytest.raises(ConsistencyError):
            truncation_map(n2, hollow)

    def test_contract_failures_name_the_contract(self):
        # depth-2 vertex v truncates to v // 3: the triangle (0, 3, 6) maps onto (0, 1, 2)
        long = hand_built(2, {1: ((0, 3), (0, 6), (3, 6)), 2: ((0, 3, 6),)}, 2)
        edges = {1: ((0, 1), (0, 2), (1, 2))}
        cases = [(long, hand_built(1, edges, 1), "capped below an image simplex"),
                 (long, hand_built(1, edges, 2), "truncation is not simplicial: (0, 3, 6)"),
                 (hand_built(2, {}, 1), hand_built(1, edges, 1), "misses simplices")]
        for deep, shallow, message in cases:
            with pytest.raises(ConsistencyError, match=re.escape(message)):
                truncation_map(deep, shallow)
        short = hand_built(1, {**edges, 2: ((0, 1, 2),)}, 2)
        assert truncation_map(long, short) is short

    def test_tower_and_base_map(self, gasket):
        tower = tower_complexes(gasket, 3)
        assert isinstance(tower, TowerData)
        assert tower.depth == 3
        assert tower.complex_at(2).level == 2
        assert one_step_targets(tower) == tower.complexes[:-1]
        long, short = tower.complex_at(3), tower.complex_at(1)
        assert truncation_map(long, short) is short
        assert all(v // 9 == short.index_of(truncate(long.word(v), 1)) for v in range(27))

    @pytest.mark.parametrize("name", ["gasket", "pentagasket"])
    def test_lone_calls_across_depths(self, name):
        """A copy-built level onto one it does not copy: every simplex of the
        deeper level is read, and every simplex of the shallower one, copies
        too, must be an image."""
        complexes = tower_complexes(cli.load_bundled(name).spec, 4).complexes
        for short, long in combinations(complexes, 2):
            assert truncation_map(long, short) is short is full_truncation_map(long, short)

    def test_symbolic_tower(self, bundled):
        tower = tower_complexes(bundled("pentagasket").spec, 3)
        assert [c.simplex_counts()[0] for c in tower.complexes] == [5, 25, 125]
        assert one_step_targets(tower) == tower.complexes[:-1]

    def test_uncertain_target_gains_the_missing_image(self):
        """An image missing from a target with uncertain tuples is certified by
        the simplex above it: it is added, and the uncertain pair it resolves
        is dropped.  Without that uncertain pair the same input is not
        simplicial."""
        # depth-2 edges 11-21 and 11-31 truncate onto 1-2 and 1-3
        long = hand_built(2, {1: ((0, 3), (0, 6))}, 2)
        short = hand_built(1, {1: ((0, 1),)}, 2).replace(
            uncertain=(((0, 2), "budget exhausted"),))
        target = truncation_map(long, short)
        assert target is not short
        assert target.simplices == {0: ((0,), (1,), (2,)), 1: ((0, 1), (0, 2))}
        assert target.uncertain == ()
        # the swept level is a new one; `short` is as it was built
        assert short.simplices[1] == ((0, 1),) and short.uncertain
        with pytest.raises(FrozenInstanceError):
            short.uncertain = ()
        with pytest.raises(ConsistencyError, match=re.escape("not simplicial: (0, 6)")):
            truncation_map(long, hand_built(1, {1: ((0, 1),)}, 2))


class TestBlocks:
    def test_gasket_blocks_copy_depth1(self, gasket):
        n2 = build_nerve(gasket, 2)
        n1 = build_nerve(gasket, 1)
        for j in (1, 2, 3):
            block = block_subcomplex(n2, Word((j,), 3))
            assert (block.level, block.m) == (n1.level, n1.m)
            assert edge_sets(block) == edge_sets(n1)

    def test_pentagasket_blocks(self, bundled):
        n2 = build_nerve(bundled("pentagasket").spec, 2)
        for j in range(1, 6):
            block = block_subcomplex(n2, Word((j,), 5))
            assert block.simplex_counts() == {0: 5, 1: 5}


class TestDerivedSystems:
    def test_iterate_matches_depth2_nerve(self, gasket):
        squared = iterate_system(gasket, 2)
        assert squared.m == 9
        n1 = build_nerve(squared, 1)
        level2 = enumerate_words(3, 2)
        got = {frozenset(str(level2[i]) for i in e) for e in n1.simplices[1]}
        assert got == GASKET_N2_EDGES

    def test_subsystem_seven_cells(self, gasket, bundled):
        words = [W(t) for t in ("11", "13", "22", "23", "31", "32", "33")]
        sub = build_iterate_or_subsystem(gasket, words, name="sub7")
        assert sub.m == 7
        fresh = edge_sets(build_nerve(sub, 1))
        stored = edge_sets(build_nerve(bundled("gasket-sub7").spec, 1))
        assert fresh == stored
        # edge_sets holds 0-based vertex indices; symbols are index + 1
        assert fresh == {frozenset(e) for e in
                         [(0, 1), (1, 4), (2, 3), (3, 5), (4, 5), (4, 6), (5, 6)]}

    def test_subsystem_needs_geometry(self, bundled):
        spec = bundled("finite-cycle").spec
        with pytest.raises(SpecError):
            build_iterate_or_subsystem(spec, [Word((1,), 3)], name="x")

    def test_iterate_validation(self, gasket):
        with pytest.raises(SpecError):
            iterate_system(gasket, 0)


def _nerve_data(complex_):
    return (complex_.level, complex_.m, complex_.simplices, complex_.uncertain,
            complex_.complete)


def assert_matches_allpairs(spec, depth, dim_cap, budget):
    """tower_complexes and each standalone build_nerve agree with the reference."""
    tower = tower_complexes(spec, depth, dim_cap, budget)
    reference = allpairs_tower(spec, depth, dim_cap, budget)
    assert [_nerve_data(c) for c in tower.complexes] == [_nerve_data(c) for c in reference]
    for k in range(1, depth + 1):
        assert _nerve_data(build_nerve(spec, k, dim_cap, budget)) == \
            _nerve_data(allpairs_nerve(spec, k, dim_cap, budget))


def fresh(spec):
    """The same system with nothing cached."""
    return SystemSpec(spec.name, spec.orientation, spec.m, spec.backend)


def assert_matches_unpruned(spec, depth, dim_cap, budget):
    """Levels 1..depth built from candidates pruned at one-point parent meets
    equal those built from all m^2 children of every parent pair.  The
    envelope-exact licence is patched off, so that a licensed spec is built
    from its candidate pairs too rather than by the interval sweep."""
    def levels(system):
        return [(c.added, c.uncertain, c.complete)
                for c in (build_nerve(system, k, dim_cap, budget) for k in range(1, depth + 1))]

    with patch.object(oracles, "envelope_exact", lambda spec: False):
        pruned = levels(fresh(spec))
        with patch.object(nerve, "_candidate_pairs", unpruned.candidate_pairs):
            assert levels(fresh(spec)) == pruned


class TestOnePointPruning:
    """The generator against the unpruned candidates: a child pair that the
    pruning leaves out has an empty envelope meet."""

    @settings(max_examples=15, deadline=None)
    @given(derived_systems(), st.sampled_from([Budget(), STARVED]))
    def test_derived_systems(self, spec, budget):
        assert_matches_unpruned(spec, 3 if spec.m <= 5 else 2, 2, budget)

    @pytest.mark.parametrize("name,depth", [("snowflake", 3), ("gasket", 4),
                                            ("interval-overlap", 3), ("five-map-funnel", 3)])
    @pytest.mark.parametrize("budget", [Budget(), STARVED], ids=["default", "starved"])
    def test_bundled_systems(self, name, depth, budget):
        assert_matches_unpruned(cli.load_bundled(name).spec, depth, 2, budget)

    def test_uncertain_and_singular_parents(self):
        assert_matches_unpruned(slow_to_separate_spec(), 4, 2, STARVED)
        assert_matches_unpruned(singular_spec(), 3, 2, Budget())


GASKET_WORDS2 = enumerate_words(3, 2)


class TestAgainstAllPairs:
    """The block-copy generator against the all-pairs reference builder."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(GASKET_WORDS2), min_size=2, max_size=5, unique=True),
           st.sampled_from([Budget(), STARVED, Budget(refine_depth=1)]),
           st.integers(min_value=1, max_value=3))
    def test_random_gasket_subsystems(self, words, budget, dim_cap):
        sub = build_iterate_or_subsystem(cli.load_bundled("gasket").spec, words)
        assert_matches_allpairs(sub, 3 if sub.m <= 4 else 2, dim_cap, budget)

    @pytest.mark.parametrize("name,depth", [
        ("snowflake", 2), ("interval-overlap", 3), ("five-map-funnel", 3),
        ("gasket-sub-mixed", 2), ("two-map-split", 5)])
    def test_bundled_systems(self, name, depth):
        assert_matches_allpairs(cli.load_bundled(name).spec, depth, 3, Budget())

    def test_gasket_iterate(self, gasket):
        assert_matches_allpairs(iterate_system(gasket, 2), 2, 3, Budget())

    def test_uncertain_parents(self):
        spec = slow_to_separate_spec()
        assert_matches_allpairs(spec, 6, 2, STARVED)
        assert [len(build_nerve(spec, k, 2, STARVED).uncertain) for k in range(1, 7)] == \
            [1, 2, 4, 8, 16, 32]

    def test_sweep_leaves_the_cache_alone(self):
        spec = flipped_halves_spec()
        budget = Budget(refine_depth=2, cert_period_max=1, cert_preperiod_max=0)
        assert_matches_allpairs(spec, 4, 2, budget)
        swept = tower_complexes(spec, 2, 2, budget).complex_at(1)
        assert swept.uncertain == () and edge_words(swept) == {frozenset(("1", "2"))}
        alone = build_nerve(spec, 1, 2, budget)
        assert alone.uncertain[0][0] == (0, 1)
        assert edge_words(alone) == set()

    def test_singular_map_falls_back(self):
        spec = singular_spec()
        for budget in (Budget(), STARVED):
            assert_matches_allpairs(spec, 3, 3, budget)
        assert edge_words(build_nerve(spec, 1)) == set()
        assert {frozenset(("31", "32")), frozenset(("31", "33"))} <= \
            edge_words(build_nerve(spec, 2))


def test_gasket_depth6_oracle_calls(monkeypatch):
    """Block copies and parent-guided candidates, not all pairs: the depth-6
    gasket tower asked 298,805 cell queries of the all-pairs builder."""
    spec = cli.load_bundled("gasket").spec
    calls = []
    original = oracles.cells_intersect

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(oracles, "cells_intersect", counting)
    tower = tower_complexes(spec, 6)
    assert tower.complex_at(6).simplex_counts() == {0: 729, 1: 1092}
    assert len(calls) < 1000
    built = len(calls)
    build_nerve(spec, 6)  # the levels are cached on the spec
    assert len(calls) == built


GENERATING_DEPTHS = {
    "gasket": 4, "snowflake": 2, "interval-overlap": 3, "five-map-funnel": 3,
    "gasket-sub-mixed": 2, "gasket-sub7": 2, "two-map-split": 5, "pentagasket": 4,
    "simplex-boundary-1": 3, "simplex-boundary-2": 3, "simplex-boundary-3": 3,
    "simplex-boundary-4": 3,
}


def assert_sweep_adds_nothing_below_exact_levels(spec, depth, dim_cap, budget):
    """Sweeping a level free of uncertain tuples adds nothing to it, so
    tower_complexes may skip it.  Returns the number of such levels."""
    exact = 0
    for k in range(1, depth):
        long, short = (build_nerve(spec, level, dim_cap, budget) for level in (k + 1, k))
        if short.uncertain:
            continue
        assert sweep_certificates(long, short) is short
        exact += 1
    return exact


class TestCertificateSweep:
    @pytest.mark.parametrize("name", sorted(GENERATING_DEPTHS))
    def test_exact_generated_levels_gain_nothing(self, bundled, name):
        spec = bundled(name).spec
        for dim_cap in (2, 3):
            assert assert_sweep_adds_nothing_below_exact_levels(
                spec, GENERATING_DEPTHS[name], dim_cap, Budget()) == \
                GENERATING_DEPTHS[name] - 1

    def test_slow_to_separate(self):
        spec = slow_to_separate_spec()
        assert assert_sweep_adds_nothing_below_exact_levels(spec, 6, 2, Budget()) == 5
        # starved, every level is uncertain and is swept
        assert assert_sweep_adds_nothing_below_exact_levels(spec, 6, 2, STARVED) == 0

    @pytest.mark.parametrize("name,depth,swept", [
        ("pentagasket", 4, []), ("gasket", 4, []),
        ("finite-cycle", 2, []), ("banded-annuli", 2, [])])
    def test_table_levels_swept_exact_generated_levels_skipped(self, monkeypatch, name,
                                                               depth, swept):
        """Neither exact generated levels nor table levels gain anything: a
        table backend checks that its stored levels form a tower, so a sweep
        would add nothing to them either."""
        spec = cli.load_bundled(name).spec
        assert assert_sweep_adds_nothing_below_exact_levels(spec, depth, 3, Budget()) == \
            depth - 1
        assert tower_sweeps(monkeypatch, spec, depth, 3, Budget()) == swept

    def test_uncertain_levels_are_swept(self, monkeypatch):
        # every level is uncertain, and no certificate is found to sweep down
        assert tower_sweeps(monkeypatch, slow_to_separate_spec(), 3, 2, STARVED) == []
        # depth-2 certificates resolve uncertain pairs of depth 1, and so on
        interval = cli.load_bundled("interval-overlap").spec
        spec = build_iterate_or_subsystem(interval, [W("11"), W("33"), W("32")])
        assert tower_sweeps(monkeypatch, spec, 3, 2, STARVED) == [1, 2]
        assert_matches_allpairs(spec, 3, 2, STARVED)


def tower_sweeps(monkeypatch, spec, depth, dim_cap, budget):
    """The levels that tower_complexes changes, after checking that it makes
    one truncation_map call per pair of consecutive depths, deepest first,
    and changes only levels that have uncertain tuples."""
    calls = []

    def counting(long, short):
        calls.append((long.level, short.level))
        return truncation_map(long, short)

    monkeypatch.setattr(nerve, "truncation_map", counting)
    tower = tower_complexes(spec, depth, dim_cap, budget)
    assert calls == [(k + 1, k) for k in range(depth - 1, 0, -1)]
    built = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    changed = [c.level for c, fresh in zip(tower.complexes, built) if c != fresh]
    assert all(built[k - 1].uncertain for k in changed)
    return changed


def snapshot(complex_):
    return (complex_.level, complex_.m, dict(complex_.simplices), complex_.dim_cap,
            complex_.complete, complex_.uncertain, complex_.block_source)


def assert_tower_leaves_built_levels_alone(spec, depth, dim_cap, budget):
    """Every level `build_nerve` returns equals its snapshot from before the
    tower, and is the level it returns again after it."""
    built = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    before = list(map(snapshot, built))
    tower = tower_complexes(spec, depth, dim_cap, budget)
    again = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    assert all(a is b for a, b in zip(again, built))
    assert list(map(snapshot, built)) == before
    return [k for k in range(1, depth + 1) if tower.complex_at(k) is not built[k - 1]]


class TestLevelsAreValues:
    """tower_complexes sweeps certificates into new levels and changes none
    that `build_nerve` returns."""

    @settings(max_examples=15, deadline=None)
    @given(derived_systems(), st.sampled_from([Budget(), STARVED]))
    def test_derived_systems(self, spec, budget):
        assert_tower_leaves_built_levels_alone(spec, 3 if spec.m <= 5 else 2, 2, budget)

    def test_starved_systems(self):
        interval = cli.load_bundled("interval-overlap").spec
        swept = build_iterate_or_subsystem(interval, [W("11"), W("33"), W("32")])
        assert assert_tower_leaves_built_levels_alone(swept, 3, 2, STARVED) == [1, 2]
        assert assert_tower_leaves_built_levels_alone(slow_to_separate_spec(), 4, 2,
                                                      STARVED) == []
        flipped = Budget(refine_depth=2, cert_period_max=1, cert_preperiod_max=0)
        assert assert_tower_leaves_built_levels_alone(flipped_halves_spec(), 3, 2,
                                                      flipped) == [1, 2]

    @pytest.mark.parametrize("name", ["finite-cycle", "finite-trivial", "banded-annuli"])
    def test_table_systems(self, bundled, name):
        spec = bundled(name).spec
        for dim_cap in (1, 2, 3):
            assert assert_tower_leaves_built_levels_alone(spec, 2, dim_cap, Budget()) == []

    def test_table_with_a_gap(self, tmp_path, capsys):
        """A table that stores depths 1 and 3: each stored level is one cached
        value, and depth 2 is no level at all."""
        levels = {1: [[(1,), (2,)]],
                  3: [[(1, 1, 2), (1, 2, 1)], [(1, 2, 2), (2, 1, 1)], [(2, 1, 2), (2, 2, 1)]]}
        spec = SystemSpec("gapped", "forward", 2, oracles.TableBackend(2, levels))
        for level in (1, 3):
            built = build_nerve(spec, level, 2)
            assert build_nerve(spec, level, 2) is built
            assert build_nerve(spec, level, 1) is not built
        assert build_nerve(spec, 3).simplex_counts() == {0: 8, 1: 3}
        with pytest.raises(SpecError, match="stores no depth-2 data"):
            build_nerve(spec, 2)
        deep = build_nerve(spec, 3)
        assert (deep.index_of(W("122", 2)), deep.index_of(W("211", 2))) in deep
        assert (deep.index_of(W("111", 2)), deep.index_of(W("211", 2))) not in deep
        path = tmp_path / "gapped.json"
        path.write_text(json.dumps({"name": "gapped", "orientation": "forward", "m": 2,
                                    "backend": {"kind": "table", "levels": levels}}))
        assert cli.main(["nerve", str(path), "--depth", "3"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["counts"] == {"0": 8, "1": 3}


def open_faces(complex_):
    """The codimension-1 faces of a level's simplices of dimension >= 2 that
    the level lacks, read through `simplices_of` (so copies are expanded)."""
    missing = []
    for dim in complex_.simplex_counts():
        if dim >= 2:
            below = set(complex_.simplices_of(dim - 1))
            missing += [face for s in complex_.simplices_of(dim)
                        for face in combinations(s, dim) if face not in below]
    return missing


class TestFaceClosure:
    """Every level of a tower is closed under faces.  The generator relies on
    it without a closing pass: each face of a certified candidate was queried
    or is a block copy, and the oracle is monotone."""

    @settings(max_examples=15, deadline=None)
    @given(derived_systems(), st.sampled_from([Budget(), STARVED]), st.sampled_from([2, 3]),
           st.integers(min_value=2, max_value=3))
    def test_derived_systems(self, spec, budget, dim_cap, depth):
        tower = tower_complexes(spec, depth if spec.m <= 5 else 2, dim_cap, budget)
        assert [open_faces(c) for c in tower.complexes] == [[]] * tower.depth

    @pytest.mark.parametrize("dim_cap", [2, 3])
    @pytest.mark.parametrize("budget", [Budget(), STARVED], ids=["default", "starved"])
    def test_singular_maps(self, budget, dim_cap):
        tower = tower_complexes(singular_spec(), 3, dim_cap, budget)
        assert [open_faces(c) for c in tower.complexes] == [[]] * 3

    @staticmethod
    def _holding_open(face):
        original = oracles.cells_intersect

        def leaves_face_open(spec, ws, budget=Budget()):
            return oracles.Verdict.unknown("held open") if tuple(ws) == face else \
                original(spec, ws, budget)
        return leaves_face_open

    def test_an_oracle_that_breaks_monotonicity_leaves_a_face_open(self, monkeypatch):
        """The check bites: when the oracle leaves the crossing face 23 32 33
        of the certified tetrahedron 22 23 32 33 of N_2 undecided, nothing
        closes it.  The system is interval-overlap's subsystem 11, 13, 21,
        whose envelopes leave a gap, so the generator queries its triangles."""
        spec = build_iterate_or_subsystem(cli.load_bundled("interval-overlap").spec,
                                          [W("11"), W("13"), W("21")])
        assert not oracles.envelope_exact(spec)
        monkeypatch.setattr(oracles, "cells_intersect",
                            self._holding_open((W("23"), W("32"), W("33"))))
        level = tower_complexes(spec, 2, 3).complex_at(2)
        assert (4, 5, 7, 8) in level.simplices_of(3)
        assert open_faces(level) == [(5, 7, 8)]
        assert level.uncertain == (((5, 7, 8), "held open"),)

    def test_a_licensed_generator_asks_no_face(self, monkeypatch):
        """interval-overlap's cells are their envelopes, so the generator asks
        the oracle about no triangle: holding the face 12 13 21 of the
        tetrahedron 11 12 13 21 of N_2 open leaves no face open."""
        monkeypatch.setattr(oracles, "cells_intersect",
                            self._holding_open((W("12"), W("13"), W("21"))))
        level = tower_complexes(cli.load_bundled("interval-overlap").spec, 2, 3).complex_at(2)
        assert (0, 1, 2, 3) in level.simplices_of(3)
        assert open_faces(level) == []
        assert level.uncertain == ()


def _segment_spec(name, maps, orientation="forward", envelope=((0, 0), (1, 0))):
    """A system on a segment; each map is (a, b, c, d, e, f) in Fractions' terms."""
    return SystemSpec(name, orientation, len(maps), GeometricBackend(
        [RationalAffineMap(*map(Fraction, row)) for row in maps],
        ConvexPolygon.hull([P(*v) for v in envelope])))


def _q(a, e):
    """x -> a x + e on the x-axis, as an affine map's row."""
    return (a, 0, 0, a, e, 0)


# Segment systems: a singular middle map whose point image sits inside the
# cover, a backward one, two halves that touch, an orientation-reversing pair
# on a slanted segment, three maps on a vertical segment (the middle one
# reversing it), and three with a gap (one closed only by a point, and one
# on a vertical segment whose middle map reverses it).
SEGMENT_SPECS = {
    "singular": lambda: _segment_spec("singular", [_q("1/2", 0), (0, 0, 0, 0, "1/2", 0),
                                                   _q("1/2", "1/2")]),
    "backward": lambda: _segment_spec("backward", [_q(2, 0), (-2, 0, 0, 2, "3/2", 0),
                                                   _q(2, -1)], "backward"),
    "halves": lambda: _segment_spec("halves", [_q("1/2", 0), _q("1/2", "1/2")]),
    "slanted": lambda: _segment_spec("slanted", [("-3/5", 0, 0, "-3/5", "3/5", "6/5"),
                                                 ("3/5", 0, 0, "3/5", "2/5", "4/5")],
                                     envelope=((0, 0), (1, 2))),
    "vertical": lambda: _segment_spec("vertical", [("1/2", 0, 0, "1/2", 0, 0),
                                                   ("1/2", 0, 0, "-1/2", 0, "3/4"),
                                                   ("1/2", 0, 0, "1/2", 0, "1/2")],
                                      envelope=((0, 0), (0, 1))),
    "gap": lambda: _segment_spec("gap", [_q("1/3", 0), _q("1/4", "1/4"), _q("1/3", "2/3")]),
    "point-in-gap": lambda: _segment_spec("point-in-gap", [_q("1/3", 0), (0, 0, 0, 0, "1/2", 0),
                                                           _q("1/3", "2/3")]),
    "gap3": lambda: _segment_spec("gap3", [("1/2", 0, 0, "1/2", 0, 0),
                                           ("1/4", 0, 0, "-1/4", 0, 1),
                                           ("1/4", 0, 0, "1/4", 0, "5/8")],
                                  envelope=((0, 0), (0, 1))),
}
LICENSED_SEGMENTS = ["singular", "backward", "halves", "slanted", "vertical"]


@st.composite
def covering_systems(draw):
    """interval-overlap, its second iterate, and its subsystems on depth-2
    words that cover the envelope: 11 and 33, one word starting at 1/4 (13
    or 21), one at 1/2 (23 or 31), and up to three more."""
    spec = cli.load_bundled("interval-overlap").spec
    kind = draw(st.sampled_from(["bundled", "iterate", "subsystem"]))
    if kind == "bundled":
        return spec
    if kind == "iterate":
        return iterate_system(spec, 2)
    words = {"11", "33", draw(st.sampled_from(["13", "21"])), draw(st.sampled_from(["23", "31"]))}
    words.update(draw(st.lists(st.sampled_from([str(w) for w in enumerate_words(3, 2)]),
                               max_size=3)))
    return build_iterate_or_subsystem(spec, [W(w) for w in sorted(words)])


def _fresh(spec):
    """The same system with nothing cached on it."""
    return SystemSpec(spec.name, spec.orientation, spec.m, spec.backend)


def _unread(spec):
    raise AssertionError("the reference read the integer line maps")


def _licensed_and_queried(spec, depth, budget, dim_cap):
    """The levels the interval sweep builds, and those the oracle builds with
    the licence patched off (the reference), each on a fresh spec.  The
    reference also meets and refines segment envelopes by the collinear
    references (`segment_cover.envelope_meet` and `segment_cover.refine`),
    not by the oracle's integer intervals, so that it does not read
    `oracles._line_maps`, which the sweep reads.  The certified lift is
    patched off too, so that the oracle builds every level of the reference."""
    licensed = nerve._levels(_fresh(spec), depth, dim_cap, budget)
    with patch.object(oracles, "envelope_exact", lambda spec: False), \
            patch.object(nerve, "lift_addresses", lambda spec, budget: None), \
            patch.object(oracles, "_segment_meet", segment_cover.envelope_meet), \
            patch.object(oracles, "_refine", segment_cover.refine), \
            patch.object(oracles, "_line_maps", _unread):
        queried = nerve._levels(_fresh(spec), depth, dim_cap, budget)
    return licensed, queried


def _simplex_set(complex_):
    return {s for dim, sims in complex_.simplices.items() if dim for s in sims}


def assert_agrees_with_the_oracle(spec, depth, budget, dim_cap):
    """Licensed levels are never uncertain.  Where the oracle's level is not
    either, the two are equal, `complete` flag included; where it is, the
    licensed level holds all of it, and each simplex it adds is or contains
    one of its uncertain tuples."""
    licensed, queried = _licensed_and_queried(spec, depth, budget, dim_cap)
    for new, old in zip(licensed, queried, strict=True):
        assert new.uncertain == ()
        if not old.uncertain:
            assert (new.simplices, new.complete) == (old.simplices, old.complete)
            assert_lists_and_answers_as(new, old)
            continue
        held = [set(s) for s, _note in old.uncertain]
        assert _simplex_set(old) <= _simplex_set(new)
        for s in _simplex_set(new) - _simplex_set(old):
            assert any(u <= set(s) for u in held)


def assert_lists_and_answers_as(new, old):
    """A level with a cover against the oracle's level: the same counts, the
    same neighbours of each vertex, the same simplices of each dimension up
    to one past the cap, and the same answer to `in` on each of them and on
    tuples that are not all simplices: about 100 sorted tuples of each size,
    each listed simplex reversed, and a tuple that runs past the last
    vertex."""
    assert new.cover is not None and old.cover is None
    assert new.simplex_counts() == old.simplex_counts()
    n = new.m ** new.level
    assert [new.neighbours(v) for v in range(n)] == [old.neighbours(v) for v in range(n)]
    for dim in range(new.dim_cap + 2):
        listed = new.simplices_of(dim)
        assert listed == old.simplices_of(dim)
        sample = islice(combinations(range(n), dim + 1), 0, None,
                        max(1, comb(n, dim + 1) // 100))
        tried = [*listed, *sample, *(s[::-1] for s in listed if dim),
                 tuple(range(n - dim, n + 1))]
        assert [s in new for s in tried] == [s in old for s in tried]


def assert_components_match_the_union_find(spec, depth, dim_cap, budget):
    """The components of a tower whose levels have covers, with no
    union-find built, against the union-find over every edge
    (`full_tower.unionfind_components`): count, representatives, the label
    of every vertex and the crossing pairs as pairs of blocks, each listed
    once and together the distinct pairs of the reference's crossing edges,
    and the parents `dim0_facts` reads off one vertex per component against
    those of every vertex."""
    built = []

    class Counted(components_module.UnionFind):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    with patch.object(components_module, "UnionFind", Counted):
        tower = tower_complexes(_fresh(spec), depth, dim_cap, budget)
        levels = [c.components for c in tower.complexes]
    assert built == []
    assert_stand_alone(tower.complexes)
    reference = [unionfind_components(c) for c in tower.complexes]
    assert [(lv.count, lv.representatives, labels(lv)) for lv in levels] == \
        [(lv.count, lv.representatives, labels(lv)) for lv in reference]
    assert [len(set(lv.crossing)) for lv in levels] == [len(lv.crossing) for lv in levels]
    assert [block_pairs(lv) for lv in levels] == \
        [sorted(set(block_pairs(lv))) for lv in reference]
    facts = dim0_facts(tower, assert_injective=False, postunbranched=None, n1_betti=None)
    assert facts.parents == [vertex_parents(deep, shallow, spec.m)
                             for deep, shallow in zip(reference[1:], reference)]


def block_pairs(level):
    """The crossing pairs of a `ComponentsLevel` as the sorted pairs of
    blocks their ends lie in."""
    return sorted((a // level.block, b // level.block) for a, b in level.crossing)


def assert_stand_alone(levels):
    """Each level has a cover and nothing else: no block source, no stored
    simplex and no uncertain tuple."""
    assert all(c.cover is not None for c in levels)
    assert [(c.added, c.block_source, c.uncertain) for c in levels] == \
        [({}, None, ())] * len(levels)


DIM_CAPS = [1, 2, 3]


class TestEnvelopeExact:
    """Segment envelopes that the depth-1 envelopes cover: each cell is its
    envelope, and each level is swept from its interval ends.  The sweep
    decides `complete` by counting, so every check runs at each dim cap."""

    @settings(max_examples=30, deadline=None)
    @given(derived_systems())
    def test_licence_matches_the_fraction_reference_on_derived_systems(self, spec):
        assert oracles.envelope_exact(spec) == segment_cover.envelope_covered(spec)

    @pytest.mark.parametrize("name", cli.bundled_names())
    def test_licence_matches_the_fraction_reference_on_bundled_systems(self, name):
        spec = cli.load_bundled(name).spec
        assert oracles.envelope_exact(spec) == segment_cover.envelope_covered(spec) == \
            (name == "interval-overlap")

    @pytest.mark.parametrize("name", sorted(SEGMENT_SPECS))
    def test_licence_matches_the_fraction_reference_on_segments(self, name):
        spec = SEGMENT_SPECS[name]()
        assert oracles.envelope_exact(spec) == segment_cover.envelope_covered(spec) == \
            (name in LICENSED_SEGMENTS)

    @pytest.mark.parametrize("name", LICENSED_SEGMENTS + ["interval-overlap"])
    def test_interval_ends_are_the_cells(self, name):
        """Integer ends over D^k, in vertex index order, against each word's
        whole map applied in Fractions."""
        spec = SEGMENT_SPECS[name]() if name in SEGMENT_SPECS else \
            cli.load_bundled(name).spec
        den = oracles._line_maps(spec)[1]
        for k in range(4):
            ends = oracles.interval_ends(spec, k)
            assert [(Fraction(lo, den ** k), Fraction(hi, den ** k)) for lo, hi in ends] == \
                [segment_cover.cell_interval(spec, w.symbols) for w in enumerate_words(spec.m, k)]

    @settings(max_examples=15, deadline=None)
    @given(covering_systems(), st.sampled_from([Budget(), STARVED]))
    def test_covering_systems_agree_with_the_oracle(self, spec, budget):
        assert oracles.envelope_exact(spec)
        for dim_cap in DIM_CAPS:
            assert_agrees_with_the_oracle(spec, 3 if spec.m <= 5 else 2, budget, dim_cap)

    @settings(max_examples=15, deadline=None)
    @given(covering_systems(), st.integers(1, 8))
    def test_complete_covering_levels_are_contractible(self, spec, dim_cap):
        """Euler characteristic 1 over `simplex_counts` (n_0 included) on
        every complete level: the cells are intervals covering the envelope,
        so N_k is homotopy equivalent to an interval (the nerve theorem)."""
        for complex_ in nerve._levels(_fresh(spec), 3 if spec.m <= 5 else 2, dim_cap, Budget()):
            if complex_.complete:
                assert euler_characteristic(complex_) == 1

    def test_interval_overlap_levels_are_contractible(self):
        """Depths 1, 2 and 3 are complete at dim caps 2, 4 and 7, and no
        sooner."""
        spec = cli.load_bundled("interval-overlap").spec
        for depth, dim_cap in [(1, 2), (2, 4), (3, 7)]:
            below, level = (nerve._levels(_fresh(spec), depth, cap, Budget())[-1]
                            for cap in (dim_cap - 1, dim_cap))
            assert not below.complete and level.complete
            assert euler_characteristic(level) == 1

    @pytest.mark.parametrize("name", LICENSED_SEGMENTS)
    @pytest.mark.parametrize("budget", [Budget(), STARVED], ids=["default", "starved"])
    @pytest.mark.parametrize("dim_cap", DIM_CAPS)
    def test_segments_agree_with_the_oracle(self, name, budget, dim_cap):
        assert_agrees_with_the_oracle(SEGMENT_SPECS[name](), 3, budget, dim_cap)

    @settings(max_examples=15, deadline=None)
    @given(covering_systems(), st.sampled_from(DIM_CAPS))
    def test_covering_systems_have_the_union_find_components(self, spec, dim_cap):
        assert_components_match_the_union_find(spec, 3 if spec.m <= 5 else 2, dim_cap, Budget())

    @pytest.mark.parametrize("name", LICENSED_SEGMENTS)
    @pytest.mark.parametrize("dim_cap", DIM_CAPS)
    def test_segments_have_the_union_find_components(self, name, dim_cap):
        assert_components_match_the_union_find(SEGMENT_SPECS[name](), 4, dim_cap, Budget())

    @pytest.mark.parametrize("budget", [Budget(), STARVED], ids=["default", "starved"])
    @pytest.mark.parametrize("dim_cap", DIM_CAPS)
    def test_interval_overlap_equals_the_oracle(self, budget, dim_cap):
        """Every level equal to the oracle's, with the pairs of blocks that
        its edges join listed once by its cover, as the distinct block pairs
        of the oracle's crossing edges and as N_1's edges, and standing alone
        where the oracle's copy the level below."""
        licensed, queried = _licensed_and_queried(cli.load_bundled("interval-overlap").spec,
                                                  5, budget, dim_cap)
        assert [c.uncertain for c in queried] == [()] * 5
        assert [c.block_source is None for c in queried] == [True] + [False] * 4
        assert_stand_alone(licensed)
        assert [(c.simplices, c.complete) for c in licensed] == \
            [(c.simplices, c.complete) for c in queried]
        base_edges = queried[0].simplices_of(1)
        for new, old in zip(licensed, queried):
            block = old.m ** (old.level - 1)
            assert new.cover.crossing == base_edges == tuple(sorted(
                {(a // block, b // block) for a, b in old.simplices_of(1)
                 if a // block != b // block}))

    def test_interval_overlap_tower_clips_nothing(self, monkeypatch):
        """A licensed tower reads its interval ends only: no envelope, no
        envelope meet, no one-point pruning and no candidate pair."""
        calls = []
        for module, name in [(oracles, "_envelope_meet"), (oracles, "cell_envelope"),
                             (oracles, "touching_children"), (nerve, "_candidate_pairs")]:
            original = getattr(module, name)

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(module, name, counting)
        tower = tower_complexes(_fresh(cli.load_bundled("interval-overlap").spec), 5, dim_cap=2)
        assert tower.complex_at(5).simplex_counts() == {0: 243, 1: 2599, 2: 14425}
        assert calls == []

    def test_gapped_segment_tower_clips_nothing(self, monkeypatch):
        """An unlicensed segment tower meets its cells from their integer
        intervals: no clip, no emptiness test on envelopes, and an envelope
        only for each one-symbol word (the depth-1 envelopes that one-point
        pull-backs test).  Meeting them as polygons made 203,237
        `common_point_exists` and 56 `common_region` calls here."""
        loaded = cli.load_spec_text(json.dumps(cli.spec_to_doc(SEGMENT_SPECS["gap3"]())))
        calls = Counter()
        for module, name in [(oracles, "common_region"), (oracles, "common_point_exists")]:
            original = getattr(module, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(cli, "resolve_spec", lambda ref: loaded)
        assert cli.main(["tower", "gap3", "--max-depth", "3"]) == 3
        assert calls == Counter()
        assert sorted(loaded.spec._cache["cell_envelope"]) == [(1,), (2,), (3,)]

    @pytest.mark.parametrize("budget", [Budget(), STARVED], ids=["default", "starved"])
    def test_interval_overlap_asks_the_oracle_nothing(self, budget, monkeypatch):
        def refuse(spec, ws, budget=Budget()):
            raise AssertionError(f"the generator asked about {ws}")

        monkeypatch.setattr(oracles, "cells_intersect", refuse)
        levels = nerve._levels(cli.load_bundled("interval-overlap").spec, 4, 3, budget)
        assert [c.uncertain for c in levels] == [()] * 4
        assert levels[3].simplex_counts()[3] > 0

    def test_the_oracle_leaves_a_reversing_system_uncertain(self):
        """On the slanted system, whose first map reverses the segment, no
        in-budget point certifies the depth-2 contacts 11 12, 11 21 and 21 22:
        the oracle leaves them uncertain, and the envelopes answer them."""
        licensed, queried = _licensed_and_queried(SEGMENT_SPECS["slanted"](), 2, Budget(), 3)
        held = ((0, 1), (0, 2), (2, 3))
        assert queried[1].uncertain == tuple((s, "budget exhausted") for s in held)
        assert queried[1].simplex_counts() == {0: 4}
        assert licensed[1].simplices_of(1) == held
        assert licensed[1].uncertain == ()


class TestNestingLicence:
    """A pair of levels with covers is truncated by the nesting of their
    intervals, with no simplex read."""

    def levels(self, depth):
        spec = cli.load_bundled("interval-overlap").spec
        return spec, [build_nerve(spec, k, 2) for k in range(1, depth + 1)]

    def test_lone_calls_across_depths_match_the_full_pass(self):
        _spec, levels = self.levels(4)
        for long, short in combinations(reversed(levels), 2):
            assert truncation_map(long, short) is short is full_truncation_map(long, short)

    @pytest.mark.parametrize("caps", [(1, 2), (2, 3), (3, 2)])
    def test_levels_capped_otherwise_match_the_full_pass(self, caps):
        """A deeper level capped below its target misses the target's top
        simplices, and one capped above it has images the target lacks."""
        spec = cli.load_bundled("interval-overlap").spec
        long, short = build_nerve(spec, 3, caps[0]), build_nerve(spec, 2, caps[1])
        expected = outcome(lambda: full_truncation_map(long, short))
        assert expected is not None
        assert outcome(lambda: truncation_map(long, short)) == expected

    @pytest.mark.parametrize("side", [0, 1], ids=["lo", "hi"])
    def test_a_child_that_leaves_its_parent_is_not_simplicial(self, side):
        """Vertex 4 (word 22) starts one step before its parent, word 2, or
        ends one step after it."""
        spec, (n1, n2) = self.levels(2)
        assert_stand_alone([n1, n2])
        den, ends = n2.cover.den, list(n2.cover.ends)
        end = list(ends[4])
        end[side] = n1.cover.ends[1][side] * den + (1 if side else -1)
        ends[4] = tuple(end)
        moved = n2.replace(cover=IntervalCover(ends, *n2.cover._astuple()[1:]))
        message = re.escape("truncation is not simplicial: the cell of vertex 4 of depth 2")
        with pytest.raises(ConsistencyError, match=message):
            truncation_map(moved, n1)
        spec._cache[("nerve_levels", 2, Budget())] = [n1, moved]
        with pytest.raises(ConsistencyError, match=message):
            tower_complexes(spec, 2, 2)


def addresses(m):
    symbols = st.integers(min_value=1, max_value=m)
    return st.builds(lambda pre, per: Address(Word(tuple(pre), m), Word(tuple(per), m)),
                     st.lists(symbols, max_size=2), st.lists(symbols, min_size=1, max_size=2))


@st.composite
def symbolic_systems(draw):
    """A random symbolic system with triangles (and perhaps a tetrahedron) in N_1.

    Each vertex of a simplex above an edge uses one address for all its
    pairs, so every lift is consistent; the other edges get free addresses.
    """
    m = draw(st.integers(min_value=3, max_value=5))
    symbols = range(1, m + 1)
    n1 = draw(st.lists(st.sampled_from(list(combinations(symbols, 3))
                                       + list(combinations(symbols, 4))[:1]),
                       min_size=1, max_size=3, unique=True))
    n1 += draw(st.lists(st.sampled_from(list(combinations(symbols, 2))), max_size=3,
                        unique=True))
    per_vertex = {i: draw(addresses(m)) for i in symbols}
    filled = {(i, j) for s in n1 if len(s) > 2 for i in s for j in s if i != j}
    pairs = {}
    for s in n1:
        for i in s:
            for j in s:
                if i != j:
                    pairs[(i, j)] = per_vertex[i] if (i, j) in filled else draw(addresses(m))
    return SystemSpec("random-pu", "forward", m, SymbolicPUBackend(m, n1, pairs))


def perturbed(spec, position, draw):
    """The same system with one address of a simplex above an edge changed at
    `position`, so that its vertex lifts ambiguously from nerve depth position + 2."""
    backend = spec.backend
    i, j, other = draw(st.sampled_from(sorted(
        sorted(s) for s in backend.n1 if len(s) > 2)))[:3]
    kept = backend.addresses[(i, other)]
    head = tuple(kept.symbol_at(t) for t in range(position))
    changed = draw(st.sampled_from([x for x in range(1, spec.m + 1)
                                    if x != kept.symbol_at(position)]))
    pairs = dict(backend.addresses)
    pairs[(i, j)] = Address(Word(head + (changed,), spec.m), Word((1,), spec.m))
    return SystemSpec("perturbed-pu", "forward", spec.m,
                      SymbolicPUBackend(spec.m, backend.n1, pairs))


def split_late_spec():
    """A triangle whose vertex 1 meets vertex 2 at 1112(1)^inf and vertex 3 at
    (1)^inf; every other vertex uses one address for both its pairs."""
    m = 3
    ones = Address(Word((), m), Word((1,), m))
    pairs = {pair: ones for pair in [(1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]}
    pairs[(1, 2)] = Address(Word((1, 1, 1, 2), m), Word((1,), m))
    return SystemSpec("split-late", "forward", m, SymbolicPUBackend(m, [(1, 2, 3)], pairs))


def assert_matches_word_sets(spec, depth, dim_caps):
    reference = pu_nerve(spec, depth)
    for dim_cap in dim_caps:
        got = build_nerve(spec, depth, dim_cap)
        kept, complete = capped(reference, dim_cap)
        assert simplex_word_sets(got) == kept
        assert got.complete is complete
        assert got.uncertain == ()


class TestAgainstWordSets:
    """The index generator on symbolic systems against the word-set reference."""

    @settings(max_examples=40, deadline=None)
    @given(symbolic_systems(), st.integers(min_value=1, max_value=4))
    def test_random_symbolic_systems(self, spec, depth):
        assert_matches_word_sets(spec, depth, (1, 2, 3))
        tower = tower_complexes(spec, depth, 2)
        assert [simplex_word_sets(c) for c in tower.complexes] == \
            [capped(pu_nerve(spec, k), 2)[0] for k in range(1, depth + 1)]

    @settings(max_examples=40, deadline=None)
    @given(symbolic_systems(), st.integers(min_value=2, max_value=4), st.data())
    def test_inconsistent_addresses_raise_the_reference_error(self, spec, depth, data):
        bad = perturbed(spec, data.draw(st.integers(min_value=0, max_value=depth - 2)),
                        data.draw)
        with pytest.raises(AddressConsistencyError) as expected:
            pu_nerve(bad, depth)
        for dim_cap in (1, 2, 3):
            with pytest.raises(AddressConsistencyError) as got:
                build_nerve(bad, depth, dim_cap)
            assert str(got.value) == str(expected.value)

    @settings(max_examples=40, deadline=None)
    @given(symbolic_systems(), st.data())
    def test_postunbranched_check_raises_the_depth_by_depth_error(self, spec, data):
        """The symbolic postunbranched check lifts once, at the shallowest
        ambiguous depth, and raises what lifting every depth raises first (or
        nothing).  Addresses of preperiod at most Q and period at most P
        that agree on their first Q + 2P symbols are equal (Fine and Wilf),
        so lifting to depth Q + 2P + 1 meets every split."""
        if data.draw(st.booleans()):
            spec = perturbed(spec, data.draw(st.integers(min_value=0, max_value=5)), data.draw)
        addresses = spec.backend.addresses.values()
        deepest = (max(len(a.preperiod) for a in addresses)
                   + 2 * max(len(a.period) for a in addresses) + 1)
        expected = None
        try:
            for k in range(1, deepest + 1):
                oracles.generate_pu_nerve(spec, k)
        except AddressConsistencyError as exc:
            expected = str(exc)
        try:
            report = check_postunbranched(spec)
        except AddressConsistencyError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert (report.status, report.mechanism) == ("postunbranched", "by-construction")

    def test_deep_split_is_refused(self):
        """Vertex 1's addresses toward 2 and 3 agree on their first t = 3
        symbols, so its lift is ambiguous from depth t + 2 = 5 on: the check
        raises the error `build_nerve` raises there.  A check that only
        looked to depth 4 certified this spec."""
        spec = split_late_spec()
        build_nerve(spec, 4)
        with pytest.raises(AddressConsistencyError) as nerve_error:
            build_nerve(spec, 5)
        with pytest.raises(AddressConsistencyError) as check_error:
            check_postunbranched(spec)
        assert str(check_error.value) == str(nerve_error.value) == \
            "simplex (1, 2, 3): vertex 1 lifts ambiguously at depth 4: 1111, 1112"

    def test_consistent_postunbranched_check_lifts_no_level(self, monkeypatch):
        """A spec whose addresses never split is certified without lifting any
        level (lifting every depth up to 3000 took 47.6 s on the pentagasket)."""
        spec = cli.load_bundled("pentagasket").spec
        lifted = []
        monkeypatch.setattr(oracles, "generate_pu_nerve", lambda *args: lifted.append(args))
        assert check_postunbranched(spec).status == "postunbranched"
        assert lifted == []

    @pytest.mark.parametrize("name", ["pentagasket", "simplex-boundary-1",
                                      "simplex-boundary-2", "simplex-boundary-3",
                                      "simplex-boundary-4"])
    def test_bundled_symbolic_systems(self, name):
        assert_matches_word_sets(cli.load_bundled(name).spec, 5, (1, 2, 3))


@pytest.mark.parametrize("name,depth", [("gasket", 6), ("snowflake", 3)])
def test_licensed_geometric_tower_queries_depth_1_only(name, depth, monkeypatch):
    """A certified postunbranched geometric tower asks the oracle about
    depth-1 cells only: every deeper level is the block copies plus the
    lifts, through the routine that lifts symbolic levels.  With
    `lift_addresses` patched to None, the oracle is asked past depth 1, and
    no level is lifted."""
    spec = cli.load_bundled(name).spec
    queried, lifted = [], []
    intersect, lift = oracles.cells_intersect, oracles.generate_pu_nerve
    monkeypatch.setattr(oracles, "cells_intersect",
                        lambda spec, ws, *rest: queried.append(len(ws[0])) or
                        intersect(spec, ws, *rest))
    monkeypatch.setattr(oracles, "generate_pu_nerve", lambda spec, k, *rest:
                        lifted.append((spec.name, k)) or lift(spec, k, *rest))
    tower = tower_complexes(_fresh(spec), depth)
    assert queried and set(queried) == {1}
    assert lifted == [(name, k) for k in range(2, depth + 1)]
    tower_complexes(_fresh(cli.load_bundled("pentagasket").spec), 2)
    assert lifted[depth - 1:] == [("pentagasket", 1), ("pentagasket", 2)]
    queried.clear()
    monkeypatch.setattr(nerve, "lift_addresses", lambda spec, budget: None)
    withheld = tower_complexes(_fresh(spec), depth)
    assert max(queried) == depth and len(lifted) == depth + 1
    assert [_nerve_data(c) for c in withheld.complexes] == [_nerve_data(c) for c in tower.complexes]


def test_pentagasket_depth6_word_constructions(monkeypatch):
    """The symbolic tower works on vertex indices and makes no word at all
    (component representatives as words made 6, a words tuple per nerve
    19,530, and the word-set generator before it 78,220)."""
    spec = cli.load_bundled("pentagasket").spec
    made = []
    original = Word.__init__

    def counting(self, symbols, m):
        made.append(symbols)
        original(self, symbols, m)

    monkeypatch.setattr(Word, "__init__", counting)
    tower = tower_complexes(spec, 6)
    assert tower.complex_at(6).simplex_counts()[0] == 15625
    assert made == []


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_word_is_the_inverse_of_index_of(m, level, data):
    complex_ = SimplicialComplex(level, m, {}, 1, True)
    words = enumerate_words(m, level)
    assert [complex_.word(v) for v in range(m ** level)] == words
    assert [complex_.index_of(w) for w in words] == list(range(m ** level))
    outside = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=m ** level)))
    with pytest.raises(IndexError):
        complex_.word(outside)


def assert_fast_paths_match_references(spec, depth, dim_cap=2, budget=Budget()):
    """tower_complexes against the reference tower: the same levels, the same
    components, and the same lambda over Q and GF(2).  Returns the levels
    whose truncation onto the level below took the crossing-only pass."""
    fast = tower_complexes(spec, depth, dim_cap, budget)
    reference = reference_tower(spec, depth, dim_cap, budget)
    assert [_nerve_data(c) for c in fast.complexes] == \
        [_nerve_data(c) for c in reference.complexes]
    for got, want in zip(fast.components, reference.components):
        assert (got.count, labels(got), got.representatives) == \
            (want.count, labels(want), want.representatives)
        assert len(got.crossing) == len(set(got.crossing)) == len(set(want.crossing))
    if depth >= 2 and betti_exact(fast.complex_at(1), 1):
        for char in (0, 2):
            base_d2 = homology._boundaries(fast.complex_at(1), 2, char)
            assert lambda_ranks(fast, FieldKind(char), base_d2) == \
                lambda_ranks(reference, FieldKind(char), base_d2)
    fresh = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    return [long.level for long, short in zip(fresh[1:], fresh) if long.block_source is short]


def gasket_subsystem(words):
    return build_iterate_or_subsystem(cli.load_bundled("gasket").spec, words)


def unlicensed(spec):
    """The spec with `oracles.envelope_exact` answered False on it (the
    answer it keeps), so that the oracle builds its levels as block copies
    where the licence would sweep each one alone."""
    spec._cache["envelope_exact"] = False
    return spec


# fresh specs, so that levels injected into one spec's cache reach no other test
COPY_BUILT_SYSTEMS = {
    "pentagasket": (lambda: cli.load_bundled("pentagasket").spec, 4),
    "simplex-boundary-3": (lambda: cli.load_bundled("simplex-boundary-3").spec, 3),
    "gasket": (lambda: cli.load_bundled("gasket").spec, 4),
    "snowflake": (lambda: cli.load_bundled("snowflake").spec, 3),
    "two-map-split": (lambda: cli.load_bundled("two-map-split").spec, 5),
    "interval-overlap-unlicensed": (lambda: unlicensed(cli.load_bundled("interval-overlap").spec),
                                    3),
    "gasket-iterate-2": (lambda: iterate_system(cli.load_bundled("gasket").spec, 2), 3),
    "gasket-sub": (lambda: gasket_subsystem([W("11"), W("12"), W("21"), W("33")]), 4),
}
FULL_PASS_SYSTEMS = {
    "singular": (singular_spec, 3),
    "finite-cycle": (lambda: cli.load_bundled("finite-cycle").spec, 2),
    "banded-annuli": (lambda: cli.load_bundled("banded-annuli").spec, 2),
}


def mutated_levels(levels, k, mutated):
    """`levels` with level k replaced by `mutated`, and every level above
    rebuilt as the block copies of the level below plus its own crossing
    simplices."""
    out = levels[:k - 1] + [mutated]
    for level in levels[k:]:
        assert level.block_source is not None
        out.append(level.replace(block_source=out[-1]))
    return out


def outcome(check):
    try:
        check()
    except ConsistencyError as error:
        return str(error)
    return None


class TestCopyBuiltFastPaths:
    """The crossing-only truncation pass and the block-aware components
    against the full pass and the all-edges union-find."""

    @pytest.mark.parametrize("name", sorted(COPY_BUILT_SYSTEMS))
    def test_copy_built_systems(self, name):
        make, depth = COPY_BUILT_SYSTEMS[name]
        assert assert_fast_paths_match_references(make(), depth) == list(range(2, depth + 1))

    @pytest.mark.parametrize("name", sorted(FULL_PASS_SYSTEMS))
    def test_full_pass_systems(self, name):
        make, depth = FULL_PASS_SYSTEMS[name]
        for budget in (Budget(), STARVED):
            assert assert_fast_paths_match_references(make(), depth, 3, budget) == []

    def test_uncertain_levels_take_the_full_pass(self):
        spec = slow_to_separate_spec()
        assert assert_fast_paths_match_references(spec, 4, 2, STARVED) == []
        interval = cli.load_bundled("interval-overlap").spec
        swept = build_iterate_or_subsystem(interval, [W("11"), W("33"), W("32")])
        assert assert_fast_paths_match_references(swept, 3, 2, STARVED) == []

    @settings(max_examples=25, deadline=None)
    @given(symbolic_systems(), st.integers(min_value=3, max_value=4))
    def test_random_symbolic_systems(self, spec, depth):
        assert assert_fast_paths_match_references(spec, depth) == list(range(2, depth + 1))

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.sampled_from(GASKET_WORDS2), min_size=2, max_size=4, unique=True))
    def test_random_gasket_subsystems(self, words):
        spec = gasket_subsystem(words)
        assert assert_fast_paths_match_references(spec, 3) == [2, 3]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(COPY_BUILT_SYSTEMS)), st.data())
    def test_mutations_are_rejected_as_the_full_pass_rejects_them(self, name, data):
        """Drop a crossing simplex of one level, or add a crossing edge, and
        rebuild the levels above as copies: the tower fails exactly when the
        full pass fails, and otherwise has the reference components.  The
        failing pair may differ: the full pass meets a defect of a shallow
        pair again in the copies of every deeper one."""
        make, depth = COPY_BUILT_SYSTEMS[name]
        spec, dim_cap, budget = make(), 2, Budget()
        levels = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
        assert [c.cover for c in levels] == [None] * depth  # the mutation reaches every level
        k = data.draw(st.integers(min_value=1, max_value=depth - 1))
        level = levels[k - 1]
        block = spec.m ** (k - 1)
        added = dict(level.added)  # the crossing simplices: at depth 1, every simplex
        crossing = [(dim, s) for dim, sims in added.items() for s in sims]
        if crossing and data.draw(st.booleans()):
            dim, dropped = data.draw(st.sampled_from(crossing))
            added[dim] = tuple(s for s in added[dim] if s != dropped)
        else:
            a = data.draw(st.integers(min_value=0, max_value=spec.m ** k - block - 1))
            b = data.draw(st.integers(min_value=(a // block + 1) * block,
                                      max_value=spec.m ** k - 1))
            added[1] = tuple(sorted(set(added.get(1, ())) | {(a, b)}))
        injected = mutated_levels(levels, k, level.replace(added=added))

        expected = outcome(lambda: [full_truncation_map(injected[i], injected[i - 1])
                                    for i in range(depth - 1, 0, -1)])
        spec._cache[("nerve_levels", dim_cap, budget)] = injected
        towers = []
        got = outcome(lambda: towers.append(tower_complexes(spec, depth, dim_cap, budget)))
        assert (got is None) == (expected is None), (got, expected)
        if expected is None:
            assert [(c.count, labels(c)) for c in towers[0].components] == \
                [(c.count, labels(c)) for c in map(unionfind_components, injected)]


GENERATED_SYSTEMS = [name for name in cli.bundled_names()
                     if not isinstance(cli.load_bundled(name).spec.backend, TableBackend)]


def assert_block_sources_are_licensed(spec, depth, dim_cap, budget):
    """The block-copy licence of `SimplicialComplex`: a level with a block
    source has no uncertain tuples and copies the level before it, which has
    none either and is depth 1 or copy-built; in `tower_complexes` that is
    the tower's level below it.  A level with a cover has neither a block
    source nor stored simplices."""
    levels = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    assert levels[0].block_source is None
    for below, level in zip(levels, levels[1:]):
        if level.block_source is not None:
            assert level.block_source is below and not level.uncertain
            assert not below.uncertain and (below.level == 1 or below.block_source is not None)
    for level in levels:
        assert level.cover is None or \
            (level.block_source, level.added, level.uncertain) == (None, {}, ())
    tower = tower_complexes(spec, depth, dim_cap, budget)
    for below, level in zip(tower.complexes, tower.complexes[1:]):
        assert level.block_source is None or level.block_source is below


class TestBlockCopyLicence:
    @pytest.mark.parametrize("budget", [Budget(), STARVED], ids=["default", "starved"])
    @pytest.mark.parametrize("name", GENERATED_SYSTEMS)
    def test_bundled_systems(self, name, budget):
        assert_block_sources_are_licensed(cli.load_bundled(name).spec, 3, 2, budget)

    @settings(max_examples=15, deadline=None)
    @given(derived_systems(), st.sampled_from([Budget(), STARVED]))
    def test_derived_systems(self, spec, budget):
        assert_block_sources_are_licensed(spec, 3, 2, budget)


def simplices_read_by_truncation(monkeypatch, spec, depth, budget=Budget()):
    """The depths of the levels `truncation_map` calls `simplices_of` on
    while `tower_complexes` builds the tower, and the tower."""
    asked, inside = [], []
    truncate, simplices_of = nerve.truncation_map, SimplicialComplex.simplices_of

    def tracked(long, short):
        inside.append(True)
        try:
            return truncate(long, short)
        finally:
            inside.pop()

    def counting(self, dim):
        if inside:
            asked.append(self.level)
        return simplices_of(self, dim)

    monkeypatch.setattr(nerve, "truncation_map", tracked)
    monkeypatch.setattr(SimplicialComplex, "simplices_of", counting)
    tower = tower_complexes(spec, depth, budget=budget)
    return asked, tower


# the golden towers' shapes: table levels, singular cell maps, the starved
# derived spec whose certificates sweep into depths 1 and 2, and copy-built
# symbolic, polygon and segment towers
TRUNCATED_TOWERS = {
    "finite-cycle": (lambda: cli.load_bundled("finite-cycle").spec, 2, Budget()),
    "banded-annuli": (lambda: cli.load_bundled("banded-annuli").spec, 2, Budget()),
    "singular": (singular_spec, 3, Budget()),
    "derived-starved": (lambda: build_iterate_or_subsystem(
        cli.load_bundled("interval-overlap").spec, [W("11"), W("33"), W("32")]), 3, STARVED),
    "pentagasket": (lambda: cli.load_bundled("pentagasket").spec, 4, Budget()),
    "gasket": (lambda: cli.load_bundled("gasket").spec, 4, Budget()),
    "snowflake": (lambda: cli.load_bundled("snowflake").spec, 3, Budget()),
    "interval-overlap": (lambda: cli.load_bundled("interval-overlap").spec, 3, Budget()),
}


@pytest.mark.parametrize("name", sorted(TRUNCATED_TOWERS))
def test_truncation_expands_no_level(monkeypatch, name):
    """Each pair of a tower is checked from what its levels store: the
    crossing simplices of a copy-built level, every simplex of any other,
    and membership in the shallower level through its block sources.  No
    level's components list a crossing pair twice."""
    make, depth, budget = TRUNCATED_TOWERS[name]
    asked, tower = simplices_read_by_truncation(monkeypatch, make(), depth, budget)
    assert asked == []
    assert [len(set(lv.crossing)) for lv in tower.components] == \
        [len(lv.crossing) for lv in tower.components]


def copy_built_pentagasket(drop_image_of=None, add_crossing=None):
    """A fresh pentagasket spec whose cached levels 1..3 are built by hand:
    level 2 with one crossing edge dropped or added, and level 3 as the block
    copies of that level 2 plus the generated crossings."""
    spec = cli.load_bundled("pentagasket").spec
    levels = [build_nerve(spec, k, 1) for k in (1, 2, 3)]
    edges = set(levels[1].added[1])
    if drop_image_of is not None:
        edges.discard(nerve._truncate(drop_image_of, 5))
    if add_crossing is not None:
        edges.add(add_crossing)
    level2 = levels[1].replace(added={1: tuple(sorted(edges))})
    spec._cache[("nerve_levels", 1, Budget())] = mutated_levels(levels, 2, level2)
    return spec


class TestCopyBuiltMutations:
    """Hand-built copy-built levels on which the crossing-only pass is the
    only check that can fail, so that it is not vacuous."""

    def crossing_edges(self):
        return list(build_nerve(cli.load_bundled("pentagasket").spec, 3, 1).added[1])

    def test_missing_image_is_not_simplicial(self, monkeypatch):
        edge = self.crossing_edges()[2]
        spec = copy_built_pentagasket(drop_image_of=edge)
        images = []
        original = nerve._truncate
        monkeypatch.setattr(nerve, "_truncate", lambda s, r: images.append(s) or original(s, r))
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"truncation is not simplicial: {edge} maps outside")):
            tower_complexes(spec, 3, 1)
        assert images == self.crossing_edges()[:3]  # the crossing edges only, up to it

    def test_crossing_nothing_maps_onto_is_missed(self):
        # words 11 and 21 lie in different blocks and truncate onto the N_1 edge 1-2
        assert (0, 5) not in build_nerve(cli.load_bundled("pentagasket").spec, 2, 1).simplices[1]
        spec = copy_built_pentagasket(add_crossing=(0, 5))
        with pytest.raises(ConsistencyError,
                           match=re.escape("truncation from depth 3 misses simplices of depth 2")):
            tower_complexes(spec, 3, 1)


    def test_swept_level_takes_the_full_pass(self):
        """Hand-built levels outside the block-copy licence: a sweep adds a
        simplex inside a block of a copy-built level, and the next pass, which
        reads what that level adds, checks its image too."""

        def copy_built(prev, added, uncertain=()):
            return SimplicialComplex(prev.level + 1, 3, {1: tuple(sorted(added))}, 1, True,
                                     uncertain, prev)

        n1 = hand_built(1, {1: ((0, 1), (1, 2))}, 1)
        n2 = copy_built(n1, [(2, 3), (5, 6)])
        # 111-131 is undecided at depth 3; 1111-1211 above it sweeps it in, but
        # its image 11-13 is no edge of depth 2
        n3 = copy_built(n2, [(8, 9), (17, 18)], (((0, 6), "budget exhausted"),))
        n4 = copy_built(n3, [(0, 18), (26, 27), (53, 54)])
        spec = cli.load_bundled("gasket").spec
        spec._cache[("nerve_levels", 1, Budget())] = [n1, n2, n3, n4]
        with pytest.raises(ConsistencyError, match=re.escape(
                "truncation is not simplicial: (0, 6) maps outside depth 2")):
            tower_complexes(spec, 4, 1)


@pytest.mark.parametrize("argv", [["tower", "banded-annuli", "--max-depth", "2"],
                                  ["classify", "banded-annuli"]])
def test_banded_annuli_table_levels_built_once(monkeypatch, tmp_path, argv):
    """A command reads each stored table level into a level once: the pivot
    check and the tower share the spec's cached levels (each was built twice
    while table levels were not cached)."""
    built = Counter()
    original = nerve._table_level

    def counting(spec, level, dim_cap):
        built[level, dim_cap] += 1
        return original(spec, level, dim_cap)

    monkeypatch.setattr(nerve, "_table_level", counting)
    outputs = ["--out-report", str(tmp_path / "report.json")]
    if argv[0] == "tower":
        outputs += ["--out-csv", str(tmp_path / "tower.csv")]
    assert cli.main(argv + outputs) == cli.EXIT_OK
    assert built == {(1, 2): 1, (2, 2): 1}


def test_pentagasket_depth6_truncation_images(monkeypatch):
    """Truncation forms images of the crossing simplices only, 5 at each of
    depths 2..6, where the full pass from depth 2 onto depth 1 formed 55 and
    a pass over every simplex 43,925."""
    spec = cli.load_bundled("pentagasket").spec
    images = []
    original = nerve._truncate

    def counting(simplex, ratio):
        images.append(simplex)
        return original(simplex, ratio)

    monkeypatch.setattr(nerve, "_truncate", counting)
    tower = tower_complexes(spec, 6)
    crossings = sum(len(sims) for c in tower.complexes[1:] for sims in c.added.values())
    assert len(images) == crossings == 5 * 5
