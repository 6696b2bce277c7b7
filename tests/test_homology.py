"""Field homology, cohomology, induced ranks, and the tower Betti table.

Expected values are cross-checked against tests/support/linalg_oracle.py,
a dense-elimination implementation that shares no code with the package.
"""

import math
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nervetower import FrozenInstanceError, cli, homology
from nervetower.homology import (BettiTable, FieldKind, _reduce, betti, betti_exact,
                                 induced_rank, tower_analysis)
from nervetower.nerve import (SimplicialComplex, SimplicialMap, TowerData, build_nerve,
                              tower_complexes)
from nervetower.oracles import ConsistencyError, SpecError, TableBackend

from support import linalg_oracle
from support.cohomology import cobetti
from support.complexes import euler_characteristic
from support.full_tower import truncation
from support.linalg_oracle import betti_oracle, induced_rank_oracle
from test_acceptance import SUITE_DEPTHS, SUITE_DIM_CAPS
from test_classify import derived_systems
from test_nerve import symbolic_systems

Q = FieldKind(0)
GF2 = FieldKind(2)
GF3 = FieldKind(3)
FIELDS = [Q, GF2, GF3]


def synthetic(faces, n):
    """Depth-1 complex on n vertices from a list of triangles like "123"."""
    buckets = {0: {(i,) for i in range(n)}, 1: set(), 2: set()}
    for f in faces:
        s = tuple(sorted(int(c) - 1 for c in f))
        buckets[2].add(s)
        for e in combinations(s, 2):
            buckets[1].add(e)
    simplices = {d: tuple(sorted(v)) for d, v in buckets.items()}
    return SimplicialComplex(1, n, simplices, dim_cap=3, complete=True)


# a Moebius band (5 triangles around a band) and the 6-vertex projective
# plane: closed checks above the usual graph-only cases, with the projective
# plane separating characteristic 2 from the rest
MOEBIUS = synthetic(["123", "234", "345", "451", "512"], 5)
RP2 = synthetic(["123", "134", "145", "156", "126",
                 "235", "346", "452", "563", "624"], 6)


def truncation_maps(tower: TowerData) -> list[SimplicialMap]:
    """The one-step truncations, then those from depths 3..K to depth 1."""
    pairs = list(zip(tower.complexes[1:], tower.complexes))
    pairs += [(tower.complex_at(k), tower.complex_at(1)) for k in range(3, tower.depth + 1)]
    return [truncation(long, short) for long, short in pairs]


class TestFieldKind:
    def test_parse(self):
        assert FieldKind.parse("q") == Q
        assert FieldKind.parse("Q") == Q
        assert FieldKind.parse("gf2") == GF2
        assert FieldKind.parse("GF7") == FieldKind(7)

    def test_parse_rejects(self):
        for bad in ("r", "gf4", "gf1", "gf0", "f2"):
            with pytest.raises(SpecError):
                FieldKind.parse(bad)

    def test_primality_matches_trial_division(self):
        for n in range(20000):
            assert homology._is_prime(n) == \
                (n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)))

    def test_strong_pseudoprimes_are_composite(self):
        # the least composites passing bases 2..7, 2..23 and 2..37
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            with pytest.raises(SpecError, match="0 or a prime"):
                FieldKind(n)
        assert FieldKind(2 ** 61 - 1).char == 2 ** 61 - 1
        assert FieldKind.parse("gf0007") == FieldKind(7)

    def test_bound(self):
        for bad in (lambda: FieldKind(10 ** 24 + 7), lambda: FieldKind.parse("gf" + "9" * 25)):
            with pytest.raises(SpecError, match=r"below 10\^24"):
                bad()

    def test_labels(self):
        assert Q.label == "Q"
        assert GF2.label == "GF(2)"


class TestReduce:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda nrows: st.lists(
        st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows),
        min_size=1, max_size=7)))
    def test_integer_reduction_matches_dense_oracle(self, matrix_columns):
        # entries in -3..3 make non-unit pivots, which the fraction-free path scales
        columns = [{i: v for i, v in enumerate(col) if v} for col in matrix_columns]
        rows = [list(row) for row in zip(*matrix_columns)]
        nrows = len(rows)
        rank = linalg_oracle.rank(rows, 0)
        reduced = _reduce(columns, 0)
        assert len(reduced) == rank
        assert all(isinstance(v, int) for col in reduced for v in col.values())
        assert len({max(col) for col in reduced}) == len(reduced)
        # the reduced columns lie in the input's span: adding them keeps the rank
        dense = [[col.get(i, 0) for col in columns + reduced] for i in range(nrows)]
        assert linalg_oracle.rank(dense, 0) == rank

    def test_boundary_entries_are_plain_ints(self):
        for col in homology._boundary_columns(RP2, 2, 0):
            assert sorted(col.values()) == [-1, 1, 1]
            assert all(type(v) is int for v in col.values())


class TestBetti:
    def test_moebius_band(self):
        for fk in FIELDS:
            assert [betti(MOEBIUS, fk, r) for r in range(3)] == [1, 1, 0]

    def test_projective_plane_depends_on_characteristic(self):
        assert [betti(RP2, Q, r) for r in range(3)] == [1, 0, 0]
        assert [betti(RP2, GF2, r) for r in range(3)] == [1, 1, 1]
        assert [betti(RP2, GF3, r) for r in range(3)] == [1, 0, 0]

    def test_cobetti_agrees_everywhere(self, gasket, bundled):
        complexes = [MOEBIUS, RP2, build_nerve(gasket, 2),
                     build_nerve(bundled("banded-annuli").spec, 2, dim_cap=2),
                     build_nerve(bundled("snowflake").spec, 1)]
        for c in complexes:
            for fk in FIELDS:
                for r in range(min(c.dim_cap, 2) + 1):
                    assert betti(c, fk, r) == cobetti(c, fk, r)

    def test_dense_oracle_agrees(self, gasket, bundled):
        complexes = [MOEBIUS, RP2, build_nerve(gasket, 3),
                     build_nerve(bundled("pentagasket").spec, 2),
                     build_nerve(bundled("banded-annuli").spec, 2, dim_cap=2),
                     build_nerve(bundled("finite-cycle").spec, 2, dim_cap=4)]
        for c in complexes:
            for fk in FIELDS:
                for r in range(3):
                    if betti_exact(c, r):
                        assert betti(c, fk, r) == betti_oracle(c, r, fk.char)

    def test_euler_identity(self, gasket, bundled):
        for c in (MOEBIUS, RP2, build_nerve(gasket, 2),
                  build_nerve(bundled("finite-trivial").spec, 2, dim_cap=2)):
            alternating = sum((-1) ** r * betti(c, Q, r)
                              for r in range(c.dim_cap + 1))
            assert alternating == euler_characteristic(c)

    def test_replaced_simplices_are_reduced_again(self):
        """A level is never changed: a level with other simplices is a new
        value, and betti reads each level afresh."""
        c = synthetic(["123", "234", "345", "451", "512"], 5)
        assert betti(c, Q, 1) == 1
        with pytest.raises(FrozenInstanceError):
            c.simplices = {}
        fewer = c.replace(added={**c.added, 2: c.added[2][:-1]})
        assert betti(fewer, Q, 1) == betti_oracle(fewer, 1, 0) == 2
        assert betti(c, Q, 1) == 1

    def test_capped_complex_refuses(self, bundled):
        capped = build_nerve(bundled("finite-trivial").spec, 2, dim_cap=1)
        with pytest.raises(ConsistencyError):
            betti(capped, Q, 2)
        # dimension 0 only needs edges, which a cap of 1 still enumerates
        assert betti(capped, Q, 0) == 3

    def test_betti_keeps_nothing(self, monkeypatch):
        """betti is pure: it leaves the level as it was, and a second call
        reduces both boundaries again."""
        built = Counter()
        original = homology._boundary_columns

        def counting(complex_, r, char):
            built[r] += 1
            return original(complex_, r, char)

        monkeypatch.setattr(homology, "_boundary_columns", counting)
        before = dict(vars(RP2))
        assert [betti(RP2, GF2, 1) for _ in range(2)] == [1, 1]
        assert built == {1: 2, 2: 2}
        assert vars(RP2) == before
        assert not hasattr(RP2, "_reductions")


class TestInducedRank:
    def test_identity_map_realizes_betti(self):
        for c in (MOEBIUS, RP2):
            ident = SimplicialMap(c, c, tuple(range(c.m ** c.level)))
            for fk in FIELDS:
                for r in range(3):
                    assert induced_rank(ident, r, fk) == betti(c, fk, r)

    def test_image_orientation_signs(self):
        # the rotation v -> v + 1 mod 5 of the Moebius band sends the edge (0, 4)
        # to (1, 0), against the vertex order; truncation maps never do
        rotation = SimplicialMap(MOEBIUS, MOEBIUS, (1, 2, 3, 4, 0))
        for fk in FIELDS:
            for r in range(3):
                assert induced_rank(rotation, r, fk) == betti(MOEBIUS, fk, r) == \
                    induced_rank_oracle(rotation, r, fk.char)

    def test_oracle_agreement_on_towers(self, bundled):
        for name in ("gasket", "pentagasket", "gasket-sub-mixed", "banded-annuli",
                     "simplex-boundary-2", "simplex-boundary-3", "simplex-boundary-4",
                     "finite-cycle", "two-map-split"):
            spec = bundled(name).spec
            # table systems store depth 2 only
            depth = 2 if isinstance(spec.backend, TableBackend) else 3
            tower = tower_complexes(spec, depth, dim_cap=3)
            for smap in truncation_maps(tower):
                for fk in FIELDS:
                    for r in (0, 1, 2):
                        assert induced_rank(smap, r, fk) == \
                            induced_rank_oracle(smap, r, fk.char), \
                            (name, smap.source.level, smap.target.level, r, fk)

    @settings(max_examples=25, deadline=None)
    @given(symbolic_systems())
    def test_oracle_agreement_on_random_towers_with_2_cells(self, spec):
        for smap in truncation_maps(tower_complexes(spec, 3, 3)):
            for fk in FIELDS:
                for r in (1, 2):
                    assert induced_rank(smap, r, fk) == \
                        induced_rank_oracle(smap, r, fk.char), \
                        (smap.source.level, smap.target.level, r, fk)

    def test_frozen_lambda_values(self, bundled):
        expected = {
            "gasket": 1, "pentagasket": 1, "gasket-sub7": 1,
            "gasket-sub-mixed": 0, "banded-annuli": 2,
            "simplex-boundary-2": 0, "finite-cycle": 1, "finite-trivial": 0,
        }
        for name, lam2 in expected.items():
            tower = tower_complexes(bundled(name).spec, 2, dim_cap=2)
            to_base = truncation(tower.complex_at(2), tower.complex_at(1))
            assert induced_rank(to_base, 1, Q) == lam2, name

    def test_dim0_rank_counts_surviving_components(self, bundled):
        # depth-2 map to depth 1 on components: three blocks stay three blocks
        tower = tower_complexes(bundled("finite-trivial").spec, 2, dim_cap=2)
        to_base = truncation(tower.complex_at(2), tower.complex_at(1))
        assert induced_rank(to_base, 0, Q) == 3

    def test_non_simplicial_vertex_map_names_the_simplex(self, bundled):
        """v -> v mod 5 from pentagasket depth 2 to depth 1 sends the edge
        (2, 9), between the words 13 and 25, onto (2, 4), which is no edge."""
        tower = tower_complexes(bundled("pentagasket").spec, 2, dim_cap=2)
        long, short = tower.complex_at(2), tower.complex_at(1)
        modulo = SimplicialMap(long, short, tuple(v % 5 for v in range(25)))
        message = "sends the 1-simplex (2, 9) to (2, 4), outside the target"
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            induced_rank(modulo, 1, Q)


def assert_lambda_pass_matches(tower: TowerData, fk: FieldKind, oracle_cells: int) -> None:
    """tower_analysis: lambda_k equals the mapping-cone rank (and the dense
    cochain rank, on at most oracle_cells vertices), and every Betti number
    equals betti's, which reduces d_1 where the table takes rank d_1 from
    the component count."""
    table = tower_analysis(tower, fk)
    for k, c in enumerate(tower.complexes, start=1):
        for r in table.exact_dims:
            assert table.a[(r, k)] == betti(c, fk, r), (k, r, fk)
    for k in range(2, tower.depth + 1):
        smap = truncation(tower.complex_at(k), tower.complex_at(1))
        assert table.lam[k] == induced_rank(smap, 1, fk), (k, fk)
        if tower.spec.m ** k <= oracle_cells:
            assert table.lam[k] == induced_rank_oracle(smap, 1, fk.char), (k, fk)


# every bundled system: the property-suite depths, gasket and pentagasket deeper
LAMBDA_DEPTHS = {**SUITE_DEPTHS, "gasket": 5, "pentagasket": 5}


def assert_cocycle_basis(c: SimplicialComplex, fk: FieldKind) -> None:
    """_base_cocycles: annihilators of every d_2 column, as many as
    dim Z^1 = n_1 - rank d_2, and independent."""
    char = fk.char
    n1 = len(c.simplices.get(1, ()))
    cocycles = homology._base_cocycles(homology._boundaries(c, 2, char), n1, char)
    d2 = linalg_oracle.boundary_matrix(c, 2, char)
    assert len(cocycles) == n1 - linalg_oracle.rank(d2, char)
    assert all(len(z) == n1 and all(type(x) is int for x in z) for z in cocycles)
    for z in cocycles:
        for col in homology._boundary_columns(c, 2, char):
            total = sum(z[row] * val for row, val in col.items())
            assert (total % char if char else total) == 0
    assert linalg_oracle.rank(cocycles, char) == len(cocycles)


class TestLambdaPass:
    def test_cocycle_bases(self, bundled):
        complexes = [MOEBIUS, RP2] + [build_nerve(bundled(name).spec, 1, dim_cap=3)
                                      for name in sorted(LAMBDA_DEPTHS)]
        for c in complexes:
            for fk in FIELDS:
                assert_cocycle_basis(c, fk)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["".join(map(str, t)) for t in combinations(range(1, 7), 3)]),
                    max_size=10))
    def test_cocycle_bases_of_random_complexes(self, faces):
        for fk in FIELDS:
            assert_cocycle_basis(synthetic(faces, 6), fk)

    @pytest.mark.parametrize("name", sorted(LAMBDA_DEPTHS))
    def test_bundled_systems_match_references(self, bundled, name):
        spec = bundled(name).spec
        for fk in FIELDS:
            tower = tower_complexes(spec, LAMBDA_DEPTHS[name], SUITE_DIM_CAPS.get(name, 2))
            assert_lambda_pass_matches(tower, fk, oracle_cells=125)

    @settings(max_examples=15, deadline=None)
    @given(derived_systems())
    def test_derived_systems_match_references(self, spec):
        for fk in FIELDS:
            tower = tower_complexes(spec, 3 if spec.m <= 4 else 2, 2)
            assert_lambda_pass_matches(tower, fk, oracle_cells=81)

    @settings(max_examples=15, deadline=None)
    @given(symbolic_systems())
    def test_symbolic_systems_with_2_cells_match_references(self, spec):
        for fk in FIELDS:
            assert_lambda_pass_matches(tower_complexes(spec, 3, 3), fk, oracle_cells=27)

    @pytest.mark.parametrize("name", sorted(SUITE_DEPTHS))
    def test_a0_by_reduction_is_the_component_count(self, bundled, name):
        tower = tower_complexes(bundled(name).spec, SUITE_DEPTHS[name],
                                SUITE_DIM_CAPS.get(name, 2))
        for c, level in zip(tower.complexes, tower.components):
            assert betti_oracle(c, 0, 0) == level.count, (name, c.level)


class TestOneReductionPerBoundary:
    def test_pentagasket_tower_reduces_no_d1(self, monkeypatch):
        """rank d_1 comes from the component count and lambda from the
        crossing edges, so no d_1 column is built; the mapping-cone lambda
        built d_1 of every depth.  No depth from 2 on has a crossing
        triangle, so its rank d_2 is m times that of the depth below, and
        only N_1 builds a d_2."""
        built = Counter()
        original = homology._boundary_columns

        def counting(complex_, r, char):
            built[r] += 1
            return original(complex_, r, char)

        monkeypatch.setattr(homology, "_boundary_columns", counting)
        table = tower_analysis(tower_complexes(cli.load_bundled("pentagasket").spec, 6), Q)
        assert table.lam == {k: 1 for k in range(2, 7)}
        assert built[1] == 0
        assert built[2] == 1

    def test_pentagasket_tower_builds_each_boundary_once(self, monkeypatch):
        """Betti numbers at neighbouring r share a boundary, and the cocycles of
        N_1 share its d_2 with the Betti numbers of depth 1; the deeper
        depths take their ranks from the depth below."""
        built = Counter()
        original = homology._boundary_columns

        def counting(complex_, r, char):
            built[complex_.level, r] += 1
            return original(complex_, r, char)

        monkeypatch.setattr(homology, "_boundary_columns", counting)
        table = tower_analysis(tower_complexes(cli.load_bundled("pentagasket").spec, 6), Q)
        assert table.sequence(1)[:3] == [1, 6, 31]
        assert len(table.lam) == 5
        assert {k for k, _r in built} == {1}
        assert [key for key, n in built.items() if n > 1] == []


def test_pentagasket_tower_column_subtractions(monkeypatch):
    """lambda_k tracks no kernel combinations: the depth-6 pentagasket analysis
    makes no column subtractions (the mapping-cone lambda made 62,478, and
    reducing d_1 with a kernel basis 124,947)."""
    spec = cli.load_bundled("pentagasket").spec
    calls = []
    original = homology._subtract

    def counting(col, factor, other, char):
        calls.append(char)
        original(col, factor, other, char)

    monkeypatch.setattr(homology, "_subtract", counting)
    tower_analysis(tower_complexes(spec, 6), Q)
    assert len(calls) < 80000


class TestTowerAnalysis:
    def test_gasket_table(self, gasket):
        table = tower_analysis(tower_complexes(gasket, 4, dim_cap=2), Q)
        assert isinstance(table, BettiTable)
        assert table.m == 3
        assert table.sequence(1) == [1, 4, 13, 40]
        assert table.sequence(0) == [1, 1, 1, 1]
        assert table.lam == {2: 1, 3: 1, 4: 1}
        assert table.component_counts == [1, 1, 1, 1]
        assert table.uncertain == []

    def test_growth_logs(self, gasket):
        import math
        table = tower_analysis(tower_complexes(gasket, 3, dim_cap=2), Q)
        assert table.growth[1][0] == 0.0  # log 1
        assert table.growth[1][1] == pytest.approx(math.log(4) / 2)
        assert table.growth[1][2] == pytest.approx(math.log(13) / 3)
        assert table.growth[0] == [0.0, 0.0, 0.0]

    def test_depth_validation(self, gasket):
        with pytest.raises(SpecError):
            tower_analysis(tower_complexes(gasket, 0), Q)

    def test_component_counts_match_a0(self, bundled):
        table = tower_analysis(tower_complexes(bundled("finite-trivial").spec, 2, dim_cap=2), Q)
        assert table.sequence(0) == [3, 3]
        assert table.component_counts == [3, 3]

    def test_field_changes_nothing_on_graph_towers(self, gasket):
        over_q = tower_analysis(tower_complexes(gasket, 3, dim_cap=2), Q)
        over_2 = tower_analysis(tower_complexes(gasket, 3, dim_cap=2), GF2)
        assert over_q.sequence(1) == over_2.sequence(1)
        assert over_q.lam == over_2.lam

    def test_the_tower_names_system_depth_and_cap(self, bundled):
        """The table describes the tower it is given: its system, alphabet,
        depth and dim cap all come from it."""
        tower = tower_complexes(bundled("pentagasket").spec, 3, dim_cap=2)
        table = tower_analysis(tower, Q)
        assert (table.name, table.m, table.depth, table.dim_cap) == ("pentagasket", 5, 3, 2)
        assert table.sequence(1) == [1, 6, 31]
        assert table.exact_dims == (0, 1, 2)
