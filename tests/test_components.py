"""Component counting, parent links, and the component verdict mechanisms."""

import importlib
from fractions import Fraction

import pytest

from nervetower import cli
from nervetower.components import (DIM0_MECHANISMS, ComponentTower, Dim0Facts,
                                   component_tower, components, dim0_facts)
from nervetower.exactgeom import ConvexPolygon, Point2, RationalAffineMap
from nervetower.homology import FieldKind, tower_analysis
from nervetower.nerve import build_nerve, tower_complexes
from nervetower.oracles import (Budget, ConsistencyError, GeometricBackend,
                                SystemSpec, TableBackend)
from support.full_tower import labels

components_module = importlib.import_module("nervetower.components")


def P(x, y):
    return Point2(Fraction(x), Fraction(y))


def facts(tower, *, postunbranched=None, n1_betti=None):
    """The dim-0 facts of the whole tower, as tower_analysis derives them."""
    return dim0_facts(tower, assert_injective=False,
                      postunbranched=postunbranched, n1_betti=n1_betti)


def interval_with_isolated_cell():
    """Three quarter-scale maps on a segment; cell 1 is isolated, 2 and 3 touch."""
    q = Fraction(1, 4)
    maps = tuple(RationalAffineMap(q, 0, 0, q, e, 0)
                 for e in (Fraction(0), Fraction(1, 2), Fraction(3, 4)))
    envelope = ConvexPolygon.hull([P(0, 0), P(1, 0)])
    return SystemSpec("isolated", "forward", 3, GeometricBackend(maps, envelope))


class TestComponents:
    def test_connected_gasket(self, gasket):
        lv = components(build_nerve(gasket, 2))
        assert lv.count == 1
        assert set(labels(lv)) == {0}
        assert lv.representatives == (0,)  # the word 11

    def test_trivial_table_three_blocks(self, bundled):
        lv = components(build_nerve(bundled("finite-trivial").spec, 1))
        assert lv.count == 3
        assert labels(lv) == (0, 1, 2)
        assert lv.representatives == (0, 1, 2)

    def test_representatives_are_lex_least(self, bundled):
        n1 = build_nerve(bundled("gasket-sub-mixed").spec, 1)
        lv = components(n1)
        assert lv.count == 2
        assert labels(lv) == (0, 0, 0, 0, 1, 1, 1)
        assert [str(n1.word(v)) for v in lv.representatives] == ["1", "5"]


class TestParentLinks:
    def test_components_computed_once_per_nerve(self, monkeypatch):
        """On a fresh spec, whose levels have not found their components yet."""
        gasket = cli.load_bundled("gasket").spec
        made = []

        class Counting(components_module.ComponentsLevel):
            def __init__(self, *fields):
                made.append(fields)
                super().__init__(*fields)

        monkeypatch.setattr(components_module, "ComponentsLevel", Counting)
        tower = tower_complexes(gasket, 3)
        tower_analysis(tower, FieldKind(0))
        component_tower(tower, facts(tower))
        assert len(made) == 3

    def test_facts_derived_once_per_tower_command(self, tmp_path, monkeypatch):
        homology_module = importlib.import_module("nervetower.homology")
        derived = []
        original = components_module.dim0_facts

        def counting(*args, **kwargs):
            derived.append(args[0].depth)
            return original(*args, **kwargs)

        for module in (components_module, homology_module):
            monkeypatch.setattr(module, "dim0_facts", counting)
        code = cli.main(["tower", "gasket", "--max-depth", "3",
                         "--out-csv", str(tmp_path / "t.csv"),
                         "--out-report", str(tmp_path / "t.json")])
        assert code == cli.EXIT_OK
        assert derived == [3]

    def test_facts_must_cover_the_tower(self, gasket):
        tower = tower_complexes(gasket, 3)
        table = tower_analysis(tower_complexes(gasket, 2), FieldKind(0))
        with pytest.raises(ConsistencyError):
            component_tower(tower, table.facts)

    def test_connected_chain(self, gasket):
        tower = tower_complexes(gasket, 3)
        ct = component_tower(tower, facts(tower))
        assert ct.counts == [1, 1, 1]
        assert ct.parents == [(0,), (0,)]

    def test_three_blocks_map_bijectively(self, bundled):
        tower = tower_complexes(bundled("finite-trivial").spec, 2, dim_cap=2)
        ct = component_tower(tower, facts(tower), assert_lx_connected=True)
        assert ct.counts == [3, 3]
        assert ct.parents == [(0, 1, 2)]


class TestVerdicts:
    def test_mechanism_table_is_well_formed(self):
        names = [mech.name for mech in DIM0_MECHANISMS]
        assert len(set(names)) == len(names)
        facts = Dim0Facts._fields
        for mech in DIM0_MECHANISMS:
            assert mech.licence
            assert all(need in facts for need in mech.needs)
        assert DIM0_MECHANISMS[-1].name == "no-certificate"
        assert DIM0_MECHANISMS[-1].needs == ()

    def test_connected_base(self, gasket):
        tower = tower_complexes(gasket, 2)
        ct = component_tower(tower, facts(tower))
        assert ct.hypothesis == "verified-contraction"
        assert ct.verdict.kind == "connected"
        assert ct.verdict.count == 1
        assert ct.verdict.mechanism == "connected-base"

    def test_two_block_split_is_uncountable(self, bundled):
        spec = bundled("two-map-split").spec
        tower = tower_complexes(spec, 3)
        ct = component_tower(tower, facts(tower))
        assert ct.counts == [2, 4, 8]
        assert ct.verdict.kind == "uncountable"
        assert ct.verdict.mechanism == "two-block-split"

    def test_isolated_block_grows_strictly(self):
        spec = interval_with_isolated_cell()
        tower = tower_complexes(spec, 3)
        ct = component_tower(tower, facts(tower))
        assert ct.counts == [2, 5, 14]
        assert ct.verdict.kind == "countably-infinite-plus"
        assert ct.verdict.mechanism == "isolated-block"
        assert "cell 1" in ct.verdict.detail

    def test_stabilized_table(self, bundled):
        tower = tower_complexes(bundled("finite-trivial").spec, 2, dim_cap=2)
        ct = component_tower(tower, facts(tower), assert_lx_connected=True)
        assert ct.hypothesis == "user-asserted"
        assert ct.verdict.kind == "finitely-many"
        assert ct.verdict.count == 3
        assert ct.verdict.mechanism == "stabilized-components"

    def test_hypothesis_gate_blocks_table_verdicts(self, bundled):
        # no lx-connectedness assertion: counts are reported, nothing concluded
        tower = tower_complexes(bundled("finite-cycle").spec, 2, dim_cap=4)
        ct = component_tower(tower, facts(tower))
        assert ct.hypothesis == "unverified"
        assert ct.verdict.kind == "growing-unknown"
        assert ct.verdict.mechanism == "hypothesis-unverified"
        assert ct.counts == [1, 1]

    def test_asserted_cycle_is_connected(self, bundled):
        tower = tower_complexes(bundled("finite-cycle").spec, 2, dim_cap=4)
        ct = component_tower(tower, facts(tower), assert_lx_connected=True)
        assert ct.verdict.kind == "connected"

    def test_pu_count_lower_bound(self, bundled):
        spec = bundled("gasket-sub-mixed").spec
        tower = tower_complexes(spec, 2)
        ct = component_tower(tower, facts(tower, postunbranched=True, n1_betti=(2, 1)))
        # m=7: stationary bound (7 - 2 + 1)/6 = 1 < 2 components
        assert ct.verdict.kind == "countably-infinite-plus"
        assert ct.verdict.mechanism == "pu-count-lower-bound"

    def test_pu_small_m_disconnected(self):
        # complete graph on five cells plus an isolated sixth: the count bound
        # is tight (2 = 2) so only the small-m mechanism applies
        edges = [[(a,), (b,)] for a in range(1, 6) for b in range(a + 1, 6)]
        spec = SystemSpec("smallm", "forward", 6, TableBackend(6, {1: edges}))
        tower = tower_complexes(spec, 1)
        ct = component_tower(tower, facts(tower, postunbranched=True, n1_betti=(2, 6)),
                             assert_lx_connected=True)
        assert ct.verdict.kind == "countably-infinite-plus"
        assert ct.verdict.mechanism == "pu-small-m-disconnected"

    def test_pu_escaped_bound_in_both_verdicts(self):
        # K5 on cells 1..5 plus an isolated sixth: a_{0,1} = 2 meets the
        # stationary bound (6 - 2 + 6)/5 = 2, but depth 2 has 8 components:
        # the copies of K5 in blocks 1..5 joined by the edges a1-b1, the
        # copy in block 6, and the six cells j6
        k5 = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
        levels = {1: [[(a,), (b,)] for a, b in k5],
                  2: [[(j, a), (j, b)] for j in range(1, 7) for a, b in k5]
                  + [[(a, 1), (b, 1)] for a, b in k5]}
        spec = SystemSpec("escaped", "forward", 6, TableBackend(6, levels))
        tower = tower_complexes(spec, 2, dim_cap=2)
        table = tower_analysis(tower, FieldKind(0), postunbranched=True)
        assert table.component_counts == [2, 8]
        assert table.verdicts[0].mechanism == "pu-escaped-bound"
        assert table.verdicts[0].status == "infinite"
        n1_betti = (table.a[(0, 1)], table.a[(1, 1)])
        ct = component_tower(tower, facts(tower, postunbranched=True, n1_betti=n1_betti),
                             assert_lx_connected=True)
        assert ct.verdict.mechanism == "pu-escaped-bound"
        assert ct.verdict.kind == "countably-infinite-plus"

    def test_single_level_gives_no_certificate(self, bundled):
        tower = tower_complexes(bundled("finite-trivial").spec, 1, dim_cap=2)
        ct = component_tower(tower, facts(tower), assert_lx_connected=True)
        assert ct.verdict.kind == "growing-unknown"
        assert ct.verdict.mechanism == "no-certificate"

    def test_uncertain_simplices_block_verdicts(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        maps = (RationalAffineMap(half, 0, 0, quarter, 0, 0),
                RationalAffineMap(half, 0, 0, quarter, quarter, quarter))
        envelope = ConvexPolygon.hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        spec = SystemSpec("slow", "forward", 2, GeometricBackend(maps, envelope))
        starved = Budget(refine_depth=0, cert_period_max=1, cert_preperiod_max=0)
        tower = tower_complexes(spec, 1, budget=starved)
        ct = component_tower(tower, facts(tower))
        assert ct.verdict.kind == "growing-unknown"
        assert ct.verdict.mechanism == "uncertain-simplices"
