"""End-to-end acceptance checks: ten criteria, exact integer expectations.

Each test prints one "criterion NN: PASS/FAIL" line.  Expected numbers are
exact; runtime bounds are asserted with wall-clock measurements around the
full computation for that criterion.
"""

import json
import time
from contextlib import contextmanager

import pytest

from nervetower import cli
from nervetower.classify import (check_h1_infinite_conditions,
                                 check_postunbranched,
                                 check_singleton_overlaps, verify_puthm)
from nervetower.components import component_tower, components, dim0_facts
from nervetower.homology import (FieldKind, betti, betti_exact, induced_rank,
                                 tower_analysis)
from nervetower.nerve import build_nerve, tower_complexes, truncation_map
from nervetower.oracles import (Budget, SymbolicPUBackend, SystemSpec,
                                cells_intersect)
from nervetower.words import Address, Word, enumerate_words

from support.complexes import edge_sets, euler_characteristic, simplex_word_sets
from support.full_tower import truncation
from support.linalg_oracle import induced_rank_oracle

Q = FieldKind(0)
GF2 = FieldKind(2)


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n:02d} ({label}): FAIL")
        raise
    print(f"criterion {n:02d} ({label}): PASS")


@pytest.fixture(scope="module")
def gasket_tower_q(bundled):
    spec = bundled("gasket").spec
    tower = tower_complexes(spec, 5, dim_cap=2)
    table = tower_analysis(tower, Q, postunbranched=True)
    return tower, table


# per-spec tower depth for the property suite: deep enough to exercise the
# maps, shallow enough to keep the whole suite under a minute
SUITE_DEPTHS = {
    "banded-annuli": 2, "finite-cycle": 2, "finite-trivial": 2,
    "gasket": 3, "gasket-sub-mixed": 2, "gasket-sub7": 2,
    "five-map-funnel": 2, "interval-overlap": 3, "pentagasket": 3,
    "simplex-boundary-1": 3, "simplex-boundary-2": 3, "simplex-boundary-3": 2,
    "simplex-boundary-4": 2, "snowflake": 2, "two-map-split": 3,
}

SUITE_DIM_CAPS = {"finite-cycle": 5, "simplex-boundary-2": 3,
                  "simplex-boundary-3": 4, "simplex-boundary-4": 5,
                  "banded-annuli": 3, "interval-overlap": 4}


@pytest.fixture(scope="module")
def suite_towers(bundled):
    towers = {}
    for name in cli.bundled_names():
        spec = bundled(name).spec
        towers[name] = tower_complexes(spec, SUITE_DEPTHS[name],
                                       dim_cap=SUITE_DIM_CAPS.get(name, 2))
    return towers


def test_criterion_01_gasket_tower(gasket_tower_q, bundled):
    with criterion(1, "gasket tower"):
        start = time.monotonic()
        tower, table = gasket_tower_q
        table2 = tower_analysis(tower, GF2, postunbranched=True)
        elapsed = time.monotonic() - start
        for t in (table, table2):
            assert t.sequence(1) == [1, 4, 13, 40, 121]
            assert t.sequence(2) == [0, 0, 0, 0, 0]
            assert t.component_counts == [1, 1, 1, 1, 1]
        assert elapsed < 60.0


def test_criterion_02_snowflake(bundled):
    with criterion(2, "snowflake tower"):
        start = time.monotonic()
        table = tower_analysis(tower_complexes(bundled("snowflake").spec, 3, dim_cap=2), Q)
        elapsed = time.monotonic() - start
        assert table.sequence(1) == [6, 48, 342]
        assert elapsed < 120.0


def test_criterion_03_pentagasket(bundled):
    with criterion(3, "pentagasket tower"):
        start = time.monotonic()
        table = tower_analysis(tower_complexes(bundled("pentagasket").spec, 4, dim_cap=2), Q)
        elapsed = time.monotonic() - start
        assert table.sequence(1) == [1, 6, 31, 156]
        assert elapsed < 10.0


def test_criterion_04_seven_cell_subsystem(tmp_path):
    with criterion(4, "7-cell gasket subsystem"):
        out = tmp_path / "sub7.json"
        assert cli.main(["derive", "gasket",
                         "--subsystem", "11,13,22,23,31,32,33",
                         "--name", "sub7", "--out", str(out)]) == 0
        loaded = cli.parse_spec(json.loads(out.read_text()))
        n1 = build_nerve(loaded.spec, 1)
        assert edge_sets(n1) == {frozenset(e) for e in
                                 [(0, 1), (1, 4), (2, 3), (3, 5),
                                  (4, 5), (4, 6), (5, 6)]}
        table = tower_analysis(tower_complexes(loaded.spec, 3, dim_cap=2), Q)
        assert table.sequence(1) == [1, 8, 57]


def test_criterion_05_mixed_subsystem(tmp_path):
    with criterion(5, "mixed gasket subsystem"):
        out = tmp_path / "mixed.json"
        assert cli.main(["derive", "gasket",
                         "--subsystem", "11,12,21,22,31,32,33",
                         "--name", "mixed", "--out", str(out)]) == 0
        report = tmp_path / "mixed-report.json"
        assert cli.main(["tower", str(out), "--max-depth", "3",
                         "--out-csv", str(tmp_path / "mixed.csv"),
                         "--out-report", str(report)]) == 0
        doc = json.loads(report.read_text())
        counts = doc["component_counts"]
        assert counts == [2, 8, 50]
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert doc["component_verdict"]["kind"] == "countably-infinite-plus"
        assert doc["a"]["1"][0] == 1


def test_criterion_06_funnel_collapse(bundled):
    with criterion(6, "5-map collapse system"):
        spec = bundled("five-map-funnel").spec
        rep = check_postunbranched(spec)
        assert rep.status == "postunbranched"
        tower = tower_complexes(spec, 2, dim_cap=2)
        assert betti(tower.complex_at(1), Q, 1) >= 1
        assert induced_rank(truncation(tower.complex_at(2), tower.complex_at(1)), 1, Q) == 0
        table = tower_analysis(tower_complexes(spec, 3, dim_cap=2), Q, postunbranched=True)
        thm = verify_puthm(table)
        assert thm.passed
        assert any("first cohomology is 0" in p for p in thm.predictions)


def test_criterion_07_simplex_boundaries(bundled):
    with criterion(7, "simplex boundary family"):
        start = time.monotonic()
        for n in (2, 3):
            spec = bundled(f"simplex-boundary-{n}").spec
            assert check_postunbranched(spec).status == "postunbranched"
            table = tower_analysis(tower_complexes(spec, 3, dim_cap=n + 1), Q,
                                   postunbranched=True)
            seq = table.sequence(n)
            assert seq[0] == 1
            assert all(seq[k] == (n + 2) * seq[k - 1] + 1 for k in (1, 2))
            assert table.verdicts[n].status == "infinite"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0


def test_criterion_08_pivot_conditions(gasket_tower_q, bundled):
    with criterion(8, "rank growth conditions"):
        for name in ("gasket", "banded-annuli"):
            spec = bundled(name).spec
            rep = check_h1_infinite_conditions(spec, 1)
            assert all(c.ok for c in rep.conditions.values()), name
            assert rep.conclusion
            assert "infinite rank" in rep.detail
        _, table = gasket_tower_q
        a1 = table.sequence(1)
        assert all(x < y for x, y in zip(a1, a1[1:]))


def test_criterion_09_property_suite(bundled, suite_towers):
    with criterion(9, "property suite"):
        fields = (Q, GF2)

        for name, tower in suite_towers.items():
            # truncation maps are simplicial (checked in truncation_map) and
            # surjective whenever nothing was uncertain; the tower's levels
            # are swept already, so each check returns its target as it is
            for long, short in zip(tower.complexes[1:], tower.complexes):
                assert truncation_map(long, short) is short, name

            # a connected base propagates to every depth
            levels = [components(c) for c in tower.complexes]
            if levels[0].count == 1:
                assert all(lv.count == 1 for lv in levels), name

            for c in tower.complexes:
                if c.complete:
                    for fk in fields:
                        alternating = sum((-1) ** r * betti(c, fk, r)
                                          for r in range(c.dim_cap + 1)
                                          if betti_exact(c, r))
                        assert alternating == euler_characteristic(c), name

            # induced rank through homology equals the dual cochain route
            for k in range(2, tower.depth + 1):
                smap = truncation(tower.complex_at(k), tower.complex_at(1))
                if betti_exact(smap.source, 1) and betti_exact(smap.target, 1):
                    for fk in fields:
                        assert induced_rank(smap, 1, fk) == \
                            induced_rank_oracle(smap, 1, fk.char), name

        # geometric and symbolic descriptions of the gasket agree to depth 4
        gasket = bundled("gasket").spec
        addr = {pair: Address(Word((), 3), Word((s,), 3))
                for pair, s in {(1, 2): 2, (2, 1): 1, (1, 3): 3,
                                (3, 1): 1, (2, 3): 3, (3, 2): 2}.items()}
        twin = SystemSpec("twin", "forward", 3,
                          SymbolicPUBackend(3, [[1, 2], [1, 3], [2, 3]], addr))
        for k in range(1, 5):
            got = simplex_word_sets(build_nerve(twin, k))
            expected = simplex_word_sets(build_nerve(gasket, k))
            assert got == expected, k

        # a certified verdict never flips when the budget grows
        tiny = Budget(refine_depth=1, cert_period_max=1, cert_preperiod_max=0)
        for name in ("gasket", "two-map-split", "interval-overlap",
                     "five-map-funnel"):
            spec = bundled(name).spec
            words = enumerate_words(spec.m, 1) + enumerate_words(spec.m, 2)
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    if len(words[i]) != len(words[j]):
                        continue
                    small = cells_intersect(spec, [words[i], words[j]], tiny)
                    if small.kind == "unknown":
                        continue
                    big = cells_intersect(spec, [words[i], words[j]])
                    assert big.kind == small.kind, (name, words[i], words[j])

        # certified singleton overlaps kill r >= 2 and force m-fold a_1 growth
        for name, tower in suite_towers.items():
            spec = bundled(name).spec
            if not spec.is_geometric:
                continue
            if not check_singleton_overlaps(spec).all_small:
                continue
            m = spec.m
            a1 = []
            for c in tower.complexes:
                for r in range(2, c.dim_cap + 1):
                    if betti_exact(c, r):
                        for fk in fields:
                            assert betti(c, fk, r) == 0, (name, r)
                a1.append(betti(c, Q, 1))
            for x, y in zip(a1, a1[1:]):
                assert m * x <= y, name


def test_criterion_10_two_map_split(bundled):
    with criterion(10, "two-map split"):
        spec = bundled("two-map-split").spec
        tower = tower_complexes(spec, 4)
        ct = component_tower(tower, dim0_facts(tower, assert_injective=False,
                                               postunbranched=None, n1_betti=None))
        assert ct.counts == [2, 4, 8, 16]
        assert ct.verdict.kind == "uncountable"
