"""Certification layer: overlap addresses, singletons, pivot conditions, identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nervetower import cli, oracles
from nervetower.classify import (check_h1_infinite_conditions,
                                 check_postunbranched,
                                 check_singleton_overlaps, verify_puthm)
from nervetower.exactgeom import ConvexPolygon, Point2, RationalAffineMap
from nervetower.homology import FieldKind, tower_analysis
from nervetower.nerve import build_iterate_or_subsystem, iterate_system, tower_complexes
from nervetower.oracles import (Budget, GeometricBackend, SpecError, SystemSpec,
                                point_in_cell)
from nervetower.words import Word, enumerate_words
from support.singleton_refine import singleton_status

Q = FieldKind(0)


def P(x, y):
    return Point2(Fraction(x), Fraction(y))


def slow_spec():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    maps = (RationalAffineMap(half, 0, 0, quarter, 0, 0),
            RationalAffineMap(half, 0, 0, quarter, quarter, quarter))
    envelope = ConvexPolygon.hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    return SystemSpec("slow", "forward", 2, GeometricBackend(maps, envelope))


STARVED = Budget(refine_depth=0, cert_period_max=1, cert_preperiod_max=0)


class TestPostunbranched:
    def test_gasket_certified(self, gasket):
        rep = check_postunbranched(gasket, depth=4)
        assert rep.status == "postunbranched"
        assert rep.mechanism == "checked-to-depth"
        assert rep.pairs[(1, 2)].status == "ok"
        assert rep.pairs[(1, 2)].prefix is not None
        assert len(rep.pairs) == 6  # ordered pairs

    def test_funnel_certified_with_empty_pairs(self, bundled):
        rep = check_postunbranched(bundled("five-map-funnel").spec, depth=5)
        assert rep.status == "postunbranched"
        assert rep.pairs[(1, 2)].status == "empty"
        assert rep.pairs[(3, 4)].status == "ok"

    def test_fat_overlap_refuted(self, bundled):
        rep = check_postunbranched(bundled("interval-overlap").spec, depth=3)
        assert rep.status == "not-postunbranched"
        assert rep.mechanism == "branching-witness"
        assert "pulls back into depth-1 cells" in rep.witness
        stats = {p: r.status for p, r in rep.pairs.items()}
        assert stats[(1, 2)] == "violated"
        assert stats[(1, 3)] == "ok"  # the corner touch itself is unbranched
        assert stats[(2, 3)] == "violated"

    def test_symbolic_by_construction(self, bundled):
        rep = check_postunbranched(bundled("pentagasket").spec, depth=4)
        assert rep.status == "postunbranched"
        assert rep.mechanism == "by-construction"
        assert rep.pairs[(1, 2)].address is not None

    def test_table_has_no_geometry(self, bundled):
        rep = check_postunbranched(bundled("finite-cycle").spec)
        assert rep.status == "unknown"
        assert rep.mechanism == "no-geometry"

    def test_starved_budget_is_unknown(self):
        rep = check_postunbranched(slow_spec(), depth=2, budget=STARVED)
        assert rep.status == "unknown"
        assert rep.mechanism == "budget-exhausted"

    def test_depth_validation(self, gasket):
        with pytest.raises(SpecError):
            check_postunbranched(gasket, depth=0)


class TestSingletonOverlaps:
    def test_gasket_all_singletons(self, gasket):
        rep = check_singleton_overlaps(gasket)
        assert rep.all_small
        assert set(rep.pairs.values()) == {"singleton"}

    def test_interval_mixed(self, bundled):
        spec = bundled("interval-overlap").spec
        rep = check_singleton_overlaps(spec)
        assert rep.pairs[(1, 3)] == "singleton"
        assert rep.pairs[(1, 2)] == "several"  # a segment: two certified points refute it
        assert not rep.all_small
        assert rep.witnesses[(1, 2)] == (P("1/4", 0), P("7/24", 0))
        assert sorted(rep.witnesses) == [(1, 2), (2, 3)]
        for (i, j), points in rep.witnesses.items():
            for p in points:
                assert [point_in_cell(spec, p, Word((k,), 3)) for k in (i, j)] == ["yes", "yes"]

    def test_starved_budget_still_refutes_fat_pairs(self, bundled):
        starved = Budget(cert_period_max=1, cert_preperiod_max=0)
        rep = check_singleton_overlaps(bundled("interval-overlap").spec, starved)
        assert rep.pairs == {(1, 2): "several", (1, 3): "singleton", (2, 3): "several"}

    def test_disjoint_cells_count_as_small(self, bundled):
        rep = check_singleton_overlaps(bundled("two-map-split").spec)
        assert rep.pairs == {(1, 2): "empty"}
        assert rep.all_small

    def test_needs_geometry(self, bundled):
        with pytest.raises(SpecError):
            check_singleton_overlaps(bundled("finite-cycle").spec)


def test_interval_overlap_singleton_refinement_calls(monkeypatch):
    """Fat overlaps are refuted from two certified points, not refined to the
    frontier cap: refining them clipped 5,463 envelope meets (the singleton
    refinement's `oracles._envelope_meet`, through `common_region`) and made
    27,060 common_point_exists calls (the refinement step `oracles._refine`
    makes the latter, as do the oracle's queries)."""
    spec = cli.load_bundled("interval-overlap").spec
    calls = {"common_region": 0, "common_point_exists": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("common_region", "common_point_exists"):
        monkeypatch.setattr(oracles, name, counting(oracles, name))
    rep = check_singleton_overlaps(spec)
    assert rep.pairs == {(1, 2): "several", (1, 3): "singleton", (2, 3): "several"}
    assert calls["common_region"] < 100
    assert calls["common_point_exists"] < 100


WORDS2 = enumerate_words(3, 2)


@st.composite
def derived_systems(draw):
    """Subsystems of interval-overlap and of the gasket on depth-2 words, and
    the second iterate of interval-overlap, whose fat pairs multiply."""
    name = draw(st.sampled_from(["interval-overlap", "gasket"]))
    spec = cli.load_bundled(name).spec
    if name == "interval-overlap" and draw(st.booleans()):
        return iterate_system(spec, 2)
    words = draw(st.lists(st.sampled_from(WORDS2), min_size=2, max_size=5, unique=True))
    return build_iterate_or_subsystem(spec, words)


@settings(max_examples=20, deadline=None)
@given(derived_systems(), st.integers(min_value=2, max_value=3), st.data())
def test_singletons_match_the_refinement_reference(spec, refine_depth, data):
    """The two-point refutation answers what refinement alone answers, with
    `several` read as unknown, and each witness is certified in both cells.
    A `several` pair costs the reference about a second, so one of them is
    drawn for it; every other pair is checked."""
    budget = Budget(refine_depth=refine_depth)
    rep = check_singleton_overlaps(spec, budget)
    several = sorted(p for p, s in rep.pairs.items() if s == "several")
    checked = [p for p in sorted(rep.pairs) if p not in several]
    if several:
        checked.append(data.draw(st.sampled_from(several)))
    for i, j in checked:
        status = rep.pairs[(i, j)]
        assert ("unknown" if status == "several" else status) == \
            singleton_status(spec, i, j, budget)
    assert sorted(rep.witnesses) == several
    for (i, j), points in rep.witnesses.items():
        assert len(set(points)) == 2
        for p in points:
            for k in (i, j):
                assert point_in_cell(spec, p, Word((k,), spec.m), budget) == "yes"


class TestPivotConditions:
    def test_banded_annuli_pivot_one(self, bundled):
        rep = check_h1_infinite_conditions(bundled("banded-annuli").spec, 1)
        assert all(c.ok for c in rep.conditions.values())
        assert rep.conclusion and not rep.conditional

    def test_gasket_pivot_one(self, gasket):
        rep = check_h1_infinite_conditions(gasket, 1)
        assert rep.conclusion

    def test_pentagasket_lacks_a_short_cycle(self, bundled):
        rep = check_h1_infinite_conditions(bundled("pentagasket").spec, 1)
        assert rep.conditions["base-connected"].ok
        assert rep.conditions["pivot-block-isolated"].ok
        assert not rep.conditions["pivot-cycle"].ok
        assert not rep.conclusion

    def test_funnel_disconnected_base(self, bundled):
        rep = check_h1_infinite_conditions(bundled("five-map-funnel").spec, 3)
        assert not rep.conditions["base-connected"].ok
        assert not rep.conclusion

    def test_pivot_range_checked(self, gasket):
        with pytest.raises(SpecError):
            check_h1_infinite_conditions(gasket, 0)
        with pytest.raises(SpecError):
            check_h1_infinite_conditions(gasket, 4)

    def test_uncertain_makes_it_conditional(self):
        rep = check_h1_infinite_conditions(slow_spec(), 1, budget=STARVED)
        assert rep.conditional
        assert not rep.conclusion


class TestVerifyIdentities:
    def test_not_applicable_without_certificate(self, gasket):
        table = tower_analysis(tower_complexes(gasket, 3, dim_cap=2), Q)
        tc = verify_puthm(table)
        assert not tc.applicable
        assert tc.passed is None

    def test_gasket_identities(self, gasket):
        table = tower_analysis(tower_complexes(gasket, 4, dim_cap=2), Q, postunbranched=True)
        tc = verify_puthm(table)
        assert tc.applicable and tc.passed
        names = [c.name for c in tc.checks]
        assert names == ["higher-recurrence-r2", "a1-lambda-recurrence",
                         "a0-lambda-recurrence", "combined-recurrence",
                         "a1-sandwich", "a0-sandwich", "lambda-chain",
                         "connected-lambda-constant", "finite-limit-identity"]
        assert any("limit a_1 is infinite" in p for p in tc.predictions)
        assert any("3/2 is not an integer" in p for p in tc.predictions)

    def test_funnel_identities_and_collapse(self, bundled):
        table = tower_analysis(tower_complexes(bundled("five-map-funnel").spec, 3, dim_cap=2),
                               Q, postunbranched=True)
        tc = verify_puthm(table)
        assert tc.passed
        assert len(tc.checks) == 7  # no connected or finite-limit lines here
        assert any("first cohomology is 0" in p for p in tc.predictions)
        assert table.verdicts[1].status == "finite"
        assert table.verdicts[1].value == 0
        assert table.b1_infinity.status == "finite"
        assert table.b1_infinity.value == 0

    def test_mixed_subsystem_identities(self, bundled):
        table = tower_analysis(tower_complexes(bundled("gasket-sub-mixed").spec, 2, dim_cap=2),
                               Q, postunbranched=True)
        tc = verify_puthm(table)
        assert tc.passed
        assert table.sequence(1) == [1, 7]
        assert table.sequence(0) == [2, 8]
        assert any("exceeds the stationary bound 1" in p for p in tc.predictions)
        assert table.verdicts[0].status == "infinite"
        assert table.verdicts[0].mechanism == "pu-count-lower-bound"

    def test_corrupted_table_fails_identities(self, gasket):
        table = tower_analysis(tower_complexes(gasket, 3, dim_cap=2), Q, postunbranched=True)
        table.a[(1, 2)] = 5  # true value is 4
        tc = verify_puthm(table)
        assert tc.passed is False
        failing = {c.name for c in tc.checks if not c.ok}
        assert "a1-lambda-recurrence" in failing
        assert "a1-sandwich" in failing
        assert tc.note != ""


class TestLimitVerdicts:
    def test_gasket_limits(self, gasket):
        table = tower_analysis(tower_complexes(gasket, 4, dim_cap=2), Q, postunbranched=True)
        assert table.verdicts[0].status == "finite"
        assert table.verdicts[0].value == 1
        assert table.verdicts[1].status == "infinite"
        assert table.verdicts[1].mechanism == "pu-connected-growth"
        assert table.verdicts[2].status == "finite"
        assert table.verdicts[2].value == 0
        assert table.b1_infinity.status == "finite"
        assert table.b1_infinity.value == 1

    def test_without_certificate_limits_stay_unknown(self, gasket):
        table = tower_analysis(tower_complexes(gasket, 3, dim_cap=2), Q)
        assert table.verdicts[1].status in ("unknown", "infinite")
        # a_0 limit only needs connectedness, which is unconditional here
        assert table.verdicts[0].status == "finite"
