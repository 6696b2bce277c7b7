"""Copy-built levels read only what each level adds: the recurrences for
counts, ranks, components and parents against the full reference, and count
guards on what a deep symbolic tower reads.  Envelope-exact towers take
their numbers from the nerve theorem; they are checked against the same
reference, and guarded to reduce no boundary."""

import importlib
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervetower import cli, homology, nerve, oracles
from nervetower.components import ComponentsLevel, component_tower, dim0_facts
from nervetower.homology import FieldKind, tower_analysis
from nervetower.nerve import SimplicialComplex, tower_complexes
from nervetower.oracles import Budget, ConsistencyError
from support.full_tower import labels, reference_numbers, reference_tower
from test_acceptance import SUITE_DEPTHS, SUITE_DIM_CAPS
from test_classify import derived_systems
from test_nerve import LICENSED_SEGMENTS, SEGMENT_SPECS, covering_systems

FIELDS = (FieldKind(0), FieldKind(2))

RECURRENCE_DEPTHS = {
    "pentagasket": 4, "gasket": 4, "snowflake": 2, "five-map-funnel": 3,
    "two-map-split": 5, "simplex-boundary-1": 4, "simplex-boundary-2": 3,
    "simplex-boundary-3": 3, "simplex-boundary-4": 3, "interval-overlap": 4,
}


def assert_recurrences_match_reference(spec, depth, dim_cap):
    """Counts, every a_{r,k}, lambda_k, components, labels and parents of
    the tower against `reference_numbers` of the full reference tower."""
    tower = tower_complexes(spec, depth, dim_cap)
    reference = reference_tower(spec, depth, dim_cap, Budget())
    for fieldkind in FIELDS:
        table = tower_analysis(tower, fieldkind)
        want = reference_numbers(reference, fieldkind)
        assert [c.simplex_counts() for c in tower.complexes] == want["counts"]
        assert table.a == want["a"]
        assert table.lam == want["lambda"]
        assert [(lv.count, labels(lv)) for lv in tower.components] == want["components"]
        assert table.facts.counts == [count for count, _labels in want["components"]]
        assert table.facts.parents == want["parents"]


@pytest.mark.parametrize("name", sorted(RECURRENCE_DEPTHS))
def test_bundled_systems_match_the_full_reference(name):
    assert_recurrences_match_reference(cli.load_bundled(name).spec, RECURRENCE_DEPTHS[name],
                                       SUITE_DIM_CAPS.get(name, 2))


@settings(max_examples=15, deadline=None)
@given(derived_systems())
def test_derived_systems_match_the_full_reference(spec):
    assert_recurrences_match_reference(spec, 3 if spec.m <= 5 else 2, 2)


@settings(max_examples=15, deadline=None)
@given(covering_systems(), st.integers(1, 4), st.sampled_from([1, 2, 3]))
def test_covering_systems_match_the_full_reference(spec, depth, dim_cap):
    """The nerve-theorem table against full reduction, at depths 1..4 where
    the tower has at most 3^5 cells (the iterate, m = 9, stops at depth 2)."""
    assert oracles.envelope_exact(spec)
    while spec.m ** depth > 3 ** 5:
        depth -= 1
    assert_recurrences_match_reference(spec, depth, dim_cap)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("name", LICENSED_SEGMENTS)
def test_licensed_segments_match_the_full_reference(name, depth):
    spec = SEGMENT_SPECS[name]()
    assert oracles.envelope_exact(spec)
    assert_recurrences_match_reference(spec, depth, 2)


def test_pentagasket_depth6_reads_only_what_levels_add(monkeypatch, tmp_path):
    """`tower pentagasket --max-depth 6` builds no vertex tuple and expands no
    simplex of depths 2..6 (the tower held 19,530 vertex tuples and 43,925
    simplices)."""
    expanded = []
    original = SimplicialComplex.simplices_of

    def recording(self, dim):
        if dim == 0 or self.level > 1:
            expanded.append((self.level, dim))
        return original(self, dim)

    monkeypatch.setattr(SimplicialComplex, "simplices_of", recording)
    assert cli.main(["tower", "pentagasket", "--max-depth", "6",
                     "--out-csv", str(tmp_path / "t.csv"),
                     "--out-report", str(tmp_path / "t.json")]) == cli.EXIT_OK
    assert expanded == []


def test_interval_overlap_depth6_reduces_no_boundary(monkeypatch, tmp_path):
    """`tower interval-overlap --max-depth 6` takes its table from the nerve
    theorem: no column reduction and no simplex of depths 2..6 expanded (at
    depth 5 the reduction path made 9 and 26)."""
    reductions, expanded = [], []
    reduce_, simplices_of = homology._reduce, SimplicialComplex.simplices_of

    def counting_reduce(columns, char):
        reductions.append(len(columns))
        return reduce_(columns, char)

    def recording(self, dim):
        if self.level > 1:
            expanded.append((self.level, dim))
        return simplices_of(self, dim)

    monkeypatch.setattr(homology, "_reduce", counting_reduce)
    monkeypatch.setattr(SimplicialComplex, "simplices_of", recording)
    assert cli.main(["tower", "interval-overlap", "--max-depth", "6",
                     "--out-csv", str(tmp_path / "t.csv"),
                     "--out-report", str(tmp_path / "t.json")]) == cli.EXIT_OK
    assert (reductions, expanded) == ([], [])


@pytest.mark.parametrize("dim_cap", [2, 3])
def test_interval_overlap_depth6_maps_no_image(monkeypatch, dim_cap):
    """A licensed tower stays implicit through `tower_complexes`,
    `tower_analysis` and `component_tower`: truncation checks the nesting
    of the intervals and forms no image, the components come from the
    sweep's coverage with no union-find, and every level stands alone, with
    no block source and no stored simplex (listing them, the levels stored
    74,260 crossing triangles at dim cap 2, and truncation formed 79,724
    images; storing the crossing edges, 5,468 of them).  Each level's
    crossing pairs are its cover's pairs of blocks, N_1's edges, at the
    blocks' first vertices."""
    components_module = importlib.import_module("nervetower.components")
    images, finds, listed = [], [], []
    truncate, union_find = nerve._truncate, components_module.UnionFind
    simplices_of = SimplicialComplex.simplices_of

    def recording(self, dim):
        if dim > 1:
            listed.append((self.level, dim))
        return simplices_of(self, dim)

    monkeypatch.setattr(nerve, "_truncate", lambda s, ratio: images.append(s) or truncate(s, ratio))
    monkeypatch.setattr(components_module, "UnionFind", lambda n: finds.append(n) or union_find(n))
    monkeypatch.setattr(SimplicialComplex, "simplices_of", recording)
    tower = tower_complexes(cli.load_bundled("interval-overlap").spec, 6, dim_cap)
    table = tower_analysis(tower, FieldKind(0))
    assert component_tower(tower, table.facts).counts == [1] * 6
    assert (images, finds, listed) == ([], [], [])
    assert [(c.added, c.block_source, c.uncertain) for c in tower.complexes] == \
        [({}, None, ())] * 6
    assert [lv.crossing for lv in tower.components] == \
        [tuple((j * lv.block, k * lv.block) for j, k in c.cover.crossing)
         for lv, c in zip(tower.components, tower.complexes)]
    assert [len(lv.crossing) for lv in tower.components] == \
        [tower.complex_at(1).simplex_counts()[1]] * 6


def traced_interval_overlap_tower(capsys, depth):
    """The last CSV row and the traced peak of `tower interval-overlap
    --max-depth depth`, run in-process under `tracemalloc`."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert cli.main(["tower", "interval-overlap", "--max-depth", str(depth)]) == cli.EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return capsys.readouterr().out.splitlines()[-1], peak


def test_interval_overlap_depth8_in_little_memory(capsys):
    """`tower interval-overlap --max-depth 8` in-process, traced: its levels
    hold their intervals and counts only, and the traced peak stays under
    40 MiB (listing every triangle, the run peaked at 411 MiB resident)."""
    row, peak = traced_interval_overlap_tower(capsys, 8)
    assert row == "8,1,0,,0,1"
    assert peak < 40 * 2 ** 20


def test_interval_overlap_depth9_in_little_memory(capsys):
    """`tower interval-overlap --max-depth 9` in-process, traced: no level
    stores an edge, nor lists one pair of blocks per edge, so the traced
    peak stays under 7 MiB (storing the crossing edges of each level, it
    was 42.1 MiB; listing a pair of blocks per crossing edge, 9.7 MiB)."""
    row, peak = traced_interval_overlap_tower(capsys, 9)
    assert row == "9,1,0,,0,1"
    assert peak < 7 * 2 ** 20


@pytest.mark.parametrize("depth", [1, 2])
def test_a_licensed_tower_in_two_components_is_inconsistent(depth):
    """The nerve theorem makes every envelope-exact nerve connected, so a
    union-find count of 2 at one depth is a contradiction, also at depth 1,
    which the component checks take as given."""
    tower = tower_complexes(cli.load_bundled("interval-overlap").spec, 2, 2)
    level = tower.components[depth - 1]
    tower.components[depth - 1] = ComponentsLevel(2, *level._astuple()[1:])
    with pytest.raises(ConsistencyError, match="envelope-exact nerve must be connected"):
        tower_analysis(tower, FieldKind(0))


def test_a_swept_gap_is_inconsistent(monkeypatch):
    """Forced through the sweep, the gap spec's depth-1 intervals [0, 4],
    [3, 6] and [8, 12] over 12 leave (1/2, 2/3) uncovered: the sweep refuses
    the first level, before any level is taken as one component by
    coverage."""
    monkeypatch.setattr(oracles, "envelope_exact", lambda spec: True)
    spec = SEGMENT_SPECS["gap"]()
    assert oracles.interval_ends(spec, 1) == [(0, 4), (3, 6), (8, 12)]
    with pytest.raises(ConsistencyError, match=re.escape(
            "the depth-1 intervals of the envelope-exact system 'gap' leave a gap before "
            "vertex 2")):
        tower_complexes(spec, 3, 2)


@pytest.mark.parametrize("name,depth", [("pentagasket", 6), ("two-map-split", 6)])
def test_dim0_facts_looks_up_one_parent_per_component(monkeypatch, name, depth):
    """One lookup per component of depths 2..depth (one per vertex made
    19,525 for pentagasket): 5 for pentagasket, whose every depth is
    connected, and 124 for two-map-split, whose every cell is a component."""
    tower = tower_complexes(cli.load_bundled(name).spec, depth)
    lookups = []
    original = ComponentsLevel.label

    def counting(self, v):
        lookups.append(v)
        return original(self, v)

    monkeypatch.setattr(ComponentsLevel, "label", counting)
    facts = dim0_facts(tower, assert_injective=False, postunbranched=None, n1_betti=None)
    assert len(lookups) == sum(facts.counts[1:])


@pytest.mark.parametrize("name", sorted(SUITE_DEPTHS))
def test_counts_are_those_of_the_expanded_simplices(name):
    spec = cli.load_bundled(name).spec
    tower = tower_complexes(spec, SUITE_DEPTHS[name], SUITE_DIM_CAPS.get(name, 2))
    for c in tower.complexes:
        assert c.simplex_counts() == {dim: len(sims) for dim, sims in c.simplices.items()}
