"""Golden-output contract: `tower`, `classify` and `nerve` reports byte for byte.

Every bundled system's tower CSV and JSON report, the classify report of a
few systems that exercise each checker, the nerve JSON and DOT export of
four systems, the carpet's tower from a spec kept there, a derived system's
spec with its tower and nerve under a starved budget (the uncertain path),
and interval-overlap's nerve at dim cap 3, its starved tower, its second
iterate's spec and tower, and its tower over GF(2), at dim cap 1 and at
depth 1 are compared against fixtures in
tests/golden/.  A refactor that is meant to keep the command-line output must leave every fixture untouched;
an intended output change regenerates them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from nervetower import cli

GOLDEN = Path(__file__).parent / "golden"

_TOWER_DEPTHS = {
    "gasket": 4, "pentagasket": 4, "snowflake": 2, "gasket-sub7": 2,
    "gasket-sub-mixed": 2, "banded-annuli": 2, "finite-cycle": 2, "finite-trivial": 2,
}
# banded-annuli stores table data to depth 2 only
CLASSIFY_DEPTHS = {"gasket": 3, "banded-annuli": 2, "gasket-sub-mixed": 3, "interval-overlap": 3,
                   "snowflake": 2}
# deep towers, where most of each level is block copies of the level before;
# gasket and snowflake also pin the oracle's certified touching points there,
# and interval-overlap, whose crossings grow with depth, its segment meets;
# snowflake's depth 4 pins the crossing pairs of one-point meets one level further;
# snowflake's depth 6 and gasket's depth 11 pin the counts of deep one-point meets;
# gasket-sub7, gasket-sub-mixed, five-map-funnel and two-map-split pin them on
# every other certified postunbranched geometric system, as deep as each runs
DEEP_TOWERS = [("pentagasket", 6), ("gasket", 6), ("gasket", 11), ("snowflake", 3),
               ("snowflake", 4), ("snowflake", 6), ("interval-overlap", 5),
               ("gasket-sub7", 5), ("gasket-sub-mixed", 5), ("five-map-funnel", 7),
               ("two-map-split", 10)]
# The carpet (8 maps of ratio 1/3 on the unit square, the centre left out) is
# not postunbranched and its overlaps are segments: its tower pins the oracle
# generator with its one-point pruning.  Its spec is an input, not an output.
CARPET_SPEC = GOLDEN / "spec-carpet.json"
# one geometric system per oracle path, one symbolic and one table system;
# snowflake's depth 3 pins the exact crossing edges of depth-2 one-point meets
NERVE_DEPTHS = [("gasket", 3), ("snowflake", 2), ("snowflake", 3), ("pentagasket", 3),
                ("finite-cycle", 2)]
# A derived system under a starved budget: its levels keep uncertain tuples,
# and the tower sweeps certificates from depth 3 into depths 1 and 2.  Its
# spec is itself a fixture, the output of the `derive` case.
DERIVED = "interval-overlap-sub-11-33-32"
DERIVED_SPEC = GOLDEN / f"derive-{DERIVED}.json"
STARVED = ["--refine-depth", "0", "--cert-period", "1", "--cert-preperiod", "0"]
# interval-overlap's envelope is a segment that its depth-1 envelopes cover:
# its nerve at dim cap 3 (245 tetrahedra at depth 3), a starved tower, and the
# tower of its second iterate, whose spec is the output of the `derive` case
INTERVAL_NERVE = ("interval-overlap", 3, 3)
INTERVAL_STARVED_TOWER = ("interval-overlap", 4, 3)
ITERATE = "interval-overlap-iterate-2"
ITERATE_SPEC = GOLDEN / f"derive-{ITERATE}.json"
# interval-overlap's tower in its three shapes of exact dimensions: every
# dimension to the cap (over GF(2)), a_1 not exact (dim cap 1), and a_2 exact
# on the complete depth-1 nerve
INTERVAL_TOWERS = [("k4-gf2", ["--max-depth", "4", "--field", "gf2"]),
                   ("k3-cap1", ["--max-depth", "3", "--dim-cap", "1"]),
                   ("k1", ["--max-depth", "1"])]


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for name in cli.bundled_names():
        depth = _TOWER_DEPTHS.get(name, 3)
        cases.append((f"tower-{name}-k{depth}", ["tower", name, "--max-depth", str(depth)]))
    cases.extend((f"tower-{name}-k{depth}", ["tower", name, "--max-depth", str(depth)])
                 for name, depth in DEEP_TOWERS)
    cases.extend((f"classify-{name}", ["classify", name, "--max-depth", str(depth)])
                 for name, depth in CLASSIFY_DEPTHS.items())
    cases.extend((f"nerve-{name}-k{depth}", ["nerve", name, "--depth", str(depth)])
                 for name, depth in NERVE_DEPTHS)
    cases.append((f"derive-{DERIVED}", ["derive", "interval-overlap", "--subsystem", "11,33,32"]))
    cases.append((f"tower-{DERIVED}-starved-k3",
                  ["tower", str(DERIVED_SPEC), "--max-depth", "3"] + STARVED))
    cases.append((f"nerve-{DERIVED}-starved-k2",
                  ["nerve", str(DERIVED_SPEC), "--depth", "2"] + STARVED))
    cases.append(("tower-carpet-k3", ["tower", str(CARPET_SPEC), "--max-depth", "3"]))
    name, depth, cap = INTERVAL_NERVE
    cases.append((f"nerve-{name}-k{depth}-cap{cap}",
                  ["nerve", name, "--depth", str(depth), "--dim-cap", str(cap)]))
    name, depth, cap = INTERVAL_STARVED_TOWER
    cases.append((f"tower-{name}-starved-k{depth}-cap{cap}",
                  ["tower", name, "--max-depth", str(depth), "--dim-cap", str(cap)] + STARVED))
    cases.append((f"derive-{ITERATE}", ["derive", "interval-overlap", "--iterate", "2"]))
    cases.append((f"tower-{ITERATE}-k2", ["tower", str(ITERATE_SPEC), "--max-depth", "2"]))
    cases.extend((f"tower-interval-overlap-{suffix}", ["tower", "interval-overlap"] + flags)
                 for suffix, flags in INTERVAL_TOWERS)
    return cases


def _run(argv: list[str], out_dir: Path, case: str) -> dict[str, str]:
    """Run one command; return its outputs keyed by fixture file name."""
    if argv[0] == "nerve":
        extra = ["--out-json", str(out_dir / f"{case}.json"),
                 "--out-dot", str(out_dir / f"{case}.dot")]
    elif argv[0] == "derive":
        extra = ["--out", str(out_dir / f"{case}.json")]
    else:
        extra = ["--out-report", str(out_dir / f"{case}.json")]
    if argv[0] == "tower":
        extra += ["--out-csv", str(out_dir / f"{case}.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + extra)
    outputs = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(out_dir.glob(f"{case}.*"))}
    outputs[f"{case}.stdout"] = stdout.getvalue()
    outputs[f"{case}.exit"] = f"{code}\n"
    return outputs


@pytest.mark.parametrize("case,argv", _cases(), ids=[c for c, _ in _cases()])
def test_output_matches_golden(case, argv, tmp_path):
    for fname, text in _run(argv, tmp_path, case).items():
        expected = (GOLDEN / fname).read_text(encoding="utf-8")
        assert text == expected, f"{fname} differs from its golden copy"


def test_every_fixture_belongs_to_a_case():
    cases = {c for c, _ in _cases()}
    stray = [p.name for p in GOLDEN.iterdir()
             if p.name.rsplit(".", 1)[0] not in cases and p != CARPET_SPEC]
    assert stray == []


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        if old != CARPET_SPEC:
            old.unlink()
    for case, argv in _cases():
        for fname, text in _run(argv, GOLDEN, case).items():
            (GOLDEN / fname).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
