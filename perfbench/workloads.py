"""The benchmark's workloads: one fixed CLI command each, and its expected output.

Every expectation below is written from the mathematics of the bundled system,
not captured from the program: closed forms for the interaction numbers a_1,
a_0 = 1 and one component at every depth, a constant induced rank lambda, and
the limit verdicts and mechanisms the certificates license.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class TowerExpectation:
    depth: int
    a1: Callable[[int], int]  # a_1 at depth k, from its closed form
    lam: int  # lambda_k for every k >= 2
    component: tuple[str, str]  # (kind, mechanism) of the component verdict


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # nervetower argv, without --out-report
    why: str
    tower: Optional[TowerExpectation] = None  # None for the classify workload


# Recorded for all three towers: connected at depth 1, a_1 growing by the
# factor m (so b_1 of the limit is infinite), no triple overlaps (a_2 = 0),
# and lambda stabilizing on the last two depths.
_TOWER_LIMITS = {
    "0": ("finite", 1, "connected-base"),
    "1": ("infinite", None, "pu-connected-growth"),
    "2": ("finite", 0, "pu-support-vanishes"),
}

WORKLOADS = {w.name: w for w in (
    Workload(
        "tower-gasket", ("tower", "gasket", "--max-depth", "6"),
        "oracle rejection path: ~300k all-pairs cells_intersect queries, almost all "
        "refuted on envelopes, for 1,092 depth-6 edges",
        TowerExpectation(6, lambda k: (3 ** k - 1) // 2, 1, ("connected", "connected-base"))),
    Workload(
        "tower-snowflake", ("tower", "snowflake", "--max-depth", "3"),
        "oracle certification path: most time maps the tail table through each "
        "word's map in Fractions (_word_points)",
        TowerExpectation(3, lambda k: 7 ** k - 1, 6, ("connected", "connected-base"))),
    Workload(
        "tower-pentagasket", ("tower", "pentagasket", "--max-depth", "6"),
        "homology layer: symbolic nerves, so no oracle work; most time is boundary "
        "reduction over Q plus truncation maps",
        TowerExpectation(6, lambda k: (5 ** k - 1) // 4, 1,
                         ("growing-unknown", "hypothesis-unverified"))),
    Workload(
        "classify-interval", ("classify", "interval-overlap"),
        "classify layer: singleton-overlap refinement up to its 4096 frontier; nerve "
        "and homology nearly idle"),
)}


def check_output(workload: Workload, exit_code: Optional[int], stdout: str,
                 report: Optional[dict]) -> list[str]:
    """Everything wrong with one operation's output; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    if report is None:
        return ["no JSON report written"]
    if workload.tower is None:
        return _check_interval(stdout, report)
    return _check_tower(workload.tower, stdout, report)


def _check_tower(exp: TowerExpectation, stdout: str, report: dict) -> list[str]:
    ks = range(1, exp.depth + 1)
    want_a = {"0": [1] * exp.depth, "1": [exp.a1(k) for k in ks], "2": [0] * exp.depth}
    want_lam = {k: exp.lam for k in ks if k >= 2}
    problems = []

    rows = list(csv.DictReader(io.StringIO(stdout)))
    if [row.get("k") for row in rows] != [str(k) for k in ks]:
        problems.append(f"CSV rows {[row.get('k') for row in rows]}, expected k = 1..{exp.depth}")
    else:
        for k, row in zip(ks, rows):
            want = {"a_0": "1", "a_1": str(exp.a1(k)), "a_2": "0",
                    "lambda": str(want_lam.get(k, "")), "components": "1"}
            got = {key: row.get(key) for key in want}
            if got != want:
                problems.append(f"CSV row k={k}: {got}, expected {want}")

    if report.get("a") != want_a:
        problems.append(f"report a = {report.get('a')}, expected {want_a}")
    if report.get("lambda") != {str(k): v for k, v in want_lam.items()}:
        problems.append(f"report lambda = {report.get('lambda')}, expected {exp.lam} throughout")
    if report.get("component_counts") != [1] * exp.depth:
        problems.append(f"component counts {report.get('component_counts')}, expected all 1")
    if report.get("uncertain") != []:
        problems.append("report lists uncertain tuples")
    for r, (status, value, mechanism) in _TOWER_LIMITS.items():
        got = report.get("limit_verdicts", {}).get(r, {})
        want = (status, value, mechanism)
        if (got.get("status"), got.get("value"), got.get("mechanism")) != want:
            problems.append(f"limit verdict r={r}: {got}, expected {status}/{value}/{mechanism}")
    b1 = report.get("b1_infinity", {})
    if (b1.get("status"), b1.get("value"), b1.get("mechanism")) != \
            ("finite", exp.lam, "pu-lambda-stabilized"):
        problems.append(f"b1_infinity {b1}, expected finite {exp.lam} by pu-lambda-stabilized")
    cv = report.get("component_verdict", {})
    if (cv.get("kind"), cv.get("mechanism")) != exp.component:
        problems.append(f"component verdict {cv.get('kind')}/{cv.get('mechanism')}, "
                        f"expected {exp.component[0]}/{exp.component[1]}")
    return problems


def _check_interval(stdout: str, report: dict) -> list[str]:
    # The interval's depth-1 cells overlap in segments: pulling the overlap of
    # cells 1 and 2 back lands in several depth-1 cells, so it branches, and
    # a segment overlap cannot be certified to be a single point.
    problems = []
    pu = report.get("postunbranched", {})
    if (pu.get("status"), pu.get("mechanism")) != ("not-postunbranched", "branching-witness"):
        problems.append(f"postunbranched {pu.get('status')}/{pu.get('mechanism')}, "
                        "expected not-postunbranched/branching-witness")
    if not str(pu.get("witness", "")).startswith("pair (1,2):"):
        problems.append(f"branching witness {pu.get('witness')!r} is not pair (1,2)")
    if report.get("singleton_overlaps", {}).get("all_small") is not False:
        problems.append("singleton overlaps reported all certified")
    lines = stdout.splitlines()
    if not any(line.startswith("not postunbranched: pair (1,2):") for line in lines):
        problems.append("stdout lacks the pair-(1,2) branching line")
    if "overlaps: not all pairs certified to be single points" not in lines:
        problems.append("stdout lacks the uncertified-overlaps line")
    return problems
