"""Certification layer: overlap structure checks and theorem-shaped verdicts.

Three checkers inspect a system's depth-1 overlaps:

* check_postunbranched: does each ordered pair of touching cells pull its
  overlap back into a single address cell?  Certified only up to a depth and
  a point budget; refuted by exhibiting a branching witness.
* check_singleton_overlaps: is each pairwise overlap a single point?
  Refuted, as `several`, by two distinct certified points in both cells
  (then no refinement could ever certify it); otherwise certified by
  refining until every surviving region is the certificate point.
* check_h1_infinite_conditions: the four pivot conditions that force the
  first cohomology of the limit to have infinite rank.

verify_puthm then replays every finite-depth identity and bound that a
postunbranched certificate promises against a computed Betti table.  A
failure there means either a computational bug or a wrong certificate, and
the report says so.
"""

from __future__ import annotations

from typing import Literal, Optional

from . import oracles
from .components import components as nerve_components, stationary_bound
# common_point_exists is unused here; the tracer self-test in perfbench/tests patches it
from .exactgeom import Point2, common_point_exists  # noqa: F401
from .homology import BettiTable
from .nerve import build_nerve
from .oracles import (
    Budget,
    ConsistencyError,
    SpecError,
    SymbolicPUBackend,
    SystemSpec,
    cells_containing_point,
    certificate_points,
)
from .words import Address, Word, _Record

PairStatus = Literal["ok", "empty", "violated", "unknown"]


class PairReport(_Record):
    __slots__ = _fields = ("pair", "status", "points", "prefix", "address", "detail", "singular")
    pair: tuple[int, int]
    status: PairStatus
    points: tuple[Point2, ...]
    prefix: Optional[Word]        # the unique address prefix, to the checked depth
    address: Optional[Address]    # when the pulled-back point has a known periodic tail
    detail: str
    singular: bool                # unknown because cell map i has no inverse

    def __init__(self, pair: tuple[int, int], status: PairStatus,
                 points: tuple[Point2, ...] = (), prefix: Optional[Word] = None,
                 address: Optional[Address] = None, detail: str = "",
                 singular: bool = False) -> None:
        self.pair = pair
        self.status = status
        self.points = points
        self.prefix = prefix
        self.address = address
        self.detail = detail
        self.singular = singular


class PUReport(_Record):
    __slots__ = _fields = ("name", "depth", "status", "mechanism", "pairs", "witness")
    name: str
    depth: int
    status: Literal["postunbranched", "not-postunbranched", "unknown"]
    mechanism: str
    pairs: dict[tuple[int, int], PairReport]
    witness: str

    def __init__(self, name: str, depth: int,
                 status: Literal["postunbranched", "not-postunbranched", "unknown"],
                 mechanism: str, pairs: dict[tuple[int, int], PairReport],
                 witness: str = "") -> None:
        self.name = name
        self.depth = depth
        self.status = status
        self.mechanism = mechanism
        self.pairs = pairs
        self.witness = witness


def check_postunbranched(spec: SystemSpec, depth: int = 4,
                         budget: Budget = Budget()) -> PUReport:
    """Certify or refute the unique-address property of every overlap, to `depth`.

    Geometric systems are checked point by point: every certified overlap
    point is pulled back through the cell map and must sit in exactly one
    depth-d cell for every d <= depth, the same one for all points.  The
    symbolic backend carries the property by construction; only its address
    consistency is re-validated.  Table systems have no geometry to check.
    A singular cell map cannot pull its overlap points back, so its pairs
    stay unknown, and the report names that map rather than the budget.
    """
    if depth < 1:
        raise SpecError("check depth must be at least 1")
    if isinstance(spec.backend, SymbolicPUBackend):
        return _symbolic_pu_report(spec, depth)
    if not spec.is_geometric:
        pairs = {}
        return PUReport(spec.name, depth, "unknown", "no-geometry", pairs,
                        witness="table backends carry no geometry to certify")

    pairs: dict[tuple[int, int], PairReport] = {}
    any_unknown = False
    violation = ""
    singular = ""
    for i in range(1, spec.m + 1):
        for j in range(1, spec.m + 1):
            if i == j:
                continue
            report = _check_pair(spec, i, j, depth, budget)
            pairs[(i, j)] = report
            if report.status == "violated" and not violation:
                violation = f"pair ({i},{j}): {report.detail}"
            if report.singular and not singular:
                singular = f"pair ({i},{j}): {report.detail}"
            any_unknown = any_unknown or report.status == "unknown"
    if violation:
        return PUReport(spec.name, depth, "not-postunbranched", "branching-witness",
                        pairs, witness=violation)
    if singular:  # no budget could pull the overlap back through that map
        return PUReport(spec.name, depth, "unknown", "singular-cell-map", pairs,
                        witness=singular)
    if any_unknown:
        return PUReport(spec.name, depth, "unknown", "budget-exhausted", pairs)
    return PUReport(spec.name, depth, "postunbranched", "checked-to-depth", pairs)


def _symbolic_pu_report(spec: SystemSpec, depth: int) -> PUReport:
    """Re-validates address consistency to `depth`.  The lifts of depth k read
    the first k - 1 symbols of each address, so the shallowest ambiguous
    depth is t + 2 for the least index t at which some vertex's addresses
    differ; `generate_pu_nerve` raises there what a depth-by-depth pass
    would raise first."""
    backend = spec.backend
    splits = [_split_index([backend.addresses[(i, j)] for j in s if j != i])
              for s in backend.n1 if len(s) > 1 for i in s]
    first = min((t for t in splits if t is not None), default=None)
    if first is not None and first + 2 <= depth:
        oracles.generate_pu_nerve(spec, first + 2)
    pairs = {
        pair: PairReport(pair, "ok", address=addr, prefix=None,
                         detail="address stored by the backend")
        for pair, addr in sorted(backend.addresses.items())
    }
    return PUReport(spec.name, depth, "postunbranched", "by-construction", pairs)


def _split_index(addresses: list[Address]) -> Optional[int]:
    """The first index at which the addresses' symbols differ, None when they
    are one address.  Addresses are normalized, so distinct ones differ
    within their longest preperiod plus the product of their periods."""
    if len(set(addresses)) < 2:
        return None
    t = 0
    while len({a.symbol_at(t) for a in addresses}) == 1:
        t += 1
    return t


def _check_pair(spec: SystemSpec, i: int, j: int, depth: int, budget: Budget) -> PairReport:
    wi, wj = Word((i,), spec.m), Word((j,), spec.m)
    verdict = oracles.cells_intersect(spec, (wi, wj), budget)
    if verdict.kind == "disjoint":
        return PairReport((i, j), "empty")
    if verdict.kind == "unknown":
        return PairReport((i, j), "unknown", detail=verdict.note)

    points = tuple(certificate_points(spec, (wi, wj), budget))
    try:
        pull = oracles.word_map(spec, wi).inverse()
    except ValueError:
        return PairReport((i, j), "unknown", points, singular=True,
                          detail=f"cell map {i} is singular: overlap points cannot be "
                                 f"pulled back through it")
    tails = oracles._tail_table(spec, budget)
    shared_prefix: Optional[Word] = None
    address: Optional[Address] = None
    for p in points:
        q = pull(p)
        d, containing, undecided = _address_cells(spec, q, depth, budget)
        if undecided:
            return PairReport((i, j), "unknown", points,
                              detail=f"membership undecided for cells {[str(u) for u in undecided]}")
        if not containing:
            raise ConsistencyError(
                f"pulled-back overlap point {q} of pair ({i},{j}) lies in no cell")
        if len(containing) > 1:
            cells = ", ".join(str(u) for u in containing)
            return PairReport((i, j), "violated", points,
                              detail=f"point ({p.x}, {p.y}) pulls back into depth-{d} "
                                     f"cells {cells}")
        prefix = containing[0]
        if shared_prefix is None:
            shared_prefix = prefix
            name = tails.get(q.homogeneous())
            address = None if name is None else Address._of(*name, spec.m)
        elif prefix != shared_prefix:
            return PairReport((i, j), "violated", points,
                              detail=f"overlap points pull back into distinct address cells "
                                     f"{shared_prefix} and {prefix}")
    return PairReport((i, j), "ok", points, prefix=shared_prefix, address=address)


def _address_cells(spec: SystemSpec, q: Point2, depth: int,
                   budget: Budget) -> tuple[int, list[Word], list[Word]]:
    """(d, containing, undecided): `cells_containing_point` of the pulled-back
    point q at the first depth d <= `depth` where q is not in exactly one
    certified cell, else at `depth`.  Kept on the spec per point: the pairs
    of one cell i that share an overlap point pull it back to the same q,
    and its walk is made once, depth by depth."""
    key = ("address_cells", q, depth, budget)
    got = spec._cache.get(key)
    if got is None:
        for d in range(1, depth + 1):
            containing, undecided = cells_containing_point(spec, q, d, budget)
            if undecided or len(containing) != 1:
                break
        got = spec._cache[key] = (d, containing, undecided)
    return got


SingletonStatus = Literal["empty", "singleton", "several", "unknown"]


class SingletonReport(_Record):
    __slots__ = _fields = ("name", "pairs", "all_small", "witnesses")
    name: str
    pairs: dict[tuple[int, int], SingletonStatus]
    all_small: bool  # every pair empty or a single point
    # the two smallest certified common points of each `several` pair
    witnesses: dict[tuple[int, int], tuple[Point2, Point2]]

    def __init__(self, name: str, pairs: dict[tuple[int, int], SingletonStatus],
                 all_small: bool,
                 witnesses: Optional[dict[tuple[int, int], tuple[Point2, Point2]]] = None) -> None:
        self.name = name
        self.pairs = pairs
        self.all_small = all_small
        self.witnesses = {} if witnesses is None else witnesses


def check_singleton_overlaps(spec: SystemSpec, budget: Budget = Budget()) -> SingletonReport:
    """Certify that each pairwise overlap of depth-1 cells is empty or one point.

    A pair is a certified singleton when, at some refinement depth, every
    surviving envelope intersection is exactly the certificate point.  It is
    `several` when two distinct in-budget points are certified to lie in both
    cells: such an overlap holds more than one point, so no refinement is
    tried, and the two points are its witness.
    """
    if not spec.is_geometric:
        raise SpecError("singleton certification needs the geometric backend")
    pairs: dict[tuple[int, int], SingletonStatus] = {}
    witnesses: dict[tuple[int, int], tuple[Point2, Point2]] = {}
    for i in range(1, spec.m + 1):
        for j in range(i + 1, spec.m + 1):
            pairs[(i, j)], points = _singleton_status(spec, i, j, budget)
            if points:
                witnesses[(i, j)] = points
    all_small = all(s in ("empty", "singleton") for s in pairs.values())
    return SingletonReport(spec.name, pairs, all_small, witnesses)


def _singleton_status(spec: SystemSpec, i: int, j: int,
                      budget: Budget) -> tuple[SingletonStatus, tuple[Point2, ...]]:
    """The pair's status, with its two witness points when it is `several`."""
    wi, wj = Word((i,), spec.m), Word((j,), spec.m)
    verdict = oracles.cells_intersect(spec, (wi, wj), budget)
    if verdict.kind == "disjoint":
        return "empty", ()
    if verdict.kind == "unknown":
        return "unknown", ()
    # An intersect verdict is certified by a common point, so `points` is
    # nonempty.  several: licensed at every depth.  A certified point of
    # cell(wi) and cell(wj) lies in both cells of some child pair at each
    # depth, so that pair's envelopes meet and it stays alive.  With two
    # distinct points, one differs from points[0], and its region never
    # equals {points[0]}: the refinement below could never answer singleton.
    points = certificate_points(spec, (wi, wj), budget)
    if len(points) >= 2:
        return "several", tuple(points[:2])
    only = {points[0].homogeneous()}
    alive = [(wi, wj)]
    for _ in range(budget.refine_depth + 1):
        if all(set(oracles._envelope_meet(spec, pair)) == only for pair in alive):
            return "singleton", ()
        alive = oracles._refine(spec, alive)
        if not alive:  # past the frontier cap, or every child separated
            return "unknown", ()
    return "unknown", ()


class ConditionResult(_Record):
    __slots__ = _fields = ("ok", "witness")
    ok: bool
    witness: str

    def __init__(self, ok: bool, witness: str = "") -> None:
        self.ok = ok
        self.witness = witness


class PivotReport(_Record):
    """The four structural conditions that force infinite limit rank at r = 1."""

    __slots__ = _fields = ("name", "pivot", "conditions", "conclusion", "conditional", "detail")
    name: str
    pivot: int
    conditions: dict[str, ConditionResult]
    conclusion: bool
    conditional: bool  # True when undecided simplices could change an answer
    detail: str

    def __init__(self, name: str, pivot: int, conditions: dict[str, ConditionResult],
                 conclusion: bool, conditional: bool, detail: str = "") -> None:
        self.name = name
        self.pivot = pivot
        self.conditions = conditions
        self.conclusion = conclusion
        self.conditional = conditional
        self.detail = detail


def check_h1_infinite_conditions(spec: SystemSpec, pivot: int,
                                 budget: Budget = Budget()) -> PivotReport:
    if not 1 <= pivot <= spec.m:
        raise SpecError(f"pivot {pivot} outside 1..{spec.m}")
    n1 = build_nerve(spec, 1, dim_cap=2, budget=budget)
    n2 = build_nerve(spec, 2, dim_cap=2, budget=budget)
    conditional = bool(n1.uncertain or n2.uncertain)

    conditions: dict[str, ConditionResult] = {}

    count = nerve_components(n1).count
    conditions["base-connected"] = ConditionResult(
        count == 1, f"depth-1 nerve has {count} component(s)")

    pp = n2.index_of(Word((pivot, pivot), spec.m))
    offender = next((str(w) for edge in n2.simplices_of(1) if pp in edge
                     for w in map(n2.word, edge) if w.symbols[0] != pivot), "")
    conditions["pivot-block-isolated"] = ConditionResult(
        offender == "",
        f"cell {pivot}{pivot} touches cell {offender}" if offender
        else f"cell {pivot}{pivot} touches only cells inside block {pivot}")

    edges = n1.edge_sets()
    cycle_witness = ""
    for j2 in range(1, spec.m + 1):
        for j3 in range(1, spec.m + 1):
            if len({pivot, j2, j3}) != 3:
                continue
            if ({frozenset((pivot - 1, j2 - 1)), frozenset((j2 - 1, j3 - 1)),
                 frozenset((j3 - 1, pivot - 1))} <= edges):
                cycle_witness = f"{pivot}-{j2}-{j3}-{pivot}"
                break
        if cycle_witness:
            break
    conditions["pivot-cycle"] = ConditionResult(
        cycle_witness != "",
        f"cycle {cycle_witness}" if cycle_witness else "no 3-cycle through the pivot")

    triangle = ""
    for s in n1.simplices_of(2):
        if pivot - 1 in s:
            triangle = "{" + ",".join(str(v + 1) for v in s) + "}"
            break
    conditions["pivot-triangle-free"] = ConditionResult(
        triangle == "",
        f"2-simplex {triangle} contains the pivot" if triangle
        else "no depth-1 2-simplex contains the pivot")

    conclusion = all(c.ok for c in conditions.values()) and not conditional
    detail = ("all four conditions hold: the limit's first cohomology has infinite rank "
              "and a_1 grows strictly" if conclusion else
              "conditions not established")
    return PivotReport(spec.name, pivot, conditions, conclusion, conditional, detail)


class TheoremCheckItem(_Record):
    __slots__ = _fields = ("name", "ok", "detail")
    name: str
    ok: bool
    detail: str

    def __init__(self, name: str, ok: bool, detail: str = "") -> None:
        self.name = name
        self.ok = ok
        self.detail = detail


class TheoremCheck(_Record):
    __slots__ = _fields = ("name", "applicable", "passed", "checks", "predictions", "note")
    name: str
    applicable: bool
    passed: Optional[bool]
    checks: list[TheoremCheckItem]
    predictions: list[str]
    note: str

    def __init__(self, name: str, applicable: bool, passed: Optional[bool],
                 checks: Optional[list[TheoremCheckItem]] = None,
                 predictions: Optional[list[str]] = None, note: str = "") -> None:
        self.name = name
        self.applicable = applicable
        self.passed = passed
        self.checks = [] if checks is None else checks
        self.predictions = [] if predictions is None else predictions
        self.note = note


def verify_puthm(table: BettiTable) -> TheoremCheck:
    """Replay the certified-recurrence identities and bounds against a Betti table.

    Only meaningful when the table was computed under a postunbranched
    certificate; otherwise the check is reported as not applicable.
    """
    if table.flags.get("postunbranched") is not True:
        return TheoremCheck("postunbranched-recurrences", False, None,
                            note="no postunbranched certificate; nothing to verify")
    m = table.m
    depth = table.depth
    checks: list[TheoremCheckItem] = []
    predictions: list[str] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append(TheoremCheckItem(name, ok, detail))

    a = table.a
    lam = table.lam
    connected1 = table.component_counts[0] == 1

    for r in table.exact_dims:
        if r < 2:
            continue
        seq = table.sequence(r)
        ok = all(seq[k] == m * seq[k - 1] + seq[0] for k in range(1, depth))
        add(f"higher-recurrence-r{r}", ok, f"a_{r} = {seq}")

    if 1 in table.exact_dims and 0 in table.exact_dims:
        a1 = table.sequence(1)
        a0 = table.sequence(0)
        if lam:
            ok = all(a1[k] == m * a1[k - 1] + lam[k + 1] for k in range(1, depth))
            add("a1-lambda-recurrence", ok, f"a_1 = {a1}, lambda = {lam}")
            ok = all(a0[k] == m * a0[k - 1] - m + a0[0] - a1[0] + lam[k + 1]
                     for k in range(1, depth))
            add("a0-lambda-recurrence", ok, f"a_0 = {a0}")
        ok = all(a0[k] == m * a0[k - 1] - m + a0[0] - a1[0] - m * a1[k - 1] + a1[k]
                 for k in range(1, depth))
        add("combined-recurrence", ok)
        ok = all(m * a1[k - 1] <= a1[k] <= m * a1[k - 1] + a1[0] for k in range(1, depth))
        add("a1-sandwich", ok)
        ok = all(m * a0[k - 1] - m + a0[0] - a1[0] <= a0[k] <= m * a0[k - 1] - m + a0[0]
                 for k in range(1, depth))
        add("a0-sandwich", ok)
        if lam:
            ks = sorted(lam)
            ok = all(lam[ks[t + 1]] <= lam[ks[t]] for t in range(len(ks) - 1)) \
                and lam[ks[0]] <= a1[0]
            add("lambda-chain", ok, f"lambda = {[lam[k] for k in ks]} <= a_{{1,1}} = {a1[0]}")
        if connected1 and lam:
            ok = all(lam[k] == a1[0] for k in sorted(lam))
            add("connected-lambda-constant", ok)

        s = m - a0[0] + a1[0]
        predictions.append(f"depth-1 defect m - a_0 + a_1 = {s}")
        bound = stationary_bound(m, a0[0], a1[0])
        if depth >= 2 and lam.get(2) == 0:
            predictions.append("depth-2 image of first cohomology vanishes: "
                               "the limit's first cohomology is 0")
        if connected1:
            predictions.append(
                "connected base: limit a_1 is "
                + ("0" if a1[0] == 0 else "infinite"))
        if bound.denominator != 1:
            predictions.append(
                f"stationary bound {bound} is not an integer: "
                "limit a_0 or limit a_1 must be infinite")
        if a0[0] > bound:
            predictions.append(
                f"depth-1 count {a0[0]} exceeds the stationary bound {bound}: "
                "infinitely many components")
        if 2 <= m <= 6 and not connected1:
            predictions.append("at most 6 generators and a disconnected base: "
                               "infinitely many components")
        v0, v1 = table.verdicts.get(0), table.verdicts.get(1)
        if v0 and v0.status == "finite" and table.b1_infinity.status == "finite":
            ok = s == (m - 1) * v0.value + table.b1_infinity.value
            add("finite-limit-identity", ok,
                f"{s} == {m - 1} * {v0.value} + {table.b1_infinity.value}")

    for r in table.exact_dims:
        if r >= 2:
            predictions.append(
                f"limit a_{r} is " + ("0" if a[(r, 1)] == 0 else "infinite"))

    passed = all(c.ok for c in checks)
    note = "" if passed else (
        "an identity failed: either a computation is wrong or the postunbranched "
        "certificate does not actually hold")
    return TheoremCheck("postunbranched-recurrences", True, passed, checks,
                        predictions, note)
