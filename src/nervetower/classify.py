"""Certification layer: overlap structure checks and theorem-shaped verdicts.

Three checkers inspect a system's depth-1 overlaps:

* check_postunbranched: does each ordered pair of touching cells pull its
  overlap back into a single address cell?  Decided along each pulled-back
  point's finite orbit, within a point budget; refuted by exhibiting a
  branching witness.
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

from typing import TYPE_CHECKING, Callable, Literal, Optional

from . import nerve, oracles  # nerve imports lift_addresses: read build_nerve when called
from .components import stationary_bound
# common_point_exists is unused here; the tracer self-test in perfbench/tests patches it
from .exactgeom import Point2, common_point_exists  # noqa: F401
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

if TYPE_CHECKING:  # homology builds on nerve, which builds on this module
    from .homology import BettiTable


def _kept(check: Callable) -> Callable:
    """`check` run once per spec and budget, its report kept on the spec (not
    `functools.wraps`: a `__wrapped__` marks a traced function)."""
    def kept(spec: SystemSpec, budget: Budget = Budget()):
        key = (check.__name__, budget)
        if key not in spec._cache:
            spec._cache[key] = check(spec, budget)
        return spec._cache[key]
    kept.__name__, kept.__qualname__, kept.__doc__ = check.__name__, check.__name__, check.__doc__
    return kept


PairStatus = Literal["ok", "empty", "violated", "unknown"]


class PairReport(_Record):
    __slots__ = _fields = ("pair", "status", "points", "address", "detail", "singular")
    _defaults = {"points": (), "address": None, "detail": "", "singular": False}
    pair: tuple[int, int]
    status: PairStatus
    points: tuple[Point2, ...]
    address: Optional[Address]    # the one address the overlap pulls back to
    detail: str
    singular: bool                # unknown because cell map i has no inverse


class PUReport(_Record):
    __slots__ = _fields = ("name", "status", "mechanism", "pairs", "witness")
    _defaults = {"witness": ""}
    name: str
    status: Literal["postunbranched", "not-postunbranched", "unknown"]
    mechanism: str
    pairs: dict[tuple[int, int], PairReport]
    witness: str


@_kept
def check_postunbranched(spec: SystemSpec, budget: Budget = Budget()) -> PUReport:
    """Certify or refute the unique-address property of every overlap, at every depth.

    Geometric systems are checked point by point.  Each certified overlap
    point p of cells i, j pulls back to q = f_i^-1(p), a tail point with
    address a = h c^inf, and must sit in exactly one depth-d cell for every
    d, the same one for all points.  Step t of q's orbit asks which depth-1
    cells hold q_t = f_{a_t}^-1 ... f_{a_1}^-1(q), and stops unless that is
    a_{t+1} alone.  Licence: a yes answer needs an invertible cell map, so
    every prefix map is injective, and the depth-(t + 1) cells that hold q
    are a_1 ... a_t followed by the depth-1 cells that hold q_t; a cell off
    the prefix was answered no, and so are all its descendants.  From
    t = |h| on, q_t repeats with period |c|, so the first |h| + |c| steps
    decide every depth (mechanism `orbit-walk`), and each point's depth-d
    cell is then the first d symbols of its address: the points share one
    cell at every depth exactly when they share one address.  The symbolic
    backend carries the property by construction; only its address
    consistency is re-validated.  Table systems have no geometry to check.
    A singular cell map cannot pull its overlap points back, so its pairs
    stay unknown, and the report names that map rather than the budget.
    """
    if isinstance(spec.backend, SymbolicPUBackend):
        return _symbolic_pu_report(spec)
    if not spec.is_geometric:
        return PUReport(spec.name, "unknown", "no-geometry", {},
                        witness="table backends carry no geometry to certify")

    symbols = range(1, spec.m + 1)
    pairs = {(i, j): _check_pair(spec, i, j, budget)
             for i in symbols for j in symbols if i != j}
    violation = next((f"pair ({i},{j}): {r.detail}" for (i, j), r in pairs.items()
                      if r.status == "violated"), "")
    singular = next((f"pair ({i},{j}): {r.detail}" for (i, j), r in pairs.items()
                     if r.singular), "")
    if violation:
        return PUReport(spec.name, "not-postunbranched", "branching-witness", pairs,
                        witness=violation)
    if singular:  # no budget could pull the overlap back through that map
        return PUReport(spec.name, "unknown", "singular-cell-map", pairs, witness=singular)
    if any(r.status == "unknown" for r in pairs.values()):
        return PUReport(spec.name, "unknown", "budget-exhausted", pairs)
    return PUReport(spec.name, "postunbranched", "orbit-walk", pairs)


def _symbolic_pu_report(spec: SystemSpec) -> PUReport:
    """Re-validates address consistency at every depth.  The lifts of depth k
    read the first k - 1 symbols of each address, so the shallowest
    ambiguous depth is t + 2 for the least index t at which some vertex's
    addresses differ; `generate_pu_nerve` raises there what `build_nerve`
    raises at that depth, and with no such t every depth lifts consistently."""
    backend = spec.backend
    splits = [_split_index([backend.addresses[(i, j)] for j in s if j != i])
              for s in backend.n1 if len(s) > 1 for i in s]
    first = min((t for t in splits if t is not None), default=None)
    if first is not None:
        oracles.generate_pu_nerve(spec, first + 2)
    pairs = {
        pair: PairReport(pair, "ok", address=addr, detail="address stored by the backend")
        for pair, addr in sorted(backend.addresses.items())
    }
    return PUReport(spec.name, "postunbranched", "by-construction", pairs)


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


def _check_pair(spec: SystemSpec, i: int, j: int, budget: Budget) -> PairReport:
    m = spec.m
    wi, wj = Word((i,), m), Word((j,), m)
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
    address: Optional[Address] = None
    for p in points:
        q = pull(p).homogeneous()
        name = tails.get(q)
        if name is None:
            raise ConsistencyError(
                f"pulled-back overlap point {Point2._of(q)} of pair ({i},{j}) is no tail point")
        orbit = name[0] + name[1]
        for t in range(len(orbit)):
            containing, undecided = cells_containing_point(spec, Point2._of(q), 1, budget)
            cells = [str(Word._of(orbit[:t] + u.symbols, m)) for u in undecided or containing]
            if undecided:
                return PairReport((i, j), "unknown", points,
                                  detail=f"membership undecided for cells {cells}")
            if len(containing) > 1:
                return PairReport((i, j), "violated", points,
                                  detail=f"point ({p.x}, {p.y}) pulls back into depth-{t + 1} "
                                         f"cells {', '.join(cells)}")
            if [u.symbols for u in containing] != [orbit[t:t + 1]]:
                raise ConsistencyError(
                    f"pulled-back overlap point {Point2._of(q)} of pair ({i},{j}) lies in "
                    f"no cell on its address")
            q = spec.cell_maps[orbit[t] - 1].preimage(q)
        here = Address._of(*name, m)
        if address is None:
            address = here
        elif here != address:
            return PairReport((i, j), "violated", points,
                              detail=f"overlap points pull back to distinct addresses "
                                     f"{address} and {here}")
    return PairReport((i, j), "ok", points, address=address)


SingletonStatus = Literal["empty", "singleton", "several", "unknown"]


class SingletonReport(_Record):
    __slots__ = _fields = ("name", "pairs", "all_small", "witnesses")
    _defaults = {"witnesses": dict}
    name: str
    pairs: dict[tuple[int, int], SingletonStatus]
    all_small: bool  # every pair empty or a single point
    # the two smallest certified common points of each `several` pair
    witnesses: dict[tuple[int, int], tuple[Point2, Point2]]


@_kept
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


def lift_addresses(spec: SystemSpec, budget: Budget) -> Optional[oracles.Addresses]:
    """A geometric system's overlap addresses when the orbit walk and the
    singleton check certified every pair, half the licence of
    `oracles.generate_pu_nerve`; None otherwise.  `nerve._levels` asks."""
    pu = check_postunbranched(spec, budget)
    if pu.mechanism != "orbit-walk" or not check_singleton_overlaps(spec, budget).all_small:
        return None
    return {pair: r.address for pair, r in pu.pairs.items() if r.address}


class ConditionResult(_Record):
    __slots__ = _fields = ("ok", "witness")
    _defaults = {"witness": ""}
    ok: bool
    witness: str


class PivotReport(_Record):
    """The four structural conditions that force infinite limit rank at r = 1."""

    __slots__ = _fields = ("name", "pivot", "conditions", "conclusion", "conditional", "detail")
    _defaults = {"detail": ""}
    name: str
    pivot: int
    conditions: dict[str, ConditionResult]
    conclusion: bool
    conditional: bool  # True when undecided simplices could change an answer
    detail: str


def check_h1_infinite_conditions(spec: SystemSpec, pivot: int,
                                 budget: Budget = Budget()) -> PivotReport:
    if not 1 <= pivot <= spec.m:
        raise SpecError(f"pivot {pivot} outside 1..{spec.m}")
    n1 = nerve.build_nerve(spec, 1, dim_cap=2, budget=budget)
    n2 = nerve.build_nerve(spec, 2, dim_cap=2, budget=budget)
    conditional = bool(n1.uncertain or n2.uncertain)

    conditions: dict[str, ConditionResult] = {}

    count = n1.components.count
    conditions["base-connected"] = ConditionResult(
        count == 1, f"depth-1 nerve has {count} component(s)")

    pp = n2.index_of(Word((pivot, pivot), spec.m))
    offender = next((str(w) for edge in n2.simplices_of(1) if pp in edge
                     for w in map(n2.word, edge) if w.symbols[0] != pivot), "")
    conditions["pivot-block-isolated"] = ConditionResult(
        offender == "",
        f"cell {pivot}{pivot} touches cell {offender}" if offender
        else f"cell {pivot}{pivot} touches only cells inside block {pivot}")

    cycle_witness = ""
    for j2 in range(1, spec.m + 1):
        for j3 in range(1, spec.m + 1):
            if len({pivot, j2, j3}) != 3:
                continue
            if all(tuple(sorted((a - 1, b - 1))) in n1
                   for a, b in ((pivot, j2), (j2, j3), (j3, pivot))):
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
    _defaults = {"detail": ""}
    name: str
    ok: bool
    detail: str


class TheoremCheck(_Record):
    __slots__ = _fields = ("name", "applicable", "passed", "checks", "predictions", "note")
    _defaults = {"checks": list, "predictions": list, "note": ""}
    name: str
    applicable: bool
    passed: Optional[bool]
    checks: list[TheoremCheckItem]
    predictions: list[str]
    note: str


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
