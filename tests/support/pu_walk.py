"""The postunbranched check walked depth by depth: the reference that the
orbit walk of `classify.check_postunbranched` is checked against.

Each certified overlap point p of a pair (i, j) is pulled back to
q = f_i^-1(p), and `cells_containing_point` is asked about q at every depth
d = 1, 2, ... up to the check depth, stopping at the first depth where q is
not in exactly one certified cell; the points of an `ok` pair share one
depth-d cell.  The pairs are then read into a `PUReport` as the package
reads them.  Symbolic and table systems are not walked; ask the package for
those.

`every_depth(budget)` is the check depth at which this walk decides every
depth.  The pulled-back points are tail points whose addresses h c^inf have
|h| <= cert_preperiod_max and |c| <= cert_period_max, so each orbit repeats
from depth |h| + |c| on, and two distinct such addresses differ within
their first cert_preperiod_max + |c1| + |c2| symbols (Fine and Wilf, on
the periodic parts): points that share a cell at that depth share their
address.
"""

from nervetower import oracles
from nervetower.classify import PairReport, PUReport
from nervetower.exactgeom import Point2
from nervetower.oracles import (Budget, ConsistencyError, SystemSpec,
                                cells_containing_point, certificate_points)
from nervetower.words import Address, Word


def every_depth(budget: Budget) -> int:
    return budget.cert_preperiod_max + 2 * budget.cert_period_max


def address_cells(spec: SystemSpec, q: Point2, depth: int,
                  budget: Budget) -> tuple[int, list[Word], list[Word]]:
    """(d, containing, undecided): `cells_containing_point` of q at the first
    depth d <= `depth` where q is not in exactly one certified cell, else at
    `depth`."""
    for d in range(1, depth + 1):
        containing, undecided = cells_containing_point(spec, q, d, budget)
        if undecided or len(containing) != 1:
            break
    return d, containing, undecided


def check_pair(spec: SystemSpec, i: int, j: int, depth: int, budget: Budget) -> PairReport:
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
    shared = address = None
    for p in points:
        q = pull(p)
        d, containing, undecided = address_cells(spec, q, depth, budget)
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
        if shared is None:
            shared = containing[0]
            name = tails.get(q.homogeneous())
            address = None if name is None else Address._of(*name, spec.m)
        elif containing[0] != shared:
            return PairReport((i, j), "violated", points,
                              detail=f"overlap points pull back into distinct address cells "
                                     f"{shared} and {containing[0]}")
    return PairReport((i, j), "ok", points, address=address)


def check_postunbranched(spec: SystemSpec, depth: int, budget: Budget) -> PUReport:
    """The report of a geometric system, every pair walked depth by depth; at
    `every_depth(budget)` or deeper it is the every-depth report."""
    pairs = {(i, j): check_pair(spec, i, j, depth, budget)
             for i in range(1, spec.m + 1) for j in range(1, spec.m + 1) if i != j}
    violation = next((f"pair ({i},{j}): {r.detail}" for (i, j), r in pairs.items()
                      if r.status == "violated"), "")
    singular = next((f"pair ({i},{j}): {r.detail}" for (i, j), r in pairs.items()
                     if r.singular), "")
    if violation:
        return PUReport(spec.name, "not-postunbranched", "branching-witness", pairs,
                        witness=violation)
    if singular:
        return PUReport(spec.name, "unknown", "singular-cell-map", pairs, witness=singular)
    if any(r.status == "unknown" for r in pairs.values()):
        return PUReport(spec.name, "unknown", "budget-exhausted", pairs)
    return PUReport(spec.name, "postunbranched", "orbit-walk", pairs)
