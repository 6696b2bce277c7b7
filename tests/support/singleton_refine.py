"""The singleton-overlap check by refinement alone: the reference that
`nervetower.classify.check_singleton_overlaps` is checked against.

It refines a touching pair of depth-1 cells until every surviving envelope
intersection is the certificate point, with no two-point refutation, so a
fat overlap runs to the frontier cap or the budget before it answers unknown.
"""

from nervetower import oracles
from nervetower.exactgeom import common_point_exists
from nervetower.oracles import Budget, SystemSpec, cell_envelope, certificate_points
from nervetower.words import Word
from support.points import intersection_cycle


def singleton_status(spec: SystemSpec, i: int, j: int, budget: Budget) -> str:
    """empty, singleton or unknown for the pair (i, j) of depth-1 cells."""
    wi, wj = Word((i,), spec.m), Word((j,), spec.m)
    verdict = oracles.cells_intersect(spec, (wi, wj), budget)
    if verdict.kind == "disjoint":
        return "empty"
    if verdict.kind == "unknown":
        return "unknown"
    point = certificate_points(spec, (wi, wj), budget)[0]
    alive = [(wi, wj)]
    for _ in range(budget.refine_depth + 1):
        regions = [intersection_cycle((cell_envelope(spec, u), cell_envelope(spec, v)))
                   for (u, v) in alive]
        if all(set(region) == {point} for region in regions):
            return "singleton"
        frontier = []
        for (u, v) in alive:
            for su in range(1, spec.m + 1):
                for sv in range(1, spec.m + 1):
                    cu, cv = u.extended(su), v.extended(sv)
                    if common_point_exists(
                            [cell_envelope(spec, cu), cell_envelope(spec, cv)]):
                        frontier.append((cu, cv))
                        if len(frontier) > oracles._ALIVE_CAP:
                            return "unknown"
        if not frontier:
            return "unknown"
        alive = frontier
    return "unknown"
