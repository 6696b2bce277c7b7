"""The unpruned nerve candidates and the forward envelope walk: the references
that the one-point pruning of `nerve._candidate_pairs` and the pull-back walk
of `oracles._envelope_walk` are checked against.

`candidate_pairs` pairs all m^2 children of every parent pair that may meet,
whatever its envelope meet; it takes the arguments of `nerve._candidate_pairs`
so that it can stand in for it.  `cells_containing_point` walks down the
words whose own envelopes contain the point, composing each word's map and
building its envelope, and answers each one with `point_in_cell` here, which
pulls the point back through the whole word map.
"""

from nervetower.exactgeom import Point2
from nervetower.oracles import (Budget, PointAnswer, SystemSpec, _tail_table, cell_envelope,
                                word_map)
from nervetower.nerve import SimplicialComplex
from nervetower.words import Word


def candidate_pairs(spec: SystemSpec, prev: SimplicialComplex,
                    copies: bool) -> list[tuple[int, int]]:
    """Every child pair of the parent pairs that may meet: the edges and
    uncertain pairs of `prev` (only those that cross blocks when blocks are
    copied, and each vertex with itself otherwise)."""
    m = prev.m
    pairs = list(prev.added.get(1, ())) + [s for s, _note in prev.uncertain if len(s) == 2]
    if copies:
        block = m ** (prev.level - 1)
        pairs = [(a, b) for a, b in pairs if a // block != b // block]
    else:
        pairs += [(v, v) for v in range(m ** prev.level)]
    return sorted({(a * m + x, b * m + y) for a, b in pairs
                   for x in range(m) for y in range(m) if a * m + x < b * m + y})


def envelope_walk(spec: SystemSpec, point: Point2, depth: int) -> list[Word]:
    """The depth-`depth` words whose own cell envelopes contain `point`."""
    level = [Word((), spec.m)]
    for _ in range(depth):
        level = [v for u in level for v in (u.extended(j) for j in range(1, spec.m + 1))
                 if cell_envelope(spec, v).contains_point(point)]
    return level


def point_in_cell(spec: SystemSpec, point: Point2, w: Word, budget: Budget) -> PointAnswer:
    """yes, no or unknown, from the point pulled back through w's whole map."""
    try:
        q = Point2.from_homogeneous(word_map(spec, w).preimage(point.homogeneous()))
    except ValueError:
        return "unknown"
    if not spec.backend.envelope.contains_point(q):
        return "no"
    if q.homogeneous() in _tail_table(spec, budget):
        return "yes"
    if not envelope_walk(spec, q, budget.refine_depth):
        return "no"
    return "unknown"


def cells_containing_point(spec: SystemSpec, point: Point2, depth: int,
                           budget: Budget) -> tuple[list[Word], list[Word]]:
    """(certified, undecided) depth-`depth` cells among the envelope hits."""
    answers = [(u, point_in_cell(spec, point, u, budget))
               for u in envelope_walk(spec, point, depth)]
    return ([u for u, answer in answers if answer == "yes"],
            [u for u, answer in answers if answer == "unknown"])
