"""The all-pairs geometric nerve builder: the reference the block-copy generator
in `nervetower.nerve` is checked against.

It queries the oracle on every pair of depth-k cells, then grows cliques of
verified simplices, without using the self-similar structure at all.  Its
output is the nerve before `tower_complexes` sweeps certificates downward.
`allpairs_tower` sweeps them with the reference sweep `sweep_certificates`
into every level, where `nerve.truncation_map` sweeps only into levels that
have uncertain tuples.  Like those, a sweep leaves its levels alone and
returns a new one.
"""

from itertools import combinations

from nervetower import oracles
from nervetower.nerve import SimplicialComplex
from nervetower.oracles import Budget, SystemSpec
from nervetower.words import enumerate_words


def _close_downward(buckets: dict[int, set[tuple[int, ...]]]) -> None:
    # Intersection certificates are monotone: every face of a kept simplex is kept.
    for dim in sorted(buckets, reverse=True):
        if dim == 0:
            continue
        lower = buckets.setdefault(dim - 1, set())
        for s in buckets[dim]:
            for face in combinations(s, dim):
                lower.add(face)


def allpairs_nerve(spec: SystemSpec, level: int, dim_cap: int,
                   budget: Budget) -> SimplicialComplex:
    """The depth-`level` nerve from one oracle query per pair and per clique."""
    words = tuple(enumerate_words(spec.m, level))
    n = len(words)
    uncertain: list[tuple[tuple[int, ...], str]] = []
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    buckets: dict[int, set[tuple[int, ...]]] = {0: {(i,) for i in range(n)}}

    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            verdict = oracles.cells_intersect(spec, (words[i], words[j]), budget)
            if verdict.kind == "intersect":
                edges.add((i, j))
                adjacency[i].add(j)
                adjacency[j].add(i)
            elif verdict.kind == "unknown":
                uncertain.append(((i, j), verdict.note))
    buckets[1] = edges

    # Higher simplices are cliques whose tuple of cells passes the oracle;
    # a clique with a missing or disjoint sub-tuple can never certify, so
    # candidates grow from verified simplices only.
    current = edges
    for dim in range(2, dim_cap + 1):
        verified: set[tuple[int, ...]] = set()
        for s in sorted(current):
            shared = set.intersection(*(adjacency[v] for v in s))
            for v in sorted(shared):
                if v <= s[-1]:
                    continue
                candidate = s + (v,)
                verdict = oracles.cells_intersect(
                    spec, tuple(words[i] for i in candidate), budget)
                if verdict.kind == "intersect":
                    verified.add(candidate)
                elif verdict.kind == "unknown":
                    uncertain.append((candidate, verdict.note))
        if not verified:
            buckets[dim] = set()
            break
        buckets[dim] = verified
        current = verified

    # Completeness: does any clique one dimension past the cap exist at all?
    complete = True
    if current and max(buckets) == dim_cap and buckets[dim_cap]:
        for s in buckets[dim_cap]:
            shared = set.intersection(*(adjacency[v] for v in s))
            if any(v > s[-1] for v in shared):
                complete = False
                break

    _close_downward(buckets)
    simplices = {dim: tuple(sorted(sims)) for dim, sims in sorted(buckets.items()) if dim}
    uncertain.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return SimplicialComplex(level, spec.m, simplices, dim_cap,
                             complete=complete, uncertain=tuple(uncertain))



def allpairs_tower(spec: SystemSpec, depth: int, dim_cap: int,
                   budget: Budget) -> list[SimplicialComplex]:
    """Nerves at depths 1..depth with certificates swept down, as in `tower_complexes`."""
    complexes = [allpairs_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    for k in range(len(complexes) - 1, 0, -1):
        complexes[k - 1] = sweep_certificates(complexes[k], complexes[k - 1])
    return complexes


def sweep_certificates(long: SimplicialComplex, short: SimplicialComplex) -> SimplicialComplex:
    """`short` with every truncated image of a simplex of `long` added, with
    its faces, and the uncertain entries that those resolve dropped: a new
    level, or `short` itself when nothing is added."""
    ratio = long.m ** (long.level - short.level)
    buckets = {dim: set(sims) for dim, sims in short.simplices.items()}
    added = False
    for dim, sims in long.simplices.items():
        if dim == 0:
            continue
        for s in sims:
            image = tuple(sorted({v // ratio for v in s}))
            if len(image) == 1:
                continue
            bucket = buckets.setdefault(len(image) - 1, set())
            if image not in bucket:
                bucket.add(image)
                added = True
    if not added:
        return short
    _close_downward(buckets)
    return short.replace(
        added={dim: tuple(sorted(sims)) for dim, sims in sorted(buckets.items()) if dim},
        uncertain=tuple(entry for entry in short.uncertain
                        if entry[0] not in buckets.get(len(entry[0]) - 1, ())),
        block_source=None)
