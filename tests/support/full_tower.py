"""The full truncation pass and the all-edges union-find: the references that
the copy-built paths of `nerve.truncation_map` and `components.components`
are checked against.

Both look at every simplex of a level, without using that a copy-built level
is m block copies of the level before plus the simplices that cross blocks.
`truncation` writes the same map v -> v // m^d as the `SimplicialMap` that
`homology.induced_rank` takes.
"""

from dataclasses import replace

from nervetower.components import ComponentsLevel, UnionFind
from nervetower.nerve import SimplicialComplex, SimplicialMap
from nervetower.oracles import ConsistencyError, SpecError


def truncation(long: SimplicialComplex, short: SimplicialComplex) -> SimplicialMap:
    """The truncation v -> v // m^d from `long` to `short`, unchecked."""
    ratio = long.m ** (long.level - short.level)
    return SimplicialMap(long, short, tuple(v // ratio for v in range(long.m ** long.level)))


def full_truncation_map(long: SimplicialComplex, short: SimplicialComplex) -> SimplicialComplex:
    """The image of every simplex of `long` under v -> v // m^d, checked to
    lie in `short` (or swept into a new target level when `short` has
    uncertain tuples), and checked to cover the target when neither level
    has uncertain tuples; returns the target level."""
    if long.m != short.m or long.level <= short.level:
        raise SpecError("truncation needs two depths of one system, deeper first")
    ratio = long.m ** (long.level - short.level)
    target = {dim: set(sims) for dim, sims in short.simplices.items()}
    images: dict[int, set[tuple[int, ...]]] = {dim: set() for dim in range(short.dim_cap + 1)}
    swept = False
    for sims in long.simplices.values():
        for s in sims:
            image = tuple(sorted({v // ratio for v in s}))
            dim = len(image) - 1
            if dim > short.dim_cap:
                raise ConsistencyError("target complex capped below an image simplex")
            if image not in target.get(dim, ()):
                if not short.uncertain:
                    raise ConsistencyError(
                        f"truncation is not simplicial: {s} maps outside depth {short.level}"
                    )
                target.setdefault(dim, set()).add(image)
                swept = True
            images[dim].add(image)
    if swept:
        short = replace(
            short, simplices={dim: tuple(sorted(sims)) for dim, sims in sorted(target.items())},
            uncertain=tuple(entry for entry in short.uncertain
                            if entry[0] not in target.get(len(entry[0]) - 1, ())),
            block_source=None)
    if not long.uncertain and not short.uncertain and \
            not all(sims <= images.get(dim, set()) for dim, sims in target.items()):
        raise ConsistencyError(
            f"truncation from depth {long.level} misses simplices of depth {short.level}")
    return short


def unionfind_components(complex_: SimplicialComplex) -> ComponentsLevel:
    """One union-find pass over every edge: the edges inside a block first,
    which leaves each block's components (as union-find roots) for
    `crossing`, then the edges that cross blocks."""
    n = complex_.m ** complex_.level
    block = n // complex_.m
    uf = UnionFind(n)
    crossing = []
    for edge in complex_.simplices.get(1, ()):
        a, b = edge
        if a // block == b // block:
            uf.union(a, b)
        else:
            crossing.append(edge)
    crossing = [(uf.find(a), uf.find(b)) for a, b in crossing]
    for a, b in crossing:
        uf.union(a, b)
    roots = [uf.find(i) for i in range(n)]
    least: dict[int, int] = {}  # root -> least vertex, in the order of words
    for i, root in enumerate(roots):
        least.setdefault(root, i)
    ids = {root: c for c, root in enumerate(least)}
    return ComponentsLevel(len(least), tuple(ids[root] for root in roots),
                           tuple(least.values()), tuple(crossing))
