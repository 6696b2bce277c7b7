"""The full truncation pass, the all-edges union-find and the per-vertex
parent map: the references that `nerve.truncation_map` and the copy-built
paths of `components.components` and `components.dim0_facts` are checked
against.

They look at every simplex and every vertex of a level, without using the
block-copy licence of `nerve.SimplicialComplex`: that a level with a block
source is m block copies of the level before plus the simplices that cross
blocks.  Nor do they use a level's cover: on a level swept from interval
ends they read the simplices its sweep lists, not the nesting of its
intervals or their coverage.
`truncation` writes the same map v -> v // m^d as the `SimplicialMap` that
`homology.induced_rank` takes.
"""

from nervetower.components import ComponentsLevel, UnionFind
from nervetower.homology import FieldKind, betti, betti_exact, induced_rank
from nervetower.nerve import SimplicialComplex, SimplicialMap, TowerData, build_nerve
from nervetower.oracles import Budget, ConsistencyError, SpecError, SystemSpec


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
        short = short.replace(
            added={dim: tuple(sorted(sims)) for dim, sims in sorted(target.items()) if dim},
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
    return ComponentsLevel(len(least), tuple(least.values()), tuple(crossing),
                           tuple(ids[root] for root in roots), block)


def labels(level: ComponentsLevel) -> tuple[int, ...]:
    """The component of every vertex, in vertex order, read down the chain
    of levels `below`."""
    if level.below is None:
        return level.ids
    count = level.below.count
    return tuple(level.ids[j * count + c] for j in range(len(level.ids) // count)
                 for c in labels(level.below))


def vertex_parents(deep: ComponentsLevel, shallow: ComponentsLevel, m: int) -> tuple[int, ...]:
    """The component of N_k under each component of N_{k+1}, read off every
    vertex v of N_{k+1} as the component of v // m, and checked to be one
    per component."""
    parent: dict[int, int] = {}
    shallow_labels = labels(shallow)
    for v, label in enumerate(labels(deep)):
        image = shallow_labels[v // m]
        if parent.setdefault(label, image) != image:
            raise ConsistencyError("component parent map is not well defined")
    return tuple(parent[c] for c in range(deep.count))


def reference_tower(spec: SystemSpec, depth: int, dim_cap: int, budget: Budget) -> TowerData:
    """The tower checked by the full truncation pass on every pair, deepest
    first, with the components of the all-edges union-find."""
    complexes = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    for k in range(depth - 1, 0, -1):
        complexes[k - 1] = full_truncation_map(complexes[k], complexes[k - 1])
    return TowerData(spec, dim_cap, complexes,
                     [unionfind_components(c) for c in complexes])


def reference_numbers(tower: TowerData, fieldkind: FieldKind) -> dict:
    """What `homology.tower_analysis` reports, from every simplex and vertex:
    simplex counts of the expanded levels, every a_{r,k} by reducing both
    boundaries of each level (`homology.betti`), lambda_k as the induced rank
    of the truncation onto depth 1 (`homology.induced_rank`), and component
    counts, labels and parents from `vertex_parents`."""
    complexes, levels = tower.complexes, tower.components
    exact = [r for r in range(tower.dim_cap + 1) if all(betti_exact(c, r) for c in complexes)]
    lam = {k: induced_rank(truncation(c, complexes[0]), 1, fieldkind)
           for k, c in enumerate(complexes[1:], start=2)} if 1 in exact else {}
    return {
        "counts": [{dim: len(sims) for dim, sims in c.simplices.items()} for c in complexes],
        "a": {(r, k): betti(c, fieldkind, r) for k, c in enumerate(complexes, start=1)
              for r in exact},
        "lambda": lam,
        "components": [(lv.count, labels(lv)) for lv in levels],
        "parents": [vertex_parents(deep, shallow, tower.spec.m)
                    for deep, shallow in zip(levels[1:], levels)],
    }
