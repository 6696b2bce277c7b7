"""Nerve complexes of cell covers, truncation maps between depths, and derived systems.

The depth-k nerve has one vertex per length-k word (cells are never empty) and
a simplex for every tuple of words whose cells share a point.  Dropping the
last symbol of every word induces a simplicial surjection from depth k+1 onto
depth k, v -> v // m on vertex indices; a tower checks each one as it is built.

Oracle answers of Unknown do not abort construction: the affected tuples are
excluded from the complex and recorded in its `uncertain` log, so downstream
reports can say exactly which conclusions are conditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from itertools import combinations, groupby
from typing import Iterable, Optional, Sequence

from . import oracles
from .components import ComponentsLevel, components
from .exactgeom import compose
from .oracles import (
    Budget,
    ConsistencyError,
    GeometricBackend,
    SpecError,
    SymbolicPUBackend,
    SystemSpec,
    TableBackend,
)
from .words import Word, enumerate_words, indexed_word, symbols_index, word_index


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex on the depth-`level` words of a system: a
    fixed value, never changed once built.

    simplices maps dimension -> sorted tuple of simplices, each a sorted tuple
    of vertex indices.  Dimensions are enumerated up to dim_cap; `complete`
    records whether that enumeration is in fact the whole nerve (no larger
    simplex can exist), which is what makes Euler characteristics and
    top-dimension Betti numbers exact.  uncertain holds the tuples the oracle
    left undecided, each a sorted tuple of vertex indices with the oracle's
    note, in order of size, then of the tuple.

    Index layout: vertex v is the v-th of the m^level words in lexicographic
    order, index_of(w) = sum of (w_i - 1) m^(level - i), and word(v) builds it
    where a word is read.  Every layer works on indices by arithmetic: the copy
    of v under a first symbol j is (j - 1) m^(level - 1) + v, the children of v
    are v m + x for x in 0..m-1, and dropping the last d symbols is v // m^d.
    A block is the m^(level - 1) words sharing a first symbol; a simplex
    crosses blocks when s[0] and s[-1] lie in different ones.

    block_source is the level before, when the generator built this level as
    its m block copies j.N plus crossing simplices (symbolic levels, and
    geometric ones whose cell maps are all nonsingular), and None otherwise,
    as on a level that a truncation sweep built.  The edges inside block j
    are then exactly the copies j.e of block_source's edges, and, when
    neither level has uncertain tuples, so are the simplices of every
    dimension.
    """

    level: int
    m: int
    simplices: dict[int, tuple[tuple[int, ...], ...]]
    dim_cap: int
    complete: bool
    uncertain: tuple[tuple[tuple[int, ...], str], ...] = ()
    block_source: Optional[SimplicialComplex] = field(default=None, repr=False, compare=False)

    @cached_property
    def crossing(self) -> dict[int, list[tuple[int, ...]]]:
        """The simplices of each dimension >= 1 that cross blocks."""
        block = self.m ** (self.level - 1)
        return {dim: [s for s in sims if s[0] // block != s[-1] // block]
                for dim, sims in self.simplices.items() if dim}

    def index_of(self, w: Word) -> int:
        return word_index(self.m, self.level, w)

    def word(self, v: int) -> Word:
        """The word of vertex v: the base-m digits of v, each plus one."""
        return indexed_word(self.m, self.level, v)

    def simplex_counts(self) -> dict[int, int]:
        return {dim: len(sims) for dim, sims in self.simplices.items() if sims}

    def edge_sets(self) -> set[frozenset[int]]:
        return {frozenset(e) for e in self.simplices.get(1, ())}

    def simplex_word_sets(self) -> set[frozenset[Word]]:
        out: set[frozenset[Word]] = set()
        for sims in self.simplices.values():
            for s in sims:
                out.add(frozenset(map(self.word, s)))
        return out

    def euler_characteristic(self) -> int:
        if not self.complete:
            raise ConsistencyError("Euler characteristic undefined on a capped complex")
        return sum((-1) ** dim * len(sims) for dim, sims in self.simplices.items())


def _close_downward(buckets: dict[int, set[tuple[int, ...]]]) -> None:
    # Intersection certificates are monotone: every face of a kept simplex is kept.
    for dim in sorted(buckets, reverse=True):
        if dim == 0:
            continue
        lower = buckets.setdefault(dim - 1, set())
        for s in buckets[dim]:
            for face in combinations(s, dim):
                lower.add(face)


def build_nerve(spec: SystemSpec, level: int, dim_cap: int = 3,
                budget: Budget = Budget()) -> SimplicialComplex:
    """The depth-`level` nerve, with simplices enumerated up to dimension dim_cap."""
    if level < 1:
        raise SpecError("nerve depth must be at least 1")
    if dim_cap < 1:
        raise SpecError("dim_cap must be at least 1")
    if isinstance(spec.backend, TableBackend):
        if level not in spec.backend.levels:
            raise SpecError(f"system {spec.name!r} stores no depth-{level} data")
        key = ("table_level", level, dim_cap)
        if key not in spec._cache:
            spec._cache[key] = _table_level(spec, level, dim_cap)
        return spec._cache[key]
    return _levels(spec, level, dim_cap, budget)[level - 1]


def _table_level(spec: SystemSpec, level: int, dim_cap: int) -> SimplicialComplex:
    """A stored table level up to dim_cap.  The backend keeps it closed under
    faces and sorted by size, then by index, so each dimension is one run."""
    stored = spec.backend.levels[level]
    kept = [s for s in stored if len(s) - 1 <= dim_cap]
    simplices = {0: tuple((v,) for v in range(spec.m ** level))}
    simplices.update((size - 1, tuple(sims)) for size, sims in groupby(kept, len))
    return SimplicialComplex(level, spec.m, simplices, dim_cap, len(kept) == len(stored))


def _levels(spec: SystemSpec, depth: int, dim_cap: int,
            budget: Budget) -> list[SimplicialComplex]:
    """Nerves at depths 1..depth as the backend answers them, generated level
    to level and cached on the spec.

    Depth k+1 is the m block copies j.N_k plus the simplices that cross
    blocks, which only the backend can tell.

    * Block copies.  For a symbolic system the cells of j.w are the images of
      those of w under one cell map.  For a geometric one, when every cell map
      is injective, c_j maps the envelopes, refinement frontiers and
      certificate points of a tuple w one-to-one onto those of j.w, so the
      oracle answers j.w as it answered w, with the same note.
    * Symbolic crossings are the lifts of the depth-1 simplices
      (`oracles.generate_pu_nerve`).
    * Geometric crossings.  Depth 1 queries every pair.  Cells nest, so a pair
      can meet only if its truncation does, and the child of a pair certified
      disjoint is certified disjoint too: its envelopes and refinement
      frontiers lie inside the parent's.  Only children of depth-k edges and
      uncertain pairs (and, without block copies, of single vertices) are
      queried, and no tuple inside one block.  Higher simplices grow as
      cliques over verified simplices.

    Singular cell maps skip the block copies; the parent guidance holds for
    every map that sends the envelope into itself.
    """
    levels = spec._cache.setdefault(("nerve_levels", dim_cap, budget), [])
    symbolic = isinstance(spec.backend, SymbolicPUBackend)
    copies = symbolic or all(f.determinant() != 0 for f in spec.cell_maps)
    while len(levels) < depth:
        prev = levels[-1] if levels else None
        level = len(levels) + 1
        block = spec.m ** prev.level if prev and copies else None
        known, uncertain = _block_copies(prev) if block else ({}, [])
        if symbolic:
            simplices, complete = _lifted_level(spec, level, known, dim_cap)
        else:
            pairs = _candidate_pairs(prev, block) if prev else combinations(range(spec.m), 2)
            simplices, complete = _grow_level(spec, level, pairs, known, uncertain, block,
                                              dim_cap, budget)
        uncertain.sort(key=lambda entry: (len(entry[0]), entry[0]))
        levels.append(SimplicialComplex(level, spec.m, simplices, dim_cap, complete,
                                        tuple(uncertain), prev if block else None))
    return levels


def _block_copies(prev: SimplicialComplex) -> tuple[dict, list]:
    """The simplices (dimension >= 1) and uncertain entries of the m copies
    j.N_k inside depth k+1: vertex v of N_k is vertex (j - 1) m^k + v.
    Edges and triangles are copied as fixed-arity tuples, the bulk of a level."""
    offsets = range(0, prev.m ** (prev.level + 1), prev.m ** prev.level)
    known: dict[int, list[tuple[int, ...]]] = {}
    for dim, sims in prev.simplices.items():
        if dim == 1:
            known[dim] = [(o + a, o + b) for o in offsets for a, b in sims]
        elif dim == 2:
            known[dim] = [(o + a, o + b, o + c) for o in offsets for a, b, c in sims]
        elif dim:
            known[dim] = [tuple(o + v for v in s) for o in offsets for s in sims]
    uncertain = [(tuple(o + v for v in s), note) for o in offsets for s, note in prev.uncertain]
    return known, uncertain


def _lifted_level(spec: SystemSpec, level: int, known: dict[int, list[tuple[int, ...]]],
                  dim_cap: int) -> tuple[dict[int, tuple[tuple[int, ...], ...]], bool]:
    """A symbolic level's simplices, the block copies `known` plus the lifts up
    to dim_cap, and whether they are complete.

    N_1 is closed under faces and the lift of a face is the face of the lift,
    so the lifts, and with them the level, are closed under faces too.
    """
    lifts = oracles.generate_pu_nerve(spec, level)
    for lift in lifts:
        if len(lift) - 1 <= dim_cap:
            known.setdefault(len(lift) - 1, []).append(lift)
    simplices = {0: tuple((v,) for v in range(spec.m ** level))}
    simplices.update((dim, tuple(sorted(sims))) for dim, sims in sorted(known.items()))
    return simplices, all(len(lift) - 1 <= dim_cap for lift in lifts)


def _candidate_pairs(prev: SimplicialComplex, block: Optional[int]) -> list[tuple[int, int]]:
    """The pairs of cells the oracle is asked about at the depth after `prev`:
    the children of the parent pairs that may meet, leaving out pairs inside
    one block when blocks are copied."""
    m = prev.m
    pairs = list(prev.simplices.get(1, ()))
    pairs += [s for s, _note in prev.uncertain if len(s) == 2]
    if block:
        parent_block = block // m
        pairs = [(a, b) for a, b in pairs if a // parent_block != b // parent_block]
    else:
        pairs += [(v, v) for v in range(m ** prev.level)]  # siblings share a parent cell
    return sorted({(a * m + x, b * m + y) for a, b in pairs
                   for x in range(m) for y in range(m) if a * m + x < b * m + y})


def _grow_level(spec: SystemSpec, level: int, pairs: Iterable[tuple[int, int]],
                known: dict[int, list[tuple[int, ...]]], uncertain: list,
                block: Optional[int], dim_cap: int,
                budget: Budget) -> tuple[dict[int, tuple[tuple[int, ...], ...]], bool]:
    """Query `pairs`, then grow cliques; return the simplices and whether they
    are complete, and add the undecided tuples to `uncertain`.  Tuples
    inside one block of `block` consecutive words are not queried: `known`
    simplices and the `uncertain` entries passed in already hold their
    answers."""
    n = spec.m ** level
    word = cache(partial(indexed_word, spec.m, level))
    edges = set(known.get(1, ()))
    for pair in pairs:
        verdict = oracles.cells_intersect(spec, tuple(map(word, pair)), budget)
        if verdict.kind == "intersect":
            edges.add(pair)
        elif verdict.kind == "unknown":
            uncertain.append((pair, verdict.note))
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    buckets: dict[int, set[tuple[int, ...]]] = {0: {(i,) for i in range(n)}, 1: edges}

    # Higher simplices are cliques whose tuple of cells passes the oracle;
    # a clique with a missing or disjoint sub-tuple can never certify, so
    # candidates grow from verified simplices only.
    current = edges
    for dim in range(2, dim_cap + 1):
        verified = set(known.get(dim, ()))
        for s in sorted(current):
            shared = set.intersection(*(adjacency[v] for v in s))
            for v in sorted(shared):
                if v <= s[-1] or (block and s[0] // block == v // block):
                    continue
                candidate = s + (v,)
                verdict = oracles.cells_intersect(spec, tuple(map(word, candidate)), budget)
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
    simplices = {dim: tuple(sorted(sims)) for dim, sims in sorted(buckets.items())}
    return simplices, complete


@dataclass
class SimplicialMap:
    """A vertex map from `source` into `target`, the input of
    `homology.induced_rank`.  Nothing is checked when it is built;
    `induced_rank` raises ConsistencyError when it sends a simplex of the
    dimension it reads outside the target."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: Sequence[int]


def _truncate(simplex: tuple[int, ...], ratio: int) -> tuple[int, ...]:
    """The image of one simplex under v -> v // ratio."""
    return tuple(sorted({v // ratio for v in simplex}))


def _copy_built_pair(long: SimplicialComplex, short: SimplicialComplex) -> bool:
    """Whether `long` is the m block copies of `short` plus crossing simplices,
    `short` is copies of the level below it, and neither has uncertain tuples."""
    return (long.block_source is short and short.block_source is not None
            and not long.uncertain and not short.uncertain)


def truncation_map(long: SimplicialComplex, short: SimplicialComplex) -> SimplicialComplex:
    """Check the drop-last-symbols map v -> v // m^d from `long` onto
    `short`, in one pass over the simplices of `long`, and return its
    target level.  Neither level is changed.

    Simpliciality is a soundness requirement.  An image missing from `short`
    raises, unless `short` has uncertain tuples: then the simplex above the
    image certifies it (cells only grow under truncation).  The target is
    then a new level: `short` with the images added and the uncertain
    entries they resolve dropped.  The faces of an image are the images of
    faces of that simplex, so the same pass adds them.  Otherwise the target
    is `short` itself.  A level without uncertain tuples is exact up to its
    cap, and table levels are checked to form a tower when the backend is
    built, so neither gains anything.  Surjectivity holds for true nerves and
    is checked whenever both levels are free of uncertain tuples.

    Copy-built pairs check only the simplices that cross blocks.  When `long`
    is depth k+1 built as the block copies of `short` (its `block_source`),
    `short` is depth k >= 2 built as copies of depth k-1, and neither has
    uncertain tuples, then a simplex inside block j of `long` is j.s for a
    simplex s of `short`, and its image is j.t(s), where t truncates depth k
    onto depth k-1.  `tower_complexes` checks t as the next pair of the same
    call (a lone call relies on the generator's own pair below), so t(s) lies
    in depth k-1 and j.t(s) in block j of `short`, its copy j.N_{k-1}; and t
    onto depth k-1 covers it, so every simplex inside a block of `short` is
    an image.  A crossing simplex maps into the blocks of its own first
    symbols, so its image crosses too.  The images of `long`'s crossing
    simplices must therefore lie among `short`'s crossing simplices and
    cover them.  Depth 1, table levels, singular cell maps, levels with
    uncertain tuples (the certificate sweep) and non-consecutive depths take
    the full pass.
    """
    if long.m != short.m or long.level <= short.level:
        raise SpecError("truncation needs two depths of one system, deeper first")
    ratio = long.m ** (long.level - short.level)
    if _copy_built_pair(long, short):
        sources, targets = long.crossing, short.crossing
    else:
        sources, targets = long.simplices, short.simplices
    target = {dim: set(sims) for dim, sims in targets.items()}
    images: dict[int, set[tuple[int, ...]]] = {dim: set() for dim in range(short.dim_cap + 1)}
    swept = False
    for sims in sources.values():
        for s in sims:
            image = _truncate(s, ratio)
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


@dataclass
class TowerData:
    """Nerves at depths 1..K and their components."""

    spec: SystemSpec
    dim_cap: int
    budget: Budget
    complexes: list[SimplicialComplex]
    components: list[ComponentsLevel]

    @property
    def depth(self) -> int:
        return len(self.complexes)

    def complex_at(self, level: int) -> SimplicialComplex:
        return self.complexes[level - 1]


def tower_complexes(spec: SystemSpec, depth: int, dim_cap: int = 3,
                    budget: Budget = Budget()) -> TowerData:
    """Build nerves for depths 1..depth and check the truncations between them.

    One `truncation_map` per pair of consecutive depths, deepest pair first;
    each level is replaced by the target it returns, so certificates swept
    into a level reach the level below it too.  The levels `build_nerve`
    returns are left as they are.  No map is kept: truncation is v // m on
    vertex indices.  The components of a level that copies the tower's level
    below come from that level's components.
    """
    complexes = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    for k in range(len(complexes) - 1, 0, -1):
        complexes[k - 1] = truncation_map(complexes[k], complexes[k - 1])
    levels: list[ComponentsLevel] = []
    for k, complex_ in enumerate(complexes):
        copied = k and complex_.block_source is complexes[k - 1]
        levels.append(components(complex_, levels[-1] if copied else None))
    return TowerData(spec, dim_cap, budget, complexes, levels)


def block_subcomplex(complex_: SimplicialComplex, prefix: Word) -> SimplicialComplex:
    """The full subcomplex on words starting with `prefix`, reindexed by suffix.

    The result lives at depth level - len(prefix) with suffix words as its
    vertices, so it can be compared directly with the nerve at that depth.
    """
    drop = len(prefix)
    if drop < 1 or drop >= complex_.level:
        raise SpecError("prefix length must be between 1 and level - 1")
    if prefix.m != complex_.m:
        raise SpecError("prefix alphabet disagrees with the complex")
    sub_level = complex_.level - drop
    n = complex_.m ** sub_level
    # the words starting with `prefix` are one index range, from prefix.1...1 on
    first = symbols_index(complex_.m, prefix.symbols) * n
    inside = {dim: tuple(tuple(v - first for v in s) for s in sims
                         if first <= s[0] and s[-1] < first + n)
              for dim, sims in complex_.simplices.items()}
    simplices = {dim: sims for dim, sims in inside.items() if sims}
    uncertain = tuple((tuple(v - first for v in s), note) for s, note in complex_.uncertain
                      if first <= s[0] and s[-1] < first + n)
    return SimplicialComplex(sub_level, complex_.m, simplices,
                             complex_.dim_cap, complex_.complete, uncertain)


def build_iterate_or_subsystem(spec: SystemSpec, generator_words: Sequence[Word],
                               name: Optional[str] = None) -> SystemSpec:
    """The system generated by the composites named by `generator_words`.

    For forward systems the word w contributes the composite with the first
    symbol outermost; for backward systems the opposite order, so that the
    composite's inverse is again first-symbol-outermost.  The envelope is
    inherited and re-validated.
    """
    if not spec.is_geometric:
        raise SpecError("derived systems need the geometric backend")
    gens = tuple(generator_words)
    if len(gens) < 2:
        raise SpecError("a derived system needs at least 2 generator words")
    if len(set(gens)) != len(gens):
        raise SpecError("generator words must be distinct")
    maps = []
    for w in gens:
        if w.m != spec.m or len(w) == 0:
            raise SpecError(f"bad generator word {w}")
        chain = w.symbols if spec.orientation == "forward" else w.symbols[::-1]
        g = spec.backend.maps[chain[0] - 1]
        for symbol in chain[1:]:
            g = compose(g, spec.backend.maps[symbol - 1])
        maps.append(g)
    label = name or f"{spec.name}-sub-" + "-".join(str(w) for w in gens)
    return SystemSpec(label, spec.orientation, len(gens),
                      GeometricBackend(maps, spec.backend.envelope))


def iterate_system(spec: SystemSpec, n: int, name: Optional[str] = None) -> SystemSpec:
    """The n-th iterate: one generator per length-n word, in lexicographic order."""
    if n < 1:
        raise SpecError("iterate order must be at least 1")
    label = name or f"{spec.name}-iterate-{n}"
    return build_iterate_or_subsystem(spec, enumerate_words(spec.m, n), label)
