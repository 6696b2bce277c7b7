"""Nerve complexes of cell covers, truncation maps between depths, and derived systems.

The depth-k nerve has one vertex per length-k word (cells are never empty) and
a simplex for every tuple of words whose cells share a point.  Dropping the
last symbol of every word induces a simplicial surjection from depth k+1 onto
depth k, v -> v // m on vertex indices; a tower checks each one as it is built.

A level the generator builds as the m block copies j.N_k of the level below
stores only that level (its block source) and the simplices that cross
blocks.  On a postunbranched system those are the lifts of N_1's simplices
along the overlap addresses (`oracles.generate_pu_nerve`, for symbolic and
certified geometric systems alike, whoever asks for the level), a constant
handful per level, so counts, truncation checks, components and the
block-diagonal boundary ranks read only what each level adds; the full
simplex lists are expanded only for a reader that needs every simplex.  A
level swept from interval ends stands alone: it stores its intervals, its
counts and the pairs of blocks an edge joins, which are N_1's edges at every
depth, and lists no simplex until one is read.

Oracle answers of Unknown do not abort construction: the affected tuples are
excluded from the complex and recorded in its `uncertain` log, so downstream
reports can say exactly which conclusions are conditional.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache, cached_property, partial
from itertools import combinations, groupby
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from . import oracles
from .classify import lift_addresses
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
from .words import Word, _Frozen, _Record, enumerate_words, indexed_word, word_index

Simplices = tuple[tuple[int, ...], ...]


class IntervalCover(_Frozen):
    """What the sweep of an envelope-exact level found (`_swept_level`): its
    cells as integer intervals over den^level (`oracles.interval_ends`), its
    simplices counted by dimension from 1, and the pairs of blocks (j, k),
    j < k, from 0, that an edge joins, each listed once: N_1's edges.  Its
    intervals leave no gap: the sweep refuses a level that has one."""

    __slots__ = _fields = ("ends", "den", "counts", "crossing")
    ends: Sequence[tuple[int, int]]
    den: int
    counts: dict[int, int]
    crossing: tuple[tuple[int, int], ...]


class SimplicialComplex(_Frozen):
    """A finite simplicial complex on the depth-`level` words of a system: a
    fixed value, never changed once built.

    Vertices are implicit: they are range(m^level), one per word.  A simplex
    is a sorted tuple of vertex indices.  `added` maps each dimension >= 1 to
    the sorted simplices this level adds to the copies of its block source,
    which are all of its simplices when block_source is None.  Dimensions are
    enumerated up to dim_cap; `complete` records whether that enumeration is
    in fact the whole nerve (no larger simplex can exist), which is what makes
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

    block_source is the level before when the generator built this level as
    its m block copies j.N plus crossing simplices, and None otherwise.  This
    is the block-copy licence every reader takes: a level with a block source
    has no uncertain tuples, its simplices inside block j are exactly the
    copies j.s of its source's, `added` holds exactly the ones that cross
    blocks, and its source has no uncertain tuples and is depth 1 or has a
    block source itself.  Depth 1, table levels, levels under singular cell
    maps, levels with uncertain tuples and levels a truncation sweep built
    store every simplex in `added`.

    cover is set on a level swept from interval ends (`_swept_level`), which
    stands alone: no block source, `added` empty and nothing uncertain.  It
    is the nerve of its intervals up to dim_cap, where a tuple is a simplex
    when its intervals share a point, max lo <= min hi (Helly 1923); the
    cover counts its simplices, and its intervals leave no gap.

    Readers take what they need: `simplex_counts` follows E_k = m E_{k-1} +
    c_k or reads the cover's counts, membership, `neighbours` and
    `components` go down the block sources, and `simplices_of` /
    `simplices` expand the copies, or sweep the cover's ends, for a reader
    that needs every simplex (reports, `homology.betti`).
    """

    _fields = ("level", "m", "added", "dim_cap", "complete", "uncertain", "block_source",
               "cover")
    _defaults = {"uncertain": (), "block_source": None, "cover": None}
    __slots__ = _fields + ("__dict__",)  # the __dict__ holds the cached_property values
    level: int
    m: int
    added: dict[int, Simplices]
    dim_cap: int
    complete: bool
    uncertain: tuple[tuple[tuple[int, ...], str], ...]
    block_source: Optional[SimplicialComplex]
    cover: Optional[IntervalCover]

    def replace(self, **changes) -> SimplicialComplex:
        """This complex with the named fields changed, built anew."""
        return SimplicialComplex(**{**dict(zip(self._fields, self._astuple())), **changes})

    def __repr__(self) -> str:
        # The block source (every level below) and the cover are left out.
        return ("SimplicialComplex(" + ", ".join(f"{name}={getattr(self, name)!r}"
                                                 for name in self._fields[:-2]) + ")")

    @cached_property
    def _expanded(self) -> dict[int, Simplices]:
        """The simplices that simplices_of expanded, by dimension."""
        return {}

    def index_of(self, w: Word) -> int:
        return word_index(self.m, self.level, w)

    def word(self, v: int) -> Word:
        """The word of vertex v: the base-m digits of v, each plus one."""
        return indexed_word(self.m, self.level, v)

    @cached_property
    def _counts(self) -> dict[int, int]:
        counts = {0: self.m ** self.level}
        if self.block_source is not None:
            counts.update((dim, self.m * n) for dim, n in self.block_source._counts.items() if dim)
        added = {dim: len(sims) for dim, sims in self.added.items() if dim and sims}
        for dim, n in (self.cover.counts if self.cover else added).items():
            counts[dim] = counts.get(dim, 0) + n
        return dict(sorted(counts.items()))

    def simplex_counts(self) -> dict[int, int]:
        """The number of simplices of each nonempty dimension, m times those of
        the block source plus those added, or those the cover counted, without
        expanding any."""
        return dict(self._counts)

    def simplices_of(self, dim: int) -> Simplices:
        """The sorted simplices of one dimension, expanded from the block
        source on a copy-built level, or swept from the cover's ends (and
        kept); vertices are built here."""
        if dim == 0:
            return tuple((v,) for v in range(self.m ** self.level))
        if self.block_source is None and self.cover is None:
            return self.added.get(dim, ())
        if dim not in self._expanded:
            if self.cover is not None:
                # every simplex, listed once: under its last-starting vertex
                listed = [tuple(sorted(s + (v,))) for v, active in _sweep(self.cover.ends)
                          for s in combinations(active, dim)] if dim <= self.dim_cap else []
            else:
                block = self.m ** (self.level - 1)
                listed = [tuple(o + v for v in s) for o in range(0, self.m * block, block)
                          for s in self.block_source.simplices_of(dim)]
                listed += self.added.get(dim, ())
            self._expanded[dim] = tuple(sorted(listed))
        return self._expanded[dim]

    @property
    def simplices(self) -> dict[int, Simplices]:
        """Every simplex, by nonempty dimension (`simplices_of` each)."""
        return {dim: self.simplices_of(dim) for dim in self._counts}

    @cached_property
    def _added_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(s for dim, sims in self.added.items() if dim for s in sims)

    def __contains__(self, simplex: tuple[int, ...]) -> bool:
        """Whether a sorted tuple of vertex indices is a simplex: one inside a
        block is looked up as the block source's simplex it copies, and a
        level with a cover tests whether the intervals share a point."""
        if len(simplex) == 1:
            return 0 <= simplex[0] < self.m ** self.level
        level = self
        while level.block_source is not None:
            block = level.m ** (level.level - 1)
            first = simplex[0] - simplex[0] % block
            if simplex[-1] >= first + block:
                break
            simplex = tuple(v - first for v in simplex)
            level = level.block_source
        if level.cover is None:
            return simplex in level._added_set
        ends = level.cover.ends
        return (list(simplex) == sorted(set(simplex)) and len(simplex) <= level.dim_cap + 1
                and 0 <= simplex[0] and simplex[-1] < len(ends)
                and max(ends[v][0] for v in simplex) <= min(ends[v][1] for v in simplex))

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        near: dict[int, set[int]] = {}
        for a, b in self.simplices_of(1) if self.block_source is None else self.added.get(1, ()):
            near.setdefault(a, set()).add(b)
            near.setdefault(b, set()).add(a)
        return {v: frozenset(us) for v, us in near.items()}

    def neighbours(self, v: int) -> frozenset[int]:
        """The vertices that share an edge with v: the block source's
        neighbours of v's copy, shifted into v's block, and the added ones."""
        own = self._adjacency.get(v, frozenset())
        if self.block_source is None:
            return own
        block = self.m ** (self.level - 1)
        first = v - v % block
        return own.union(first + u for u in self.block_source.neighbours(v - first))

    @cached_property
    def components(self) -> ComponentsLevel:
        """The components of the 1-skeleton (`components.components`), found
        once per level."""
        return components(self)


def build_nerve(spec: SystemSpec, level: int, dim_cap: int = 3,
                budget: Budget = Budget()) -> SimplicialComplex:
    """The depth-`level` nerve, with simplices enumerated up to dimension
    dim_cap (`_levels`)."""
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
    added = {size - 1: tuple(sims) for size, sims in groupby(kept, len)}
    return SimplicialComplex(level, spec.m, added, dim_cap, len(kept) == len(stored))


def _levels(spec: SystemSpec, depth: int, dim_cap: int,
            budget: Budget) -> list[SimplicialComplex]:
    """Nerves at depths 1..depth as the backend answers them, generated level
    to level and cached on the spec.

    Depth k+1 is the m block copies j.N_k plus the simplices that cross
    blocks, which only the backend can tell; a swept level stands alone.

    * Block copies.  For a symbolic system the cells of j.w are the images of
      those of w under one cell map.  For a geometric one, when every cell map
      is injective, c_j maps the envelopes, refinement frontiers and
      certificate points of a tuple w one-to-one onto those of j.w, so the
      oracle answers j.w as it answered w, with the same note.
    * Lifted crossings are the lifts of N_1's simplices, with no oracle
      query (`oracles.generate_pu_nerve`, which states the licence): on a
      symbolic system, and past depth 1 on an injective geometric one with
      an exact N_1 whose addresses `classify.lift_addresses` certifies.
    * Oracle crossings, on any other geometric level.  Depth 1 reads every
      pair's verdict, with its note, from the kept pair table
      (`oracles._overlaps`) that the overlap checks read too, so no pair is
      asked twice at any dim cap, and queries only its larger tuples, whose
      meets come from kept pair meets where they can
      (`oracles._envelope_meet`).  Cells nest, so a pair can meet only if
      its truncation does, and the child of a pair certified disjoint is
      certified disjoint too: its envelopes and refinement frontiers lie
      inside the parent's.  Only
      children of depth-k edges and uncertain pairs that cross blocks (and,
      without block copies, of every edge and single vertex) are queried, and
      no tuple inside one block.  Higher simplices grow as cliques.
    * Interval sweeps.  On a spec that passes `oracles.envelope_exact`,
      every cell is its envelope, an interval or a point on one line, and
      each level is one sweep over its interval ends (`_swept_level`),
      standing alone: no block copies, envelope meet, candidate pair or
      clique search, no oracle query, no uncertain tuple, and no list.
    * One-point parent meets.  When the cell maps are injective and the
      envelopes of a parent pair (a, b) meet in one point p, only the
      children a x with f_a^-1(p) in env(x) and b y with f_b^-1(p) in env(y)
      are paired.  check_envelope makes env(child) lie in env(parent), so
      env(a x) and env(b y) meet at most in p; a pair left out has an empty
      envelope meet, which `cells_intersect` answers disjoint(0), and a
      disjoint pair leaves no trace in the level.  Segment and polygon
      meets, and singular maps, keep all m^2 children.

    Singular cell maps skip the block copies; the parent guidance holds for
    every map that sends the envelope into itself.  A level whose copies or
    crossings hold uncertain tuples keeps every simplex, so that a truncation
    sweep can add to it.
    """
    levels = spec._cache.setdefault(("nerve_levels", dim_cap, budget), [])
    symbolic = isinstance(spec.backend, SymbolicPUBackend)
    copies = symbolic or spec.injective
    while len(levels) < depth:
        level = len(levels) + 1
        if oracles.envelope_exact(spec):
            levels.append(_swept_level(spec, level, dim_cap))
            continue
        prev = levels[-1] if levels else None
        source = prev if copies else None
        uncertain = [] if source is None else [
            (tuple(o + v for v in s), note)
            for o in range(0, spec.m ** level, spec.m ** prev.level) for s, note in prev.uncertain]
        addresses = None if symbolic or not copies or level == 1 or levels[0].uncertain \
            else lift_addresses(spec, budget)
        if symbolic or addresses is not None:
            n1 = None if symbolic else [tuple(v + 1 for v in s)
                                        for sims in levels[0].added.values() for s in sims]
            lifts = oracles.generate_pu_nerve(spec, level, n1, addresses)
            added = {dim: tuple(s for s in lifts if len(s) == dim + 1)
                     for dim in sorted({len(s) - 1 for s in lifts}) if dim <= dim_cap}
            complete = all(len(s) <= dim_cap + 1 for s in lifts) and (prev is None or prev.complete)
        else:
            pairs = _candidate_pairs(spec, prev, copies) if prev else combinations(range(spec.m), 2)
            added, complete = _grow_level(spec, level, pairs, source, uncertain, dim_cap, budget)
        uncertain.sort(key=lambda entry: (len(entry[0]), entry[0]))
        built = SimplicialComplex(level, spec.m, added, dim_cap, complete, tuple(uncertain),
                                  source)
        if uncertain and source is not None:
            built = built.replace(added={dim: built.simplices_of(dim)
                                         for dim in built.simplex_counts() if dim},
                                  block_source=None)
        levels.append(built)
    return levels


def _swept_level(spec: SystemSpec, level: int, dim_cap: int) -> SimplicialComplex:
    """An envelope-exact level from one sweep over its interval ends
    (`oracles.interval_ends`), standing alone: no block source, nothing in
    `added`, and a cover that counts its simplices of each dimension up to
    dim_cap and lists the pairs of blocks an edge joins, once each.

    Licence: every cell is its envelope, a closed interval of the envelope's
    line (`oracles.envelope_exact`), and intervals that meet pairwise share a
    point (Helly 1923), the largest of their left ends.  Sweeping the
    vertices by (lo, index), the active list A_v holds the earlier u with
    hi_u >= lo_v, so the simplices whose last-starting vertex is v are v
    with each S in A_v of at most dim_cap vertices, each found once (the
    interval-graph sweep; Golumbic, Algorithmic Graph Theory and Perfect
    Graphs, 1980): C(|A_v|, d) of dimension d, and one edge u v for each u
    in A_v, counted as one C per distinct size |A_v|.  The level is complete
    when the sweep counts no simplex of dimension dim_cap + 1.

    Coverage is an invariant, not a flag.  The depth-1 intervals cover
    [0, D] (the licence), and block j of depth k is phi_j of depth k - 1,
    whose union is E, so the intervals of every level leave no gap.  An
    empty A_v past the first vertex is a gap, and raises ConsistencyError.
    For the same reason the union of block j is phi_j(E), the depth-1
    interval j, so blocks j and k hold two intervals that meet exactly when
    the depth-1 intervals j and k meet: the block pairs an edge joins are
    N_1's edges at every depth, read off the depth-1 ends in O(m^2), with no
    edge counted.
    """
    ends = oracles.interval_ends(spec, level)
    sizes: dict[int, int] = {}  # |A_v| -> how many v
    for i, (v, active) in enumerate(_sweep(ends)):
        if i and not active:
            raise ConsistencyError(f"the depth-{level} intervals of the envelope-exact system "
                                   f"{spec.name!r} leave a gap before vertex {v}")
        sizes[len(active)] = sizes.get(len(active), 0) + 1
    counts = {dim: sum(n * comb(size, dim) for size, n in sizes.items())
              for dim in range(1, dim_cap + 2)}
    base = oracles.interval_ends(spec, 1)
    crossing = tuple((j, k) for j, k in combinations(range(spec.m), 2)
                     if base[k][0] <= base[j][1] and base[j][0] <= base[k][1])
    cover = IntervalCover(ends, oracles._line_maps(spec)[1],
                          {dim: n for dim, n in counts.items() if n and dim <= dim_cap}, crossing)
    return SimplicialComplex(level, spec.m, {}, dim_cap, not counts[dim_cap + 1], cover=cover)


def _sweep(ends: Sequence[tuple[int, int]]) -> Iterator[tuple[int, list[int]]]:
    """Each vertex v in order of (lo, index), with its active list A_v: the
    earlier vertices whose intervals reach lo_v.  A_v is read before the
    next vertex, which changes it in place.

    A_v is kept ordered by hi, so the intervals that end before lo_v are a
    prefix, found by bisection and cut off: each vertex costs two bisections
    and two list moves, not a pass over A_v in Python.  A vertex cut off stays off, since
    the later lo are no smaller."""
    active: list[int] = []
    his: list[int] = []
    for v in sorted(range(len(ends)), key=lambda v: ends[v][0]):
        lo, hi = ends[v]
        cut = bisect_left(his, lo)
        del active[:cut], his[:cut]
        yield v, active
        at = bisect_right(his, hi)
        active.insert(at, v)
        his.insert(at, hi)


def _candidate_pairs(spec: SystemSpec, prev: SimplicialComplex,
                     copies: bool) -> list[tuple[int, int]]:
    """The pairs of cells the oracle is asked about at the depth after `prev`:
    the children of the parent pairs that may meet, leaving out pairs inside
    one block when blocks are copied.  A child of a pair crosses blocks
    exactly when the pair crosses the blocks of `prev`.  A parent pair whose
    envelopes meet in one point, on an injective system, keeps only the
    children whose envelopes hold that point (`oracles.touching_children`);
    any other keeps all m^2."""
    m = prev.m
    pairs = list(prev.added.get(1, ()))
    pairs += [s for s, _note in prev.uncertain if len(s) == 2]
    if copies:
        block = m ** (prev.level - 1)
        pairs = [(a, b) for a, b in pairs if a // block != b // block]
    else:
        pairs += [(v, v) for v in range(m ** prev.level)]  # siblings share a parent cell
    word = partial(indexed_word, m, prev.level)
    children = set()
    for a, b in pairs:
        kept = oracles.touching_children(spec, (word(a), word(b))) or [range(1, m + 1)] * 2
        children.update((a * m + x - 1, b * m + y - 1) for x in kept[0] for y in kept[1]
                        if a * m + x < b * m + y)
    return sorted(children)


def _grow_level(spec: SystemSpec, level: int, pairs: Iterable[tuple[int, int]],
                source: Optional[SimplicialComplex], uncertain: list, dim_cap: int,
                budget: Budget) -> tuple[dict[int, Simplices], bool]:
    """Query `pairs`, then grow cliques; return the simplices the level adds
    to the block copies of `source` (every simplex when there is none) and
    whether the level is complete, and add the undecided tuples to
    `uncertain`.  Tuples inside one block are not queried: the copies and
    the `uncertain` entries passed in already hold their answers.  Depth-1
    pairs are read from the kept pair table (`_levels`).

    A candidate d-simplex is a verified (d-1)-simplex t[:-1] extended by a
    common neighbour t[-1] above it.  With block copies the candidates that
    are not copies cross blocks, so t[0] t[-1] is a crossing edge: each
    candidate is a queried edge (a, b) with d - 1 common neighbours of a and
    b between them, and finding those neighbours goes through the block
    source.  The level is complete when no clique extends past dim_cap: none
    that crosses, and none inside a block, which the source's flag tells.

    No pass closes the level under faces.  The oracle is monotone (fewer
    words only enlarge the envelope meet and the shared certified points), so
    it certifies every face of a certified candidate.  A face inside a block
    copies a source tuple that is answered alike; any other face was a
    candidate itself: its prefix is a face of a verified prefix, and its
    other vertices are common neighbours of its ends.
    """
    word = cache(partial(indexed_word, spec.m, level))
    known = {(i - 1, j - 1): verdict for (i, j), (verdict, _points)
             in oracles._overlaps(spec, budget).items()} if level == 1 else {}

    def holds(candidate: tuple[int, ...]) -> bool:
        verdict = known.get(candidate)
        if verdict is None:
            verdict = oracles.cells_intersect(spec, tuple(map(word, candidate)), budget)
        if verdict.kind == "unknown":
            uncertain.append((candidate, verdict.note))
        return verdict.kind == "intersect"

    found: dict[int, set[tuple[int, ...]]] = {1: {pair for pair in pairs if holds(pair)}}
    # the queried edges over the copies of `source`: the level's neighbours,
    # and its simplices inside one block
    graph = SimplicialComplex(level, spec.m, {1: tuple(found[1])}, dim_cap, True, (), source)
    between = {(a, b): sorted(v for v in graph.neighbours(a) & graph.neighbours(b) if a < v < b)
               for a, b in found[1]}
    complete = True
    for dim in range(2, dim_cap + 2):
        candidates = ((a,) + middle + (b,) for (a, b), inner in between.items()
                      for middle in combinations(inner, dim - 1)
                      if (a,) + middle in found[dim - 1] or (a,) + middle in graph)
        if dim > dim_cap:
            complete = next(candidates, None) is None and (source is None or source.complete)
            break
        found[dim] = {candidate for candidate in candidates if holds(candidate)}
        if not found[dim] and not (source is not None and source.simplex_counts().get(dim)):
            break

    return {dim: tuple(sorted(sims)) for dim, sims in sorted(found.items()) if sims}, complete


class SimplicialMap(_Record):
    """A vertex map from `source` into `target`, the input of
    `homology.induced_rank`.  Nothing is checked when it is built;
    `induced_rank` raises ConsistencyError when it sends a simplex of the
    dimension it reads outside the target."""

    __slots__ = _fields = ("source", "target", "vertex_map")
    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: Sequence[int]


def _truncate(simplex: tuple[int, ...], ratio: int) -> tuple[int, ...]:
    """The image of one simplex under v -> v // ratio."""
    return tuple(sorted({v // ratio for v in simplex}))


def truncation_map(long: SimplicialComplex, short: SimplicialComplex) -> SimplicialComplex:
    """Check the drop-last-symbols map v -> v // m^d from `long` onto
    `short`, in one pass over the simplices `long` stores, and return its
    target level.  Neither level is changed.

    Vertices map onto vertices, so only simplices of dimension >= 1 are
    read, and each image is looked up in `short` (`in`, down its block
    sources).  Simpliciality is a soundness requirement.  An image missing
    from `short` raises, unless `short` has uncertain tuples: then the
    simplex above the image certifies it (cells only grow under truncation).
    The target is then a new level: `short` with the images added and the
    uncertain entries they resolve dropped.  The faces of an image are the
    images of faces of that simplex, so the same pass adds them.  Otherwise
    the target is `short` itself.  A level without uncertain tuples is exact
    up to its cap, and table levels are checked to form a tower when the
    backend is built, so neither gains anything.  Surjectivity holds for
    true nerves and is checked, by counting distinct images, whenever both
    levels are free of uncertain tuples.

    When `long` copies `short` (the block-copy licence of SimplicialComplex)
    it stores only its crossing simplices.  A simplex inside block j of
    `long` is j.s for a simplex s of `short`.  At depth k = 1 its image is
    the vertex j.  At k >= 2 `short` copies depth k-1, and the image is
    j.t(s), where t truncates depth k onto depth k-1.  `tower_complexes`
    checks t as the next pair of the same call (a lone call relies on the
    generator's own pair below), so t(s) lies in depth k-1 and j.t(s) in
    block j of `short`, its copy j.N_{k-1}; and t onto depth k-1 covers it,
    so every simplex inside a block of `short` is an image.  A crossing
    simplex maps into the blocks of its own first symbols, so its image
    crosses too.  The images must therefore cover the crossing simplices
    `short` stores.  Any other `long` stores every simplex (one that copies
    a level other than `short` is expanded), and the images must cover
    every simplex of `short`.

    When both levels have a cover and one dim_cap (the nesting licence),
    each interval of `long` must lie in its parent's, scaled by den^d:
    m^level comparisons, and no simplex read.  A point common to some cells
    lies in their parents, so the map is simplicial; each cell is the union
    of its children's (`oracles.envelope_exact`), so a point common to some
    cells of `short` lies in a child of each, and the map is surjective.  A
    level with a cover stores no simplex, so against any other level, or one
    capped otherwise, it is read whole (its sweep lists every simplex).
    """
    if long.m != short.m or long.level <= short.level:
        raise SpecError("truncation needs two depths of one system, deeper first")
    ratio = long.m ** (long.level - short.level)
    if long.cover and short.cover and long.dim_cap == short.dim_cap:
        scale = long.cover.den ** (long.level - short.level)
        parents = short.cover.ends
        for v, (lo, hi) in enumerate(long.cover.ends):
            if lo < parents[v // ratio][0] * scale or hi > parents[v // ratio][1] * scale:
                raise ConsistencyError(f"truncation is not simplicial: the cell of vertex {v} "
                                       f"of depth {long.level} leaves its parent's")
        return short
    copied = long.block_source is short
    sources = long.added if copied or not (long.block_source or long.cover) else long.simplices
    images: dict[int, set[tuple[int, ...]]] = {}
    missing: set[tuple[int, ...]] = set()
    for sims in (sims for dim, sims in sources.items() if dim):
        for s in sims:
            image = _truncate(s, ratio)
            dim = len(image) - 1
            if image in images.setdefault(dim, set()):
                continue
            if dim > short.dim_cap:
                raise ConsistencyError("target complex capped below an image simplex")
            if dim and image not in short:
                if not short.uncertain:
                    raise ConsistencyError(
                        f"truncation is not simplicial: {s} maps outside depth {short.level}"
                    )
                missing.add(image)
            images[dim].add(image)
    if missing:
        target = {dim: set(sims) for dim, sims in short.added.items() if dim}
        for image in missing:
            target.setdefault(len(image) - 1, set()).add(image)
        short = short.replace(
            added={dim: tuple(sorted(sims)) for dim, sims in sorted(target.items()) if sims},
            uncertain=tuple(entry for entry in short.uncertain if entry[0] not in missing))
    if not long.uncertain and not short.uncertain:
        counts = ({dim: len(sims) for dim, sims in short.added.items()} if copied
                  else short.simplex_counts())
        if any(len(images.get(dim, ())) != n for dim, n in counts.items() if dim):
            raise ConsistencyError(
                f"truncation from depth {long.level} misses simplices of depth {short.level}")
    return short


class TowerData(_Record):
    """Nerves at depths 1..K and their components."""

    __slots__ = _fields = ("spec", "dim_cap", "complexes", "components")
    spec: SystemSpec
    dim_cap: int
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
    vertex indices.  Each level's components are its own (`components`), so
    a level that copies the level below starts from that level's.
    """
    complexes = [build_nerve(spec, k, dim_cap, budget) for k in range(1, depth + 1)]
    for k in range(len(complexes) - 1, 0, -1):
        complexes[k - 1] = truncation_map(complexes[k], complexes[k - 1])
    return TowerData(spec, dim_cap, complexes, [c.components for c in complexes])


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
