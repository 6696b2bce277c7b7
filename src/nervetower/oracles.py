"""Cell-intersection oracles for self-similar systems.

A system is m generator maps plus an orientation.  The depth-k cell of a word
w = w_1 ... w_k is the image of the invariant set under the composition
c_{w_1} o ... o c_{w_k}, where c_j is the generator itself for forward systems
and its inverse for backward systems (first symbol outermost).  Nerve
construction reduces to one question: do the cells of a tuple of words share
a point?

Three backends describe a system.  `cells_intersect` answers for the
geometric one; a table or symbolic tuple of words shares a point exactly when
its vertex indices (`index_of`) form a simplex of `nerve.build_nerve(spec, k)`.

* geometric: exact rational affine maps in the plane.  Intersections are
  certified by exhibiting a common eventually periodic limit point;
  disjointness by refining cells until convex envelopes separate.  Queries
  that neither side settles within budget return Unknown rather than a guess.
* table: the complex is given explicitly per depth (for systems whose maps
  are not affine).
* symbolic: the complex at depth 1 plus one overlap address per ordered pair.
  Depth k is the block copies of depth k - 1 plus the lifts of the depth-1
  simplices along their addresses (`generate_pu_nerve`).  This backend
  assumes the single-address property that lifting requires.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, lcm
from typing import Collection, Iterable, Literal, Mapping, Optional, Sequence, Union

from .exactgeom import (
    ConvexPolygon,
    Point2,
    RationalAffineMap,
    _fixed_triple,
    _normalized,
    _row_product,
    check_envelope,
    common_point_exists,
    common_region,
    compose,
    map_polygon,
)
from .words import Address, Word, _Frozen, _normalize, indexed_word, symbols_index


class SpecError(ValueError):
    """The system description itself is invalid."""


class ConsistencyError(RuntimeError):
    """Computed data contradicts an invariant; indicates a bug, not bad input."""


class AddressConsistencyError(SpecError):
    """Overlap addresses disagree on a simplex lift."""

    def __init__(self, simplex: Iterable[int], vertex: int, depth: int, prefixes: Iterable[Word]):
        self.simplex = tuple(sorted(simplex))
        self.vertex = vertex
        self.depth = depth
        self.prefixes = tuple(prefixes)
        super().__init__(
            f"simplex {self.simplex}: vertex {vertex} lifts ambiguously at depth {depth}: "
            + ", ".join(str(p) for p in self.prefixes)
        )


class Budget(_Frozen):
    """Search bounds for the geometric backend.

    refine_depth bounds the subdivision rounds used to separate cells;
    cert_preperiod_max / cert_period_max bound the eventually periodic tails
    enumerated when hunting for a common limit point.
    """

    __slots__ = _fields = ("refine_depth", "cert_period_max", "cert_preperiod_max")
    refine_depth: int
    cert_period_max: int
    cert_preperiod_max: int

    def __init__(self, refine_depth: int = 8, cert_period_max: int = 2,
                 cert_preperiod_max: int = 1) -> None:
        object.__setattr__(self, "refine_depth", refine_depth)
        object.__setattr__(self, "cert_period_max", cert_period_max)
        object.__setattr__(self, "cert_preperiod_max", cert_preperiod_max)
        if refine_depth < 0 or cert_period_max < 1 or cert_preperiod_max < 0:
            raise SpecError(f"nonsensical budget {self}")


# A refinement frontier larger than this aborts to Unknown; past it the
# subdivision is fighting a genuinely fat overlap and will not separate.
_ALIVE_CAP = 4096

VerdictKind = Literal["disjoint", "intersect", "unknown"]


class Verdict(_Frozen):
    """Answer to "do these cells share a point?" on a geometric system.

    disjoint: certified empty after `depth` subdivision rounds.
    intersect: certified nonempty by a common in-budget point, which
      `certificate_points` lists.
    unknown: neither certificate found within budget; `note` says why.
    """

    __slots__ = _fields = ("kind", "depth", "note")
    kind: VerdictKind
    depth: Optional[int]
    note: str

    def __init__(self, kind: VerdictKind, depth: Optional[int] = None, note: str = "") -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "note", note)

    @staticmethod
    def disjoint(depth: int) -> "Verdict":
        return Verdict("disjoint", depth=depth)

    @staticmethod
    def intersect() -> "Verdict":
        return Verdict("intersect")

    @staticmethod
    def unknown(note: str) -> "Verdict":
        return Verdict("unknown", note=note)

    def __bool__(self) -> bool:  # pragma: no cover - guard against truthiness misuse
        raise TypeError("Verdict is three-valued; test .kind explicitly")


class GeometricBackend:
    """Affine generator maps plus a convex envelope containing the invariant set."""

    kind = "geometric"  # the backend's "kind" in spec files

    def __init__(self, maps: Sequence[RationalAffineMap], envelope: ConvexPolygon):
        self.maps = tuple(maps)
        self.envelope = envelope
        if not self.maps:
            raise SpecError("geometric backend needs at least one map")


class TableBackend:
    """Explicit nerve data per depth: mapping level -> iterable of simplices.

    Each simplex is an iterable of words (tuples of symbols).  `levels` maps
    each stored depth to its simplices of two or more words, closed under
    faces, each a sorted tuple of vertex indices (words in lexicographic
    order, as in `nerve.SimplicialComplex`), sorted by size, then by index.
    Depth-k cells are never empty, so every word is a vertex.  Consecutive
    stored levels must form a tower: cells only grow under truncation
    v -> v // m, so every depth-(k+1) simplex truncates onto a depth-k one,
    and a point in several depth-k cells lies in a child of each, so every
    depth-k simplex is the truncation of a depth-(k+1) one.  Block j of depth
    k+1 (the words with first symbol j) must hold the copy j.N_k of depth k:
    the cells of j.w are the images of those of w under one map, and an
    image of a common point is a common point of the images.
    """

    kind = "table"  # the backend's "kind" in spec files

    def __init__(self, m: int, levels: Mapping[int, Iterable[Iterable[Sequence[int]]]]):
        self.m = m
        closed: dict[int, set[tuple[int, ...]]] = {}
        for level, simplices in levels.items():
            level = int(level)
            if level < 1:
                raise SpecError(f"table level {level} out of range")
            sims: set[tuple[int, ...]] = set()
            for simplex in simplices:
                ws = {Word(tuple(symbols), m) for symbols in simplex}
                if any(len(w) != level for w in ws):
                    raise SpecError(f"table level {level} lists a word of the wrong length")
                vertices = sorted(symbols_index(m, w.symbols) for w in ws)
                for size in range(2, len(vertices) + 1):
                    sims.update(combinations(vertices, size))
            closed[level] = sims
        if 1 not in closed:
            raise SpecError("table backend must store at least level 1")
        for level in sorted(closed):
            if level + 1 not in closed:
                continue
            images = {tuple(sorted({v // m for v in s})) for s in closed[level + 1]}
            images = {s for s in images if len(s) > 1}  # every word is a vertex
            if images - closed[level]:
                raise SpecError(f"table level {level + 1} truncates onto"
                                f" {_least(images - closed[level], m, level)}, which level"
                                f" {level} does not list")
            if closed[level] - images:
                raise SpecError(f"table level {level} lists"
                                f" {_least(closed[level] - images, m, level)},"
                                f" which no level-{level + 1} simplex truncates onto")
            size = m ** level
            missing = {tuple(o + v for v in s) for o in range(0, m * size, size)
                       for s in closed[level]} - closed[level + 1]
            if missing:
                copy = min(missing, key=lambda s: (len(s), s))
                first = copy[0] - copy[0] % size
                raise SpecError(f"table level {level + 1} does not list"
                                f" {_least({copy}, m, level + 1)}, the copy of level-{level} simplex"
                                f" {_least({tuple(v - first for v in copy)}, m, level)}"
                                f" in block {first // size + 1}")
        self.levels = {level: tuple(sorted(sims, key=lambda s: (len(s), s)))
                       for level, sims in closed.items()}


def _least(simplices: set[tuple[int, ...]], m: int, level: int) -> str:
    """The least simplex (fewest cells, then by words), written {w, ...}."""
    s = min(simplices, key=lambda s: (len(s), s))
    return "{" + ", ".join(str(indexed_word(m, level, v)) for v in s) + "}"


class SymbolicPUBackend:
    """Depth-1 nerve plus one overlap address per ordered pair of touching cells.

    Modeling assumption: each ordered pair (i, j) with intersecting cells has
    exactly one overlap address.  Systems that branch (several addresses for
    one pair) cannot be described by this backend; use geometric or table.
    """

    kind = "symbolicPU"  # the backend's "kind" in spec files

    def __init__(self, m: int, n1: Iterable[Iterable[int]],
                 addresses: Mapping[tuple[int, int], Address]):
        self.m = m
        closed: set[frozenset[int]] = {frozenset((j,)) for j in range(1, m + 1)}
        for simplex in n1:
            s = frozenset(int(i) for i in simplex)
            if not all(1 <= i <= m for i in s):
                raise SpecError(f"depth-1 simplex {sorted(s)} has symbols outside 1..{m}")
            for size in range(1, len(s) + 1):
                for sub in combinations(sorted(s), size):
                    closed.add(frozenset(sub))
        self.n1 = frozenset(closed)
        edges = {s for s in self.n1 if len(s) == 2}
        expected = {(i, j) for s in edges for i in s for j in s if i != j}
        given = {(int(i), int(j)) for (i, j) in addresses}
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            raise SpecError(
                f"overlap addresses must cover exactly the touching ordered pairs; "
                f"missing {missing}, extra {extra}"
            )
        for pair, addr in addresses.items():
            if addr.m != m:
                raise SpecError(f"address for pair {pair} uses alphabet size {addr.m}, expected {m}")
        self.addresses = {(int(i), int(j)): addr for (i, j), addr in addresses.items()}


Backend = Union[GeometricBackend, TableBackend, SymbolicPUBackend]
Addresses = Mapping[tuple[int, int], Address]  # one overlap address per touching ordered pair


class SystemSpec:
    """A named self-similar system: orientation, alphabet size, and a backend."""

    def __init__(self, name: str, orientation: str, m: int, backend: Backend):
        if orientation not in ("forward", "backward"):
            raise SpecError(f"orientation must be 'forward' or 'backward', got {orientation!r}")
        if m < 2:
            raise SpecError(f"a self-similar system needs m >= 2 generators, got {m}")
        self.name = name
        self.orientation = orientation
        self.m = m
        self.backend = backend
        self._cache: dict = {}
        if isinstance(backend, GeometricBackend):
            if len(backend.maps) != m:
                raise SpecError(f"expected {m} maps, got {len(backend.maps)}")
            if orientation == "forward":
                self._cell_maps = backend.maps
            else:
                try:
                    self._cell_maps = tuple(f.inverse() for f in backend.maps)
                except ValueError as exc:
                    raise SpecError(f"backward system needs invertible generators: {exc}") from exc
            if not check_envelope(self._cell_maps, backend.envelope):
                raise SpecError(
                    "envelope check failed: cell maps must contract and map the envelope into itself"
                )
            # Whether every cell map, and so every word's map, is injective
            # (None for backends without maps).
            self.injective = not any(f.is_singular() for f in self._cell_maps)
        elif isinstance(backend, (TableBackend, SymbolicPUBackend)):
            if backend.m != m:
                raise SpecError("backend alphabet size disagrees with the system's")
            self._cell_maps = None
            self.injective = None
        else:
            raise SpecError(f"unrecognized backend {type(backend).__name__}")

    def __repr__(self) -> str:
        return f"SystemSpec({self.name!r}, {self.orientation}, m={self.m}, {type(self.backend).__name__})"

    @property
    def is_geometric(self) -> bool:
        return isinstance(self.backend, GeometricBackend)

    @property
    def cell_maps(self) -> tuple[RationalAffineMap, ...]:
        if self._cell_maps is None:
            raise SpecError(f"system {self.name!r} has no geometric cell maps")
        return self._cell_maps


def word_map(spec: SystemSpec, w: Word) -> RationalAffineMap:
    """Composite cell map of w: c_{w_1} o ... o c_{w_k} (first symbol outermost)."""
    cache = spec._cache.setdefault("word_map", {})
    got = cache.get(w.symbols)
    if got is None:
        if len(w) == 0:
            got = RationalAffineMap.identity()
        else:
            prefix = word_map(spec, Word(w.symbols[:-1], w.m))
            got = compose(prefix, spec.cell_maps[w.symbols[-1] - 1])
        cache[w.symbols] = got
    return got


def cell_envelope(spec: SystemSpec, w: Word) -> ConvexPolygon:
    """Convex envelope of the depth-k cell of w: the word map's image of the envelope."""
    cache = spec._cache.setdefault("cell_envelope", {})
    got = cache.get(w.symbols)
    if got is None:
        got = map_polygon(word_map(spec, w), spec.backend.envelope)
        cache[w.symbols] = got
    return got


# A certified point keyed by its normalized homogeneous integer triple.
PointKey = tuple[int, int, int]


# The name of a tail point: the symbols of its normalized address
# (`words._normalize`), head then cycle; `Address._of(*name, m)` builds it.
TailName = tuple[tuple[int, ...], tuple[int, ...]]


def _tail_table(spec: SystemSpec, budget: Budget) -> dict[PointKey, TailName]:
    """Limit points of all in-budget eventually periodic addresses, deduplicated,
    each keyed by its normalized integer triple (Point2.homogeneous) and
    named by its minimal normalized address, as a TailName.

    Only normalized pairs are visited: cycles that are their own primitive
    root, and heads that are empty or end in a symbol other than the cycle's
    last.  Licence: normalizing shortens the head or the cycle, or leaves
    both, so in canonical order (heads, then cycles, each shorter first, then
    lexicographic) every in-budget address is preceded by its normalized
    form, which is in budget too.  The keys, their insertion order and their
    names are those of walking every pair and keeping each normalized class
    at its first visit.  The table is shared by every query under the same
    budget.

    Every map is an integer row (`exactgeom.Row`), composed word by word
    and never reduced: no RationalAffineMap is built and no word_map entry
    is kept.  Each cycle's fixed point is Cramer's rule on its row, left
    unnormalized (the cycle's map contracts, so I - M is invertible), and
    each head maps it with one gcd per point.
    """
    key = ("tails", budget.cert_preperiod_max, budget.cert_period_max)
    got = spec._cache.get(key)
    if got is not None:
        return got
    symbols = range(1, spec.m + 1)
    cells = [f.over_common_denominator() for f in spec.cell_maps]
    rows = {(): (1, 0, 0, 1, 0, 0, 1)}
    for length in range(1, max(budget.cert_period_max, budget.cert_preperiod_max) + 1):
        for word in product(symbols, repeat=length):
            rows[word] = _row_product(rows[word[:-1]], cells[word[-1] - 1])
    cycles = [(c, _fixed_triple(rows[c])) for length in range(1, budget.cert_period_max + 1)
              for c in product(symbols, repeat=length) if _normalize((), c) == ((), c)]
    table: dict[PointKey, TailName] = {}
    for length in range(budget.cert_preperiod_max + 1):
        for head in product(symbols, repeat=length):
            a, b, c, d, e, f, n = rows[head]
            for cycle, (x, y, z) in cycles:
                if head and head[-1] == cycle[-1]:
                    continue
                point = _normalized(a * x + b * y + e * z, c * x + d * y + f * z, n * z)
                if point not in table:
                    table[point] = (head, cycle)
    spec._cache[key] = table
    return table


def _word_points(spec: SystemSpec, w: Word, budget: Budget) -> frozenset[PointKey]:
    """In-budget certified points of cell(w), as normalized integer triples.

    Each is a tail point's image under w's map (Point2.homogeneous): written
    over one common denominator, that is six integer products, a gcd and
    three exact divisions.  A singular map may merge tail points.
    """
    key = ("word_points", w.symbols, budget.cert_preperiod_max, budget.cert_period_max)
    got = spec._cache.get(key)
    if got is not None:
        return got
    a, b, c, d, e, f, den = word_map(spec, w).over_common_denominator()
    points = set()
    for x, y, z in _tail_table(spec, budget):
        px, py, pz = a * x + b * y + e * z, c * x + d * y + f * z, den * z
        g = gcd(px, py, pz)
        points.add((px // g, py // g, pz // g))
    got = frozenset(points)
    spec._cache[key] = got
    return got


def _common_keys(spec: SystemSpec, ws: Sequence[Word], budget: Budget,
                 region: Optional[list[PointKey]]) -> frozenset[PointKey]:
    """The in-budget certified points shared by every listed cell.

    `region` is the meet of the cells' envelopes (`_envelope_meet`), None
    for a single word, which has no meet.  Tail points are limit points, so
    they lie in the envelope, and w maps them into w's envelope: every
    common certified point lies in the meet.  An empty meet has none.  When
    the meet is one point p and every word's map is injective, p has at most
    one preimage under w, so p is certified for w exactly when w^-1(p) is a
    tail point: one lookup per word instead of mapping the whole tail table.
    Larger meets and singular maps intersect the per-word point sets.
    """
    if region == []:
        return frozenset()
    if region is not None and len(region) == 1 and spec.injective:
        tails = _tail_table(spec, budget)
        return frozenset(region if all(word_map(spec, w).preimage(region[0]) in tails
                                       for w in ws) else ())
    return frozenset.intersection(*(_word_points(spec, w, budget) for w in ws))


def _envelope_meet(spec: SystemSpec, ws: Sequence[Word]) -> Optional[list[PointKey]]:
    """The meet of the cell envelopes of two or more words, listed as
    `exactgeom.common_region` clips it, else None.

    A spec whose envelope is a segment reads the meet off the words' integer
    intervals (`_segment_meet`), with no envelope built and no clip.

    On a polygon envelope, the meet of one-symbol words is found once per
    system and kept on the spec under its sorted symbols (`_symbol_meet`),
    so the certificates, N_1 and the depth-2 candidates share it: at most
    sum_r C(m, r) entries.  A pair is clipped.  The meet of r >= 3 symbols
    is the kept meet of the first r - 1 intersected with the last envelope:
    when that meet is empty or one point, the answer is it, kept or dropped
    by one `contains_point`, and a larger one is clipped.  Licence: the
    meet, as a set, does not depend on the order of its polygons or on how
    they are grouped, and no reader takes the vertex order of a meet of two
    or more vertices.  `cells_intersect` and `_common_keys` read emptiness,
    length one and region[0], `touching_children` reads length one,
    `certificate_points` sorts and the singleton refinement compares sets.
    Every other meet is clipped on every call.
    """
    if len(ws) < 2:
        return None
    got = _segment_meet(spec, ws)
    if got is not None:
        return got
    if all(len(w.symbols) == 1 for w in ws):
        return _symbol_meet(spec, tuple(sorted(w.symbols[0] for w in ws)))
    return common_region([cell_envelope(spec, w) for w in ws])


def _symbol_meet(spec: SystemSpec, key: tuple[int, ...]) -> list[PointKey]:
    """The kept meet of the depth-1 envelopes of the sorted symbols `key`."""
    kept = spec._cache.setdefault("symbol_meets", {})
    if key not in kept:
        envelopes = _symbol_envelopes(spec)
        below = _symbol_meet(spec, key[:-1]) if len(key) > 2 else ()
        kept[key] = ([p for p in below if envelopes[key[-1] - 1].contains_point(Point2._of(p))]
                     if len(key) > 2 and len(below) < 2
                     else common_region([envelopes[j - 1] for j in key]))
    return kept[key]


def _segment_meet(spec: SystemSpec, ws: Sequence[Word]) -> Optional[list[PointKey]]:
    """The meet of the cell envelopes of equal-length words on a spec whose
    envelope is a segment [P, Q], as `exactgeom.common_region` lists it, else
    None.

    Each envelope is the interval `_word_interval` gives, so they meet in
    [max lo, min hi], empty when that end lies below that start, and its
    ends over D^k are turned into normalized triples.  The clip lists the
    meet from the first polygon's first vertex, and every cell envelope
    starts at its least vertex in (x, y) order (`map_polygon`), so the ends
    come in (x, y) order: the order of t when Q - P is positive in it.
    """
    vertices = spec.backend.envelope.vertices
    if len(vertices) != 2:
        return None
    lo, hi = _word_interval(spec, ws[0].symbols)
    for w in ws[1:]:
        start, end = _word_interval(spec, w.symbols)
        lo, hi = max(lo, start), min(hi, end)
    if lo > hi:
        return []
    (px, py, pz), (qx, qy, qz) = (v.homogeneous() for v in vertices)
    n = _line_maps(spec)[1] ** len(ws[0].symbols)
    dx, dy = qx * pz - px * qz, qy * pz - py * qz
    x0, y0, z0 = px * qz * n, py * qz * n, pz * qz * n
    return [_normalized(x0 + t * dx, y0 + t * dy, z0)
            for t in ((lo,) if lo == hi else (lo, hi) if (dx, dy) > (0, 0) else (hi, lo))]


def _word_interval(spec: SystemSpec, symbols: tuple[int, ...]) -> tuple[int, int]:
    """The cell of a word w of length k on a segment envelope as an interval
    (lo, hi) of the parameter t of `_line_maps`, integers over D^k.

    Every cell map keeps the line of [P, Q] (`_line_maps`), so w's map
    sends P + t (Q - P) to P + phi_w(t) (Q - P) with phi_w(t) =
    (A_w t + B_w) / D^k, and w's envelope, the segment (or point) from the
    image of P to that of Q, has the ends B_w and A_w + B_w.
    phi_{w j} = phi_w o phi_j gives (A_{w j}, B_{w j}) = (A_w a_j,
    A_w b_j + B_w D) from w's row, which is kept on the spec per word."""
    kept = spec._cache.get("word_lines")
    if kept is None:
        kept = spec._cache["word_lines"] = {(): (1, 0)}
    got = kept.get(symbols)
    if got is None:
        _word_interval(spec, symbols[:-1])
        (a, b), (rows, den) = kept[symbols[:-1]], _line_maps(spec)
        aj, bj = rows[symbols[-1] - 1]
        got = kept[symbols] = (a * aj, a * bj + b * den)
    a, b = got
    return (a + b, b) if a < 0 else (b, a + b)


def certificate_points(spec: SystemSpec, ws: Sequence[Word], budget: Budget) -> list[Point2]:
    """All in-budget points certified to lie in every listed cell, sorted by
    (x, y) as integers over their common denominator.  On a geometric system
    the list is nonempty exactly when `cells_intersect` answers intersect: a
    common point is the only intersection certificate that backend has."""
    keys = [_normalized(*key) for key in _common_keys(spec, ws, budget, _envelope_meet(spec, ws))]
    den = lcm(*(z for _x, _y, z in keys))
    keys.sort(key=lambda t: (t[0] * den // t[2], t[1] * den // t[2]))
    return list(map(Point2._of, keys))


def _validate_query(spec: SystemSpec, ws: Sequence[Word]) -> tuple[Word, ...]:
    tup = tuple(ws)
    if not tup:
        raise SpecError("empty word tuple")
    k = len(tup[0])
    for w in tup:
        if w.m != spec.m:
            raise SpecError(f"word {w} uses alphabet size {w.m}, system has {spec.m}")
        if len(w) != k:
            raise SpecError("cells_intersect needs words of equal length")
    if len(set(tup)) != len(tup):
        raise SpecError("cells_intersect needs pairwise distinct words")
    return tup


def cells_intersect(spec: SystemSpec, ws: Sequence[Word], budget: Budget = Budget()) -> Verdict:
    """Do the cells of these equal-length words share a common point?  A
    geometric system's question only (SpecError otherwise)."""
    if not spec.is_geometric:
        raise SpecError("cells_intersect needs the geometric backend")
    ws = _validate_query(spec, ws)
    region = _envelope_meet(spec, ws)
    if region == []:
        return Verdict.disjoint(0)

    if _common_keys(spec, ws, budget, region):
        return Verdict.intersect()

    alive: list[tuple[Word, ...]] = [ws]
    for depth in range(1, budget.refine_depth + 1):
        alive = _refine(spec, alive)
        if alive is None:
            return Verdict.unknown(f"refinement frontier exceeded {_ALIVE_CAP}")
        if not alive:
            return Verdict.disjoint(depth)
    return Verdict.unknown("budget exhausted")


def _overlaps(spec: SystemSpec, budget: Budget
              ) -> dict[tuple[int, int], tuple[Verdict, tuple[Point2, ...]]]:
    """Each depth-1 pair i < j's verdict and certified points (none unless it
    intersects), asked once per spec and budget and kept on the spec: both
    overlap checks read it in either order of the pair, and N_1 takes its
    edges from it at every dim cap.  The meet, its certificates and the
    refinement do not depend on the order of the pair."""
    key = ("overlaps", budget)
    got = spec._cache.get(key)
    if got is None:
        m, got = spec.m, {}
        for i, j in combinations(range(1, m + 1), 2):
            ws = (Word((i,), m), Word((j,), m))
            verdict = cells_intersect(spec, ws, budget)
            got[(i, j)] = verdict, tuple(
                certificate_points(spec, ws, budget) if verdict.kind == "intersect" else ())
        spec._cache[key] = got
    return got


def _refine(spec: SystemSpec, alive: list[tuple[Word, ...]]) -> Optional[list[tuple[Word, ...]]]:
    """One refinement step: every child tuple of an alive tuple (each word
    extended by one symbol) whose cell envelopes meet, or None once more than
    _ALIVE_CAP children survive.  On a segment spec the children's
    envelopes are their integer intervals (`_word_interval`), which meet
    when max lo <= min hi; any other spec tests the envelopes."""
    m, frontier = spec.m, []
    segment = len(spec.backend.envelope.vertices) == 2
    for tup in alive:
        kids = [[Word._of(w.symbols + (j,), m) for j in range(1, m + 1)] for w in tup]
        spans = [[_word_interval(spec, w.symbols) for w in ws] for ws in kids] if segment else kids
        for child, ends in zip(product(*kids), product(*spans)):
            meet = (max(lo for lo, _ in ends) <= min(hi for _, hi in ends) if segment
                    else common_point_exists([cell_envelope(spec, w) for w in child]))
            if meet:
                frontier.append(child)
                if len(frontier) > _ALIVE_CAP:
                    return None
    return frontier


PointAnswer = Literal["yes", "no", "unknown"]


def _symbol_envelopes(spec: SystemSpec) -> tuple[ConvexPolygon, ...]:
    """The depth-1 cell envelopes, cell_envelope of each one-symbol word."""
    got = spec._cache.get("symbol_envelopes")
    if got is None:
        got = spec._cache["symbol_envelopes"] = tuple(
            cell_envelope(spec, Word((j,), spec.m)) for j in range(1, spec.m + 1))
    return got


def envelope_exact(spec: SystemSpec) -> bool:
    """Whether every cell of the system is its envelope, which makes a tuple
    of same-depth cells meet exactly when their envelopes do.  Checked once
    per spec, in exact arithmetic, and kept on the spec.

    Licence: the spec is geometric, its envelope E is a segment (two
    vertices), and the depth-1 intervals of `interval_ends` cover it (a
    singular map's point image is an interval of length zero).
    `check_envelope` gives f_i(E) in E and contraction, so E is the union of
    the f_i(E), and E is the attractor K (Hutchinson, Indiana Univ. Math. J.
    1981).  Then every cell f_w(K) is f_w(E), the envelope of w and the
    interval `interval_ends` gives.  On a line, intervals that meet pairwise
    share a point (Helly 1923), so a tuple of cells meets exactly when each
    of its pairs does.

    The nerve generator reads it and then sweeps the interval ends, and so
    does `homology.tower_analysis`, which then takes its Betti numbers and
    lambdas from the nerve theorem; `cells_intersect` and
    `certificate_points` do not, so their verdicts and certificates are the
    same on every spec.
    """
    got = spec._cache.get("envelope_exact")
    if got is None:
        got = spec.is_geometric and len(spec.backend.envelope.vertices) == 2
        if got:
            reach = 0
            for lo, hi in sorted(interval_ends(spec, 1)):
                if lo > reach:
                    break
                reach = max(reach, hi)
            got = reach == _line_maps(spec)[1]
        spec._cache["envelope_exact"] = got
    return got


def _line_maps(spec: SystemSpec) -> tuple[tuple[tuple[int, int], ...], int]:
    """The rows (a_i, b_i) and the denominator D, all integers, of the cell
    maps on a segment envelope [P, Q]: c_i(P + t (Q - P)) = P + phi_i(t)
    (Q - P) with phi_i(t) = (a_i t + b_i) / D.  c_i sends [P, Q] into itself
    (`check_envelope`), so phi_i(0) and phi_i(1) are read off c_i(P) and
    c_i(Q) in a coordinate in which Q - P is not zero.  a_i < 0 reverses
    the segment, and a_i = 0 is a singular c_i.  Kept on the spec."""
    got = spec._cache.get("line_maps")
    if got is None:
        p, q = spec.backend.envelope.vertices
        axis = 0 if p.x != q.x else 1
        start, span = p.as_pair()[axis], q.as_pair()[axis] - p.as_pair()[axis]
        lines = []
        for f in spec.cell_maps:
            zero, one = ((f(v).as_pair()[axis] - start) / span for v in (p, q))
            lines.append((one - zero, zero))
        den = lcm(*(c.denominator for line in lines for c in line))
        got = spec._cache["line_maps"] = (
            tuple((int(a * den), int(b * den)) for a, b in lines), den)
    return got


def interval_ends(spec: SystemSpec, level: int) -> list[tuple[int, int]]:
    """The depth-`level` cells of a spec with a segment envelope as intervals
    (lo, hi) of the parameter t of `_line_maps`, integers over D^level, in
    vertex index order.  Block j is phi_j of the level below, since the cell
    of j w is c_j of the cell of w, so each end is one multiply and one add:
    phi_j(n / D^k) = (a_j n + b_j D^k) / D^(k+1).  No word map, envelope or
    clip is built.  Depth 0 is [0, 1].  Kept on the spec per level."""
    rows, den = _line_maps(spec)
    levels = spec._cache.setdefault("interval_ends", [[(0, 1)]])
    while len(levels) <= level:
        shift, below, ends = den ** (len(levels) - 1), levels[-1], []
        for a, b in rows:
            b *= shift
            ends += [(a * hi + b, a * lo + b) if a < 0 else (a * lo + b, a * hi + b)
                     for lo, hi in below]
        levels.append(ends)
    return levels[level]


def touching_children(spec: SystemSpec, pair: tuple[Word, Word]) -> Optional[list[list[int]]]:
    """When every cell map is injective and the envelopes of the two words
    meet in one point p, the symbols j of each word w whose child w j has an
    envelope that holds p, else None: env(w j) = f_w(env(j)), so these are
    the j with f_w^-1(p) in env(j).  No child envelope is built."""
    if not spec.injective:
        return None
    region = _envelope_meet(spec, pair)
    if len(region) != 1:
        return None
    kept = []
    for w in pair:
        q = Point2._of(word_map(spec, w).preimage(region[0]))
        kept.append([j for j, env in enumerate(_symbol_envelopes(spec), 1)
                     if env.contains_point(q)])
    return kept


def _envelope_walk(spec: SystemSpec, point: Point2,
                   depth: int) -> list[tuple[tuple[int, ...], Optional[PointKey]]]:
    """The depth-`depth` words whose cell envelopes contain `point`, as symbol
    tuples, each level kept from the children of the one above.  On injective
    specs each word u carries q_u = f_u^-1(point), and None otherwise.

    A cell lies inside its parent, so a word whose envelope misses the point
    has no descendant that contains it.  When every cell map is injective,
    env(u j) = f_u(env(j)), so the child u j is kept exactly when env(j)
    holds q_u, and it carries f_j^-1(q_u) = f_{u j}^-1(point): each step is
    m tests against the depth-1 envelopes and a preimage under one cell map,
    with no word map composed and no deep envelope built.  Singular specs
    test each child's own envelope.  Kept on the spec per point and depth.
    """
    key = ("envelope_walk", point, depth)
    got = spec._cache.get(key)
    if got is not None:
        return got
    level = [((), point.homogeneous() if spec.injective else None)]
    symbols = range(1, spec.m + 1)
    for _ in range(depth):
        if spec.injective:
            kept = []
            for u, q in level:
                here = Point2._of(q)
                kept += [(u + (j,), spec.cell_maps[j - 1].preimage(q))
                         for j, env in zip(symbols, _symbol_envelopes(spec))
                         if env.contains_point(here)]
        else:
            kept = [(v, None) for v in (u + (j,) for u, _ in level for j in symbols)
                    if cell_envelope(spec, Word._of(v, spec.m)).contains_point(point)]
        level = kept
    spec._cache[key] = level
    return level


def _pulled_back_answer(spec: SystemSpec, q: PointKey, budget: Budget) -> PointAnswer:
    """point_in_cell's answer for a cell whose map pulls the point back to q,
    a point of the envelope."""
    if q in _tail_table(spec, budget):
        return "yes"
    if not _envelope_walk(spec, Point2._of(q), budget.refine_depth):
        return "no"
    return "unknown"


def point_in_cell(spec: SystemSpec, point: Point2, w: Word, budget: Budget = Budget()) -> PointAnswer:
    """Semi-decision of point-in-cell membership for the geometric backend.

    yes: the pulled-back point has an in-budget eventually periodic address.
    no: refinement separates the pulled-back point from the invariant set.
    unknown: everything else (including non-geometric backends).
    """
    if not spec.is_geometric:
        return "unknown"
    try:
        q = Point2.from_homogeneous(word_map(spec, w).preimage(point.homogeneous()))
    except ValueError:
        return "unknown"
    if not spec.backend.envelope.contains_point(q):
        return "no"
    return _pulled_back_answer(spec, q.homogeneous(), budget)


def cells_containing_point(spec: SystemSpec, point: Point2, depth: int,
                           budget: Budget = Budget()) -> tuple[list[Word], list[Word]]:
    """(certified containing cells, undecided cells) among depth-`depth` words.

    Candidates are pruned by envelope membership, so the undecided list is the
    set of envelope hits where cell membership could not be settled either way.
    On injective specs each hit u is answered from the q_u the walk pulled
    back, which is point_in_cell's pulled-back point, inside the envelope.
    """
    if not spec.is_geometric:
        raise SpecError("cells_containing_point needs the geometric backend")
    yes, undecided = [], []
    for symbols, q in _envelope_walk(spec, point, depth):
        u = Word._of(symbols, spec.m)
        answer = point_in_cell(spec, point, u, budget) if q is None else \
            _pulled_back_answer(spec, q, budget)
        if answer == "yes":
            yes.append(u)
        elif answer == "unknown":
            undecided.append(u)
    return yes, undecided


def generate_pu_nerve(spec: SystemSpec, k: int, n1: Optional[Iterable[Collection[int]]] = None,
                      addresses: Optional[Addresses] = None) -> tuple[tuple[int, ...], ...]:
    """The depth-k simplices that cross blocks, as sorted tuples of indices
    into the lexicographic depth-k words: the lifts of the simplices n1 of
    N_1 (in symbols; by default a symbolic system's stored ones) of
    dimension >= 1, all of N_1 at k = 1, closed under faces as N_1 is.
    Vertex i goes to i followed by the first k - 1 symbols of its overlap
    address a_ij with the other vertices j.

    Licence: the symbolic backend assumes it.  A geometric system holds it
    when its cell maps are injective, `check_postunbranched` certified one
    address a_ij per touching ordered pair by orbit-walk, the overlap of
    cells i and j is one point p_ij (`check_singleton_overlaps`, all_small)
    and N_1 has no uncertain tuple; `nerve._levels` lifts exactly then, with
    the addresses `classify.lift_addresses` reads off those two reports.
    Then p_ij lies in exactly one depth-k cell of block i, i a_ij[:k-1],
    since f_i^-1(p_ij) lies in the cells on its address only, and cells of
    different blocks meet at such points only.  So a tuple crossing blocks
    shares a point exactly when it is the lift of a simplex S of N_1, whose
    p_ij are all one point.

    A vertex whose addresses differ there raises AddressConsistencyError, at
    the shallowest ambiguous depth for callers that go depth by depth.
    """
    if n1 is None:
        if not isinstance(spec.backend, SymbolicPUBackend):
            raise SpecError(f"system {spec.name!r} is not symbolic")
        n1, addresses = spec.backend.n1, spec.backend.addresses
    if k < 1:
        raise SpecError("depth must be at least 1")
    lifts = []
    for s in (s for s in n1 if len(s) > 1):
        lift = []
        for i in sorted(s):
            prefixes = {tuple(addresses[(i, j)].symbol_at(t) for t in range(k - 1))
                        for j in s if j != i}
            if len(prefixes) > 1:
                raise AddressConsistencyError(s, i, k - 1,
                                              sorted(Word(p, spec.m) for p in prefixes))
            lift.append(symbols_index(spec.m, (i,) + prefixes.pop()))
        lifts.append(tuple(lift))
    return tuple(sorted(lifts))
