"""Simplicial (co)homology over fields, induced maps, and tower analysis.

Everything is exact: the rationals by fraction-free elimination on Python
ints, prime fields by modular arithmetic.  Matrices are kept as sparse columns
and reduced by the standard lowest-one elimination, which gives ranks only.
`betti` and `induced_rank` are pure: each call reduces what it reads and
keeps nothing.  The induced rank of a general map is one reduction of its
mapping cone (`induced_rank`).

The tower analysis keeps each level's boundary ranks while it fills that
level's Betti numbers, so it reduces each boundary once, and it reduces no
d_1 at all.  One union-find pass per level (`components.components`) gives
the components of N_k, hence rank d_1 = m^k - a_0, and the pairs of
components within blocks that the edges crossing blocks join, each listed
once (on a level swept from interval ends, N_1's edges).  A level built as
m block copies of the level below with no crossing (r+1)-simplex takes rank
d_{r+1} as m times the rank below, so a postunbranched tower without
crossing triangles reduces only N_1's d_2; the simplex counts come from the
levels' recurrence, not from their lists.  The tower's lambda numbers, the
ranks of H^1(N_1) -> H^1(N_k), come from those few pairs (`lambda_ranks`):
over a field a 1-cochain is a coboundary iff its residuals on the edges
outside a spanning forest vanish, the pulled-back cocycles of N_1 vanish
inside every block, and a repeated pair's residual is 0.  N_1's reduced
d_2 gives both those cocycles and the Betti numbers of depth 1.
A tower that passes `oracles.envelope_exact` reduces no boundary: each of its
nerves is contractible by the nerve theorem (`_contractible_table`), so
a_0 = 1, every other exact a_r = 0 and every lambda is 0, over any field.

The tower analysis fills a Betti table for depths 1..K and attaches limit
verdicts.  A verdict is only ever Finite/Infinite when a mechanism licenses
it (certified recurrences, support vanishing, stabilized counts with
bijective parents, strict-growth certificates); everything else stays
Unknown with the computed prefix attached.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

from .components import Dim0Facts, LimitVerdict, dim0_facts, dim0_verdict
from .nerve import SimplicialComplex, SimplicialMap, TowerData
from .oracles import ConsistencyError, SpecError, envelope_exact
from .words import Word, _Frozen, _Record


# Miller-Rabin to the first 13 prime bases is exact below 3.3 * 10^24 (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_CHAR_TOO_LARGE = "field characteristic must be a prime below 10^24"


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if a % n == 0 or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldKind(_Frozen):
    """A coefficient field: the rationals (char 0) or a prime field GF(p), p < 10^24."""

    __slots__ = _fields = ("char",)
    char: int

    def __init__(self, char: int = 0) -> None:
        if char >= 10 ** 24:
            raise SpecError(_CHAR_TOO_LARGE)
        if char != 0 and not _is_prime(char):
            raise SpecError(f"field characteristic must be 0 or a prime, got {char}")
        object.__setattr__(self, "char", char)

    @staticmethod
    def parse(text: str) -> "FieldKind":
        t = text.strip().lower()
        if t in ("q", "rational", "rationals", "0"):
            return FieldKind(0)
        match = re.fullmatch(r"gf0*(\d+)", t)
        if match and len(match.group(1)) > 24:  # before int() reads it
            raise SpecError(_CHAR_TOO_LARGE)
        if match and int(match.group(1)):  # GF(0) is no field; characteristic 0 is q
            return FieldKind(int(match.group(1)))
        raise SpecError(f"unrecognized field {text!r}; use 'q' or 'gfP' for a prime P")

    @property
    def label(self) -> str:
        return "Q" if self.char == 0 else f"GF({self.char})"


def _subtract(col: dict[int, int], factor: int, other: dict[int, int], char: int) -> None:
    """col -= factor * other, in place, dropping entries that vanish."""
    for row, val in other.items():
        new = col.get(row, 0) - factor * val
        if char:
            new %= char
        if new:
            col[row] = new
        else:
            col.pop(row, None)


def _reduce(columns: Sequence[dict[int, int]], char: int) -> list[dict[int, int]]:
    """Column reduction by lowest nonzero row; returns the reduced columns.

    They are the nonzero ones; their lowest rows are distinct, so they are a
    basis of the column space and their number is the rank.

    Over Q the arithmetic stays on integers, fraction-free: to clear b = col[low]
    with pivot a = other[low], a unit pivot subtracts (b a) other, and any
    other pivot first scales col by a/g, g = gcd(a, b), then subtracts
    (b/g) other.  Scaling by a nonzero integer does not change the span of
    the columns over Q.
    """
    pivots: dict[int, int] = {}
    reduced: list[dict[int, int]] = []
    for original in columns:
        col = dict(original)
        while col:
            low = max(col)
            at = pivots.get(low)
            if at is None:
                break
            other = reduced[at]
            a, b = other[low], col[low]
            if char:
                factor = b * pow(a, char - 2, char) % char
            elif a == 1 or a == -1:
                factor = b * a
            else:
                g = math.gcd(a, b)
                scale, factor = a // g, b // g
                col = {row: scale * val for row, val in col.items()}
            _subtract(col, factor, other, char)
        if col:
            pivots[max(col)] = len(reduced)
            reduced.append(col)
    return reduced


def _boundary_columns(complex_: SimplicialComplex, r: int, char: int) -> list[dict[int, int]]:
    """Columns of the boundary operator C_r -> C_{r-1} in the sorted simplex bases."""
    if r < 0:
        return []
    if r == 0:
        # the zero map, but on the right space: every 0-chain is a cycle
        return [dict() for _ in range(complex_.m ** complex_.level)]
    top = complex_.simplices_of(r)
    below = complex_.simplices_of(r - 1)
    if not top or not below:
        return []
    row_of = {s: i for i, s in enumerate(below)}
    minus = char - 1 if char else -1
    cols = []
    for s in top:
        col: dict[int, int] = {}
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            col[row_of[face]] = 1 if i % 2 == 0 else minus
        cols.append(col)
    return cols


def _boundaries(complex_: SimplicialComplex, r: int, char: int) -> list[dict[int, int]]:
    """The reduced columns of d_r: a basis of the (r-1)-boundaries with
    distinct lowest rows, which later reductions take as they are.  Their
    number is rank d_r; d_0 maps every vertex to 0."""
    return _reduce(_boundary_columns(complex_, r, char), char) if r > 0 else []


def betti_exact(complex_: SimplicialComplex, r: int) -> bool:
    """Is a_{r} computable exactly from this complex's enumerated simplices?"""
    return r < 0 or r + 1 <= complex_.dim_cap or complex_.complete


def betti(complex_: SimplicialComplex, fieldkind: FieldKind, r: int) -> int:
    """dim H_r over the field (equals dim H^r, the interaction number at this depth)."""
    if not betti_exact(complex_, r):
        raise ConsistencyError(
            f"Betti number r={r} needs simplices beyond dim_cap={complex_.dim_cap}")
    n_r = complex_.simplex_counts().get(r, 0)
    if n_r == 0:
        return 0
    char = fieldkind.char
    return n_r - len(_boundaries(complex_, r, char)) - len(_boundaries(complex_, r + 1, char))


def induced_rank(smap: SimplicialMap, r: int, fieldkind: FieldKind) -> int:
    """Rank of the induced map H_r(source) -> H_r(target) over the field.

    Over a field this equals the rank of the dual map on cohomology, so for a
    truncation from depth k to depth 1 at r = 1 it is exactly the tower's
    lambda_k.

    One reduction of the mapping cone's boundary gives it.  The columns are
    the target's d_{r+1}, then one per source r-simplex s: (f_# s, d_r s),
    with the source's (r-1)-rows placed below the target's r-rows.  That
    matrix has rank rank d_r(source) + rank d_{r+1}(target) + rank f_*, and
    the reduced columns whose lowest row is a source row number exactly
    rank d_r(source).

    An r-simplex whose image has r + 1 vertices but is no simplex of the
    target raises ConsistencyError: the vertex map is not simplicial.
    """
    char = fieldkind.char
    source, target = smap.source, smap.target
    if not betti_exact(source, r) or not betti_exact(target, r):
        raise ConsistencyError("induced rank needs exact homology on both ends")
    if not source.simplex_counts().get(r) or not target.simplex_counts().get(r):
        return 0
    boundaries = _boundaries(target, r + 1, char)
    row_of = {s: i for i, s in enumerate(target.simplices_of(r))}
    offset = len(row_of)
    minus = char - 1 if char else -1
    columns = []
    for simplex, faces in zip(source.simplices_of(r), _boundary_columns(source, r, char)):
        col = {offset + row: val for row, val in faces.items()}
        images = [smap.vertex_map[v] for v in simplex]
        if len(set(images)) == len(images):  # degenerate images vanish
            row = row_of.get(tuple(sorted(images)))
            if row is None:
                raise ConsistencyError(f"the vertex map sends the {r}-simplex {simplex} to"
                                       f" {tuple(sorted(images))}, outside the target")
            inversions = sum(1 for a in range(len(images)) for b in range(a + 1, len(images))
                             if images[a] > images[b])
            col[row] = minus if inversions % 2 else 1
        columns.append(col)
    reduced = _reduce(boundaries + columns, char)
    source_rank = sum(1 for col in reduced if max(col) >= offset)
    return len(reduced) - source_rank - len(boundaries)


def _base_cocycles(reduced: list[dict[int, int]], n1: int, char: int) -> list[list[int]]:
    """A basis of Z^1(N_1), each cocycle its values on N_1's n1 edges
    (integers over Q, residues mod p).

    A cocycle annihilates the column space of d_2, whose reduced columns
    (`reduced`, from `_boundaries`) have distinct lowest rows.  There is one
    cocycle per edge that is no column's lowest row: nonzero there and 0 on
    the other such edges.  On the lowest row of each column, taken in
    increasing order, it takes the value that annihilates the column (its
    other rows are lower, hence already set).
    Fraction-free: a pivot a other than 1 first scales the cocycle by a,
    which keeps the columns before annihilated and the cocycles independent.
    """
    reduced = sorted(reduced, key=max)
    lows = {max(col) for col in reduced}
    cocycles = []
    for free in range(n1):
        if free in lows:
            continue
        z = [0] * n1
        z[free] = 1
        for col in reduced:
            low = max(col)
            rest = -sum(val * z[row] for row, val in col.items() if row != low)
            if col[low] != 1:
                z = [col[low] * x for x in z]
            z[low] = rest % char if char else rest
        cocycles.append([x % char for x in z] if char else z)
    return cocycles


def lambda_ranks(tower: TowerData, fieldkind: FieldKind,
                 base_d2: list[dict[int, int]]) -> dict[int, int]:
    """lambda_k = rank of H^1(N_1) -> H^1(N_k) for k = 2..K, the depths of
    the tower, which over a field is the rank of H_1(N_k) -> H_1(N_1) under
    truncation.  base_d2 is N_1's reduced d_2 (`_boundaries`), which the
    caller shares with the Betti numbers of N_1.

    Licence.  Fix a spanning forest of N_k.  A 1-cochain c has a potential p
    on each tree with c(a, b) = p(b) - p(a) on the forest edges, and its
    residual on any other edge (a, b) is c(a, b) - (p(b) - p(a)).  Over a
    field, c is a coboundary iff its residuals on the non-forest edges
    vanish, so the residual map has kernel exactly B^1(N_k), and lambda_k is
    the rank of the residuals of a basis of Z^1(N_1) pulled back to N_k.

    Truncation to depth 1 sends each block of N_k (the words sharing a first
    symbol) to one vertex, so a pulled-back cochain vanishes on every edge
    inside a block.  Take the forest to span each block's components first:
    the potential is constant on each of them and every residual inside a
    block is 0.  Only the crossing edges that `components` left on the level
    remain, with potentials that are vectors over the cocycle basis, kept by
    a weighted union-find on those components.  Edges that join the same two
    components within blocks also join the same two blocks, so they carry
    one pulled-back value: once the first has united its ends, the residual
    of each other is 0.  So `components` lists each such pair once.
    """
    char = fieldkind.char
    base = tower.complex_at(1)
    if not betti_exact(base, 1):
        raise ConsistencyError("lambda needs the 2-simplices of the depth-1 nerve")
    edges = base.simplices_of(1)
    cocycles = _base_cocycles(base_d2, len(edges), char)
    pulled = {edge: [z[i] for z in cocycles] for i, edge in enumerate(edges)}
    zero = [0] * len(cocycles)

    def in_field(values) -> list[int]:
        return [x % char for x in values] if char else list(values)

    lam: dict[int, int] = {}
    for k in range(2, tower.depth + 1):
        block = base.m ** (k - 1)
        parent: dict[int, int] = {}
        offset: dict[int, list[int]] = {}  # potential minus the parent's

        def find(v: int) -> tuple[int, list[int]]:
            """v's root, and v's potential minus the root's."""
            path = []
            while v in parent:
                path.append(v)
                v = parent[v]
            total = zero
            for node in reversed(path):
                total = in_field(map(sum, zip(offset[node], total)))
                parent[node], offset[node] = v, total
            return v, total

        residuals = []
        for a, b in tower.components[k - 1].crossing:
            value = pulled[a // block, b // block]
            (ra, pa), (rb, pb) = find(a), find(b)
            step = in_field(x + y - z for x, y, z in zip(value, pa, pb))
            if ra != rb:
                parent[rb], offset[rb] = ra, step
            elif any(step):
                residuals.append({i: x for i, x in enumerate(step) if x})
        lam[k] = len(_reduce(residuals, char))
    return lam


class BettiTable(_Record):
    """Interaction numbers a_{r,k} for one system over one field, plus verdicts."""

    __slots__ = _fields = ("name", "m", "field", "depth", "dim_cap", "exact_dims", "a", "lam",
                           "facts", "growth", "verdicts", "b1_infinity", "flags", "uncertain")
    _defaults = {"uncertain": list}
    name: str
    m: int
    field: FieldKind
    depth: int
    dim_cap: int
    exact_dims: tuple[int, ...]
    a: dict[tuple[int, int], int]              # (r, k) -> dimension
    lam: dict[int, int]                        # k >= 2 -> rank of the map to depth 1
    facts: Dim0Facts                           # what the dim-0 mechanisms read
    growth: dict[int, list[Optional[float]]]   # r -> [(1/k) log a_{r,k}]
    verdicts: dict[int, LimitVerdict]
    b1_infinity: LimitVerdict
    flags: dict[str, Optional[bool]]
    uncertain: list[tuple[int, tuple[Word, ...], str]]

    @property
    def component_counts(self) -> list[int]:
        return self.facts.counts

    def sequence(self, r: int) -> list[int]:
        return [self.a[(r, k)] for k in range(1, self.depth + 1)]


def tower_analysis(tower: TowerData, fieldkind: FieldKind, *,
                   postunbranched: Optional[bool] = None,
                   singleton_overlaps: Optional[bool] = None,
                   assert_injective: bool = False,
                   pivot_conditions: Optional[bool] = None) -> BettiTable:
    """Betti table and limit verdicts for the depths of `tower` over one field.

    The tower is the one source of the system, the depth and the dim cap;
    it holds no budget, since only building its levels reads one.  The
    optional certification flags come from the classify layer (None = not
    certified) and gate which verdict mechanisms may fire; assert_injective
    carries the spec file's assertion of that name.
    """
    spec, depth, dim_cap, complexes = tower.spec, tower.depth, tower.dim_cap, tower.complexes
    if depth < 1:
        raise SpecError("tower depth must be at least 1")

    exact_dims = tuple(r for r in range(dim_cap + 1)
                       if all(betti_exact(c, r) for c in complexes))
    if envelope_exact(spec):
        a, lam = _contractible_table(tower, exact_dims)
    else:
        a, lam = _reduced_table(tower, fieldkind, exact_dims)

    n1_betti = (a[(0, 1)], a[(1, 1)]) if 1 in exact_dims else None
    facts = dim0_facts(tower, assert_injective=assert_injective,
                       postunbranched=postunbranched, n1_betti=n1_betti)

    growth = {
        r: [None if a[(r, k)] <= 0 else math.log(a[(r, k)]) / k
            for k in range(1, depth + 1)]
        for r in exact_dims
    }

    flags = {
        "postunbranched": postunbranched,
        "singleton_overlaps": singleton_overlaps,
        "injective": facts.injective,
        "pivot_conditions": pivot_conditions,
        "forward": spec.orientation == "forward",
    }
    uncertain = [(c.level, tuple(map(c.word, s)), note)
                 for c in complexes for s, note in c.uncertain]

    verdicts = _limit_verdicts(facts, exact_dims, a, lam, flags, bool(uncertain))
    b1_inf = _b1_infinity(lam, depth, postunbranched)

    return BettiTable(spec.name, spec.m, fieldkind, depth, dim_cap, exact_dims, a, lam,
                      facts, growth, verdicts, b1_inf, flags, uncertain)


def _contractible_table(tower: TowerData, exact_dims: tuple[int, ...]):
    """a_{r,k} and lambda_k of a tower that passes `oracles.envelope_exact`,
    by the nerve theorem, with no boundary reduced.

    Licence.  Every cell f_w(K) is a closed segment or a point of the segment
    K = E, so every nonempty meet of cells is convex, and N_k is homotopy
    equivalent to the union of its cells, E (Borsuk 1948; Bjorner,
    "Topological methods", Handbook of Combinatorics 1995): a_0 = 1 and
    a_r = 0 for r > 0, over Q and over every GF(p).  A level capped at
    dim_cap keeps H_r for every exact r, as its (r+1)-skeleton is whole.
    lambda_k is the rank of a map out of H^1(N_1) = 0.  Each level's
    component count is checked to be 1: `components.components` reads it
    off the coverage that `nerve._swept_level` keeps as an invariant, with
    no union-find, so only a tower built otherwise can fail the check.
    """
    if any(level.count != 1 for level in tower.components):
        raise ConsistencyError("an envelope-exact nerve must be connected")
    a = {(r, k): int(r == 0) for k in range(1, tower.depth + 1) for r in exact_dims}
    return a, (dict.fromkeys(range(2, tower.depth + 1), 0) if 1 in exact_dims else {})


def _reduced_table(tower: TowerData, fieldkind: FieldKind, exact_dims: tuple[int, ...]):
    """a_{r,k} and lambda_k by column reduction, each boundary rank found once."""
    char, complexes = fieldkind.char, tower.complexes
    base_d2 = _boundaries(complexes[0], 2, char) if 1 in exact_dims else []
    lam = lambda_ranks(tower, fieldkind, base_d2) if 1 in exact_dims else {}
    a: dict[tuple[int, int], int] = {}
    below: dict[int, int] = {}
    for k, (c, level) in enumerate(zip(complexes, tower.components), start=1):
        # rank d_r of this level, each found once; rank d_1 is the vertex
        # count less the component count, so no d_1 is reduced
        counts = c.simplex_counts()
        ranks = {0: 0, 1: counts[0] - level.count}
        if k == 1:
            ranks[2] = len(base_d2)
        for r in exact_dims:
            n_r = counts.get(r, 0)
            if r + 1 not in ranks and n_r:
                if c.block_source is not None and not c.added.get(r + 1):
                    # Licence: every (r+1)-simplex of this copy-built level is
                    # a copy j.s of one of its block source, the tower's
                    # N_{k-1} (`SimplicialComplex`), whose faces are the
                    # copies j.f of its faces.  In the bases ordered by block,
                    # d_{r+1} is then block diagonal with m blocks equal to
                    # d_{r+1} of N_{k-1}, and the crossing r-simplices add
                    # only zero rows.
                    ranks[r + 1] = c.m * below.get(r + 1, 0)
                else:
                    ranks[r + 1] = len(_boundaries(c, r + 1, char))
            a[(r, k)] = n_r - ranks[r] - ranks[r + 1] if n_r else 0
        below = ranks

    return a, lam


def _b1_infinity(lam: dict[int, int], depth: int, pu: Optional[bool]) -> LimitVerdict:
    if pu and depth >= 3 and depth in lam and lam[depth] == lam[depth - 1]:
        return LimitVerdict("finite", lam[depth], "pu-lambda-stabilized",
                            f"lambda stabilized at {lam[depth]} on the last two depths")
    if lam:
        prefix = ", ".join(str(lam[k]) for k in sorted(lam))
        return LimitVerdict("unknown", None, "no-certificate",
                            f"computed lambda prefix: {prefix}")
    return LimitVerdict("unknown", None, "no-certificate", "no lambda computed")


def _limit_verdicts(facts, exact_dims, a, lam, flags, has_uncertain) -> dict[int, LimitVerdict]:
    depth = len(facts.counts)
    m = facts.m
    pu = flags["postunbranched"] is True
    singleton = flags["singleton_overlaps"] is True
    injective = flags["injective"] is True
    forward = flags["forward"]
    pivot = flags["pivot_conditions"] is True
    connected1 = facts.counts[0] == 1

    if has_uncertain:
        return {r: LimitVerdict("unknown", None, "uncertain-simplices",
                                "undecided cell intersections make every level conditional")
                for r in exact_dims}

    def seq(r: int) -> list[int]:
        return [a[(r, k)] for k in range(1, depth + 1)]

    verdicts: dict[int, LimitVerdict] = {}
    for r in exact_dims:
        if r == 0:
            verdicts[0] = dim0_verdict(facts)[0]
        elif r == 1:
            verdicts[1] = _verdict_dim1(seq(1), lam, m, depth, connected1, pu,
                                        singleton, injective, forward, pivot)
        else:
            verdicts[r] = _verdict_high(r, seq(r), m, depth, pu, singleton,
                                        injective, forward)
    return verdicts


def _recurrence_matches(seq: list[int], m: int, increments: list[int]) -> bool:
    return all(seq[i + 1] == m * seq[i] + increments[i] for i in range(len(seq) - 1))


def _verdict_high(r, seq, m, depth, pu, singleton, injective, forward) -> LimitVerdict:
    if pu:
        if not _recurrence_matches(seq, m, [seq[0]] * (depth - 1)):
            return LimitVerdict("unknown", None, "recurrence-mismatch",
                                f"computed a_{r} prefix violates the certified recurrence")
        if seq[0] == 0:
            return LimitVerdict("finite", 0, "pu-support-vanishes",
                                f"a_{{{r},1}} = 0 propagates to every depth")
        return LimitVerdict("infinite", None, "pu-support-positive",
                            f"a_{{{r},1}} = {seq[0]} > 0 grows by factor {m} each depth")
    if singleton and injective and forward:
        if any(v != 0 for v in seq):
            raise ConsistencyError(
                f"single-point overlaps force a_{r} = 0, but the computed table disagrees")
        return LimitVerdict("finite", 0, "singleton-overlaps",
                            "pairwise overlaps are single points, killing all higher homology")
    if all(v == 0 for v in seq):
        return LimitVerdict("unknown", None, "zero-prefix",
                            "zero so far, but nothing certifies the limit")
    return LimitVerdict("unknown", None, "no-certificate", "")


def _verdict_dim1(seq, lam, m, depth, connected1, pu, singleton, injective,
                  forward, pivot) -> LimitVerdict:
    if connected1:
        for x, y in zip(seq, seq[1:]):
            if y < x:
                raise ConsistencyError(
                    "connected base nerve forces a nondecreasing a_1 sequence")
    if pu and connected1:
        if not _recurrence_matches(seq, m, [seq[0]] * (depth - 1)):
            return LimitVerdict("unknown", None, "recurrence-mismatch",
                                "computed a_1 prefix violates the certified recurrence")
        if seq[0] == 0:
            return LimitVerdict("finite", 0, "pu-connected-vanishing",
                                "a_{1,1} = 0 with the connected recurrence keeps every depth at 0")
        return LimitVerdict("infinite", None, "pu-connected-growth",
                            f"a_{{1,1}} = {seq[0]} > 0 grows by factor {m} each depth")
    if pu:
        expected = [lam[k] for k in range(2, depth + 1)]
        if not _recurrence_matches(seq, m, expected):
            return LimitVerdict("unknown", None, "recurrence-mismatch",
                                "computed a_1 prefix violates the certified lambda recurrence")
        if seq[0] == 0:
            return LimitVerdict("finite", 0, "pu-support-vanishes",
                                "a_{1,1} = 0 forces every lambda and hence every depth to 0")
        if depth >= 2 and lam.get(2) == 0:
            return LimitVerdict("finite", 0, "pu-base-image-collapse",
                                "the depth-2 to depth-1 map kills first homology, "
                                "so the limit group vanishes")
        return LimitVerdict("unknown", None, "pu-lambda-positive",
                            "certified recurrences hold but do not settle the limit")
    if singleton and injective and forward:
        for x, y in zip(seq, seq[1:]):
            if y < m * x:
                raise ConsistencyError(
                    "single-point overlaps force a_{1,k+1} >= m a_{1,k}")
        if connected1 and any(v > 0 for v in seq):
            return LimitVerdict("infinite", None, "singleton-connected-growth",
                                "connected nerve with nonvanishing a_1 grows without bound")
        if all(v == 0 for v in seq):
            return LimitVerdict("unknown", None, "zero-prefix", "")
        return LimitVerdict("unknown", None, "no-certificate", "")
    if pivot and connected1:
        for x, y in zip(seq, seq[1:]):
            if y <= x:
                raise ConsistencyError(
                    "pivot conditions certify strictly growing a_1, computed table disagrees")
        return LimitVerdict("infinite", None, "pivot-cycle-growth",
                            "pivot block isolation plus a pivot cycle force strict growth")
    return LimitVerdict("unknown", None, "no-certificate", "")
