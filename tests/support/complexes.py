"""Readers of every simplex of a level that only the tests use: the block
subcomplex, the Euler characteristic, the edges as sets of vertex indices and
the simplices as sets of words.
Each expands a copy-built level (`SimplicialComplex.simplices`)."""

from nervetower.nerve import SimplicialComplex
from nervetower.oracles import ConsistencyError, SpecError
from nervetower.words import Word, symbols_index


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
              for dim, sims in complex_.simplices.items() if dim}
    uncertain = tuple((tuple(v - first for v in s), note) for s, note in complex_.uncertain
                      if first <= s[0] and s[-1] < first + n)
    return SimplicialComplex(sub_level, complex_.m, inside,
                             complex_.dim_cap, complex_.complete, uncertain)


def euler_characteristic(complex_: SimplicialComplex) -> int:
    if not complex_.complete:
        raise ConsistencyError("Euler characteristic undefined on a capped complex")
    return sum((-1) ** dim * n for dim, n in complex_.simplex_counts().items())


def edge_sets(complex_: SimplicialComplex) -> set[frozenset[int]]:
    return {frozenset(e) for e in complex_.simplices_of(1)}


def simplex_word_sets(complex_: SimplicialComplex) -> set[frozenset[Word]]:
    return {frozenset(map(complex_.word, s))
            for sims in complex_.simplices.values() for s in sims}
