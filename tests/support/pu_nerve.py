"""The word-set symbolic nerve generator: the reference the index generator in
`nervetower.nerve` is checked against for symbolic systems.

It builds every level as a set of simplices, each a frozenset of words: depth
k+1 is one prefixed copy of depth k per symbol plus the face closure of the
lifts of the depth-1 simplices, levels built in order from depth 1.
"""

from itertools import combinations
from typing import Union

from nervetower.oracles import AddressConsistencyError, SymbolicPUBackend, SystemSpec
from nervetower.words import Address, Word


def truncate(seq: Union[Word, Address], length: int) -> Word:
    """First `length` symbols, as a Word."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if isinstance(seq, Word):
        if length > len(seq):
            raise ValueError(f"cannot take {length} symbols from a word of length {len(seq)}")
        return Word(seq.symbols[:length], seq.m)
    return Word(tuple(seq.symbol_at(i) for i in range(length)), seq.m)


def pu_nerve(spec: SystemSpec, k: int) -> frozenset[frozenset[Word]]:
    """All depth-k simplices of a symbolic system, with no dimension cap."""
    backend = spec.backend
    assert isinstance(backend, SymbolicPUBackend)
    level = frozenset(frozenset(Word((i,), spec.m) for i in s) for s in backend.n1)
    for depth in range(1, k):  # building depth + 1
        nxt = {frozenset(Word((j,) + w.symbols, spec.m) for w in s)
               for j in range(1, spec.m + 1) for s in level}
        for s in backend.n1:
            if len(s) < 2:
                continue
            verts = sorted(_lift_simplex(backend, spec.m, s, depth))
            for size in range(1, len(verts) + 1):
                nxt.update(frozenset(sub) for sub in combinations(verts, size))
        level = frozenset(nxt)
    return level


def _lift_simplex(backend: SymbolicPUBackend, m: int, simplex: frozenset[int],
                  depth: int) -> frozenset[Word]:
    lift = []
    for i in sorted(simplex):
        prefixes = {truncate(backend.addresses[(i, j)], depth) for j in sorted(simplex) if j != i}
        if len(prefixes) > 1:
            raise AddressConsistencyError(simplex, i, depth, sorted(prefixes))
        (prefix,) = prefixes
        lift.append(Word((i,) + prefix.symbols, m))
    return frozenset(lift)


def capped(simplices: frozenset[frozenset[Word]], dim_cap: int) -> tuple[set, bool]:
    """The simplices up to dimension dim_cap, and whether none lies above it."""
    kept = {s for s in simplices if len(s) - 1 <= dim_cap}
    return kept, len(kept) == len(simplices)
