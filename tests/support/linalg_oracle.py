"""Dense textbook homology computations, independent of the package's sparse path.

Everything here is plain Gaussian elimination on dense matrices, row by row
(ints mod p; for characteristic 0, Fractions in `rref` and fraction-free ints
in `rank`), so the package's sparse column reduction has something
structurally different to agree with.  The induced rank is computed on
cohomology via cochain pullback and a kernel basis, where the package reduces
the chain-side mapping cone once.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def _inv(x, char):
    if char == 0:
        return Fraction(1) / x
    return pow(x % char, char - 2, char)


def rref(matrix, char):
    """(reduced rows, pivot column list); matrix is a list of row lists."""
    rows = [[Fraction(x) if char == 0 else x % char for x in row] for row in matrix]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = _inv(rows[r][c], char)
        rows[r] = [x * scale % char if char else x * scale for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [(a - factor * b) % char if char else a - factor * b
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix, char):
    """Rank by forward elimination: mod p for a prime field, and over Q on
    integers, fraction-free (row <- a row - b pivot_row, then divided by the
    gcd of its entries), after clearing each row's denominators."""
    if not matrix or not matrix[0]:
        return 0
    if char:
        rows = [[x % char for x in row] for row in matrix]
    else:
        rows = []
        for row in matrix:
            scale = lcm(*(x.denominator for x in row))
            rows.append([int(x * scale) for x in row])
    found = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(found, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        a = top[c]
        for i in range(found + 1, len(rows)):
            b = rows[i][c]
            if not b:
                continue
            if char:
                factor = b * _inv(a, char) % char
                rows[i] = [(x - factor * y) % char for x, y in zip(rows[i], top)]
            else:
                new = [a * x - b * y for x, y in zip(rows[i], top)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        found += 1
        if found == len(rows):
            break
    return found


def nullspace(matrix, char):
    """Basis of the right null space, as a list of column vectors (lists)."""
    if not matrix or not matrix[0]:
        ncols = len(matrix[0]) if matrix else 0
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    rows, pivots = rref(matrix, char)
    ncols = len(matrix[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            val = -rows[r][f]
            vec[c] = val % char if char else val
        basis.append(vec)
    return basis


def boundary_matrix(complex_, r, char):
    """Matrix of d_r: C_r -> C_{r-1}, rows indexed by (r-1)-simplices."""
    if r <= 0:
        return []
    top = complex_.simplices.get(r, ())
    bottom = complex_.simplices.get(r - 1, ())
    row_of = {s: i for i, s in enumerate(bottom)}
    matrix = [[0] * len(top) for _ in bottom]
    for j, simplex in enumerate(top):
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1:]
            sign = 1 if drop % 2 == 0 else -1
            matrix[row_of[face]][j] = sign % char if char else sign
    return matrix


def betti_oracle(complex_, r, char):
    """dim H_r by dense rank arithmetic: n_r - rank d_r - rank d_{r+1}."""
    n_r = len(complex_.simplices.get(r, ()))
    if n_r == 0:
        return 0
    return n_r - rank(boundary_matrix(complex_, r, char), char) \
               - rank(boundary_matrix(complex_, r + 1, char), char)


def _pullback_matrix(smap, r, char):
    """Matrix of the cochain map C^r(target) -> C^r(source)."""
    src = smap.source.simplices.get(r, ())
    tgt = smap.target.simplices.get(r, ())
    col_of = {s: i for i, s in enumerate(tgt)}
    matrix = [[0] * len(tgt) for _ in src]
    for i, simplex in enumerate(src):
        images = [smap.vertex_map[v] for v in simplex]
        if len(set(images)) != len(images):
            continue
        inversions = sum(1 for a in range(len(images)) for b in range(a + 1, len(images))
                         if images[a] > images[b])
        sign = 1 if inversions % 2 == 0 else -1
        matrix[i][col_of[tuple(sorted(images))]] = sign % char if char else sign
    return matrix


def _transpose(matrix):
    if not matrix:
        return []
    return [list(col) for col in zip(*matrix)]


def induced_rank_oracle(smap, r, char):
    """Rank of H^r(target) -> H^r(source) under cochain pullback.

    Over a field this equals the rank of the induced map on homology in the
    other direction, which the package reads off its mapping-cone reduction.
    """
    n_src = len(smap.source.simplices.get(r, ()))
    n_tgt = len(smap.target.simplices.get(r, ()))
    if n_src == 0 or n_tgt == 0:
        return 0
    # cocycles of the target: kernel of delta^r = (d_{r+1})^T
    delta_tgt = _transpose(boundary_matrix(smap.target, r + 1, char))
    if delta_tgt:
        cocycles = nullspace(delta_tgt, char)
    else:
        cocycles = [[1 if i == j else 0 for i in range(n_tgt)] for j in range(n_tgt)]
    pullback = _pullback_matrix(smap, r, char)
    # each pulled cocycle as a length-n_src vector; a pullback row has at
    # most one nonzero entry, so the zero terms are skipped
    pulled = [[sum(a * x for a, x in zip(row, z) if a) % char if char else
               sum(a * x for a, x in zip(row, z) if a) for row in pullback]
              for z in cocycles]
    # coboundaries of the source: columns of (d_r)^T, i.e. rows of d_r
    cobound = boundary_matrix(smap.source, r, char)
    base = [list(row) for row in cobound] if cobound and cobound[0] else []
    rank_b = rank(base, char)
    rank_all = rank(base + pulled, char)
    return rank_all - rank_b
