"""Betti numbers through transposed boundaries: a second path to dim H^r.

`cobetti` reduces the coboundaries (d_r)^T and (d_{r+1})^T with the package's
own sparse reduction, where `homology.betti` reduces d_r and d_{r+1}, so the
two agree only if the boundary columns and the reduction are both right.
"""

from nervetower.homology import FieldKind, _boundary_columns, _reduce, betti_exact
from nervetower.nerve import SimplicialComplex
from nervetower.oracles import ConsistencyError


def _transpose(cols: list[dict[int, int]], nrows: int) -> list[dict[int, int]]:
    rows: list[dict[int, int]] = [dict() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def cobetti(complex_: SimplicialComplex, fieldkind: FieldKind, r: int) -> int:
    """dim H^r = n_r - rank (d_r)^T - rank (d_{r+1})^T."""
    if not betti_exact(complex_, r):
        raise ConsistencyError(
            f"cohomology rank r={r} needs simplices beyond dim_cap={complex_.dim_cap}")
    n_r = len(complex_.simplices.get(r, ()))
    if n_r == 0:
        return 0
    char = fieldkind.char
    # d_r has one row per (r-1)-simplex, d_{r+1} one per r-simplex
    low = _boundary_columns(complex_, r, char)
    high = _boundary_columns(complex_, r + 1, char)
    n_below = len(complex_.simplices.get(r - 1, ()))
    rank_low = len(_reduce(_transpose(low, n_below), char)) if low else 0
    n_above = len(complex_.simplices.get(r + 1, ()))
    rank_high = len(_reduce(_transpose(high, n_r), char)) if high and n_above else 0
    return n_r - rank_low - rank_high
