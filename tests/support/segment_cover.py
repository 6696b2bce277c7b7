"""The interval-cover licence of `oracles.envelope_exact`, in Fractions: the
reference it is checked against, and the cell intervals of
`oracles.interval_ends`.

A system passes when its envelope is a segment [P, Q] and the images of that
segment under the cell maps cover it.  Each image lies on the segment (the
envelope check), so it is the interval of parameters t with P + t (Q - P) in
it, read off the coordinate in which Q - P is not zero; a singular map's
point image is an interval of length zero.  The intervals cover [0, 1] when,
sorted by their starts, none starts past the reach of the ones before.  The
cell of a longer word is the interval between the images of P and Q under
the word's whole map, applied symbol by symbol in Fractions.
"""

from fractions import Fraction

from nervetower.oracles import SystemSpec


def cell_interval(spec: SystemSpec, symbols: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """The parameter interval of the cell of a word on a segment envelope."""
    p, q = (v.as_pair() for v in spec.backend.envelope.vertices)
    axis = 0 if p[0] != q[0] else 1
    ends = []
    for x, y in (p, q):
        for j in reversed(symbols):
            f = spec.cell_maps[j - 1]
            x, y = f.a * x + f.b * y + f.e, f.c * x + f.d * y + f.f
        ends.append(((x, y)[axis] - p[axis]) / (q[axis] - p[axis]))
    return min(ends), max(ends)


def envelope_covered(spec: SystemSpec) -> bool:
    if not spec.is_geometric or len(spec.backend.envelope.vertices) != 2:
        return False
    reach = Fraction(0)
    for start, end in sorted(cell_interval(spec, (j,)) for j in range(1, spec.m + 1)):
        if start > reach:
            return False
        reach = max(reach, end)
    return reach == 1
