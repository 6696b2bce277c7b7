"""The interval-cover licence of `oracles.envelope_exact`, in Fractions: the
reference it is checked against.

A system passes when its envelope is a segment [P, Q] and the images of that
segment under the cell maps cover it.  Each image lies on the segment (the
envelope check), so it is the interval of parameters t with P + t (Q - P) in
it, read off the coordinate in which Q - P is not zero; a singular map's
point image is an interval of length zero.  The intervals cover [0, 1] when,
sorted by their starts, none starts past the reach of the ones before.
"""

from fractions import Fraction

from nervetower.oracles import SystemSpec


def envelope_covered(spec: SystemSpec) -> bool:
    if not spec.is_geometric or len(spec.backend.envelope.vertices) != 2:
        return False
    p, q = (v.as_pair() for v in spec.backend.envelope.vertices)
    axis = 0 if p[0] != q[0] else 1

    def parameter(point: tuple[Fraction, Fraction]) -> Fraction:
        return (point[axis] - p[axis]) / (q[axis] - p[axis])

    intervals = []
    for f in spec.cell_maps:
        ends = [parameter((f.a * x + f.b * y + f.e, f.c * x + f.d * y + f.f)) for x, y in (p, q)]
        intervals.append((min(ends), max(ends)))
    reach = Fraction(0)
    for start, end in sorted(intervals):
        if start > reach:
            return False
        reach = max(reach, end)
    return reach == 1
