"""Certified points as whole per-word point sets: the reference that the
one-point pull-back in `oracles._common_keys` is checked against.

Every listed word's in-budget points (`oracles._word_points`, the whole tail
table mapped through the word's map) are built and intersected, whatever the
meet of the cell envelopes is.
"""

from nervetower.exactgeom import Point2
from nervetower.oracles import Budget, PointKey, SystemSpec, _word_points


def common_keys(spec: SystemSpec, ws, budget: Budget) -> frozenset[PointKey]:
    """The in-budget certified points shared by every listed cell."""
    return frozenset.intersection(*(_word_points(spec, w, budget) for w in ws))


def certificate_points(spec: SystemSpec, ws, budget: Budget) -> list[Point2]:
    """The same points as `oracles.certificate_points` lists them."""
    return sorted(map(Point2.from_homogeneous, common_keys(spec, ws, budget)),
                  key=Point2.as_pair)
