"""Points and maps that only the tests build: the scaling map about a
centre, the limit point of an eventually periodic address, and the meet of
convex polygons as a vertex cycle of `Point2`s."""

from typing import Sequence

from nervetower.exactgeom import (ConvexPolygon, Point2, RationalAffineMap, RationalLike,
                                  common_region, rational)
from nervetower.oracles import SpecError, SystemSpec, word_map
from nervetower.words import Word


def scaling(ratio: RationalLike, center: Point2 | None = None) -> RationalAffineMap:
    """p |-> center + ratio (p - center); the workhorse for test systems."""
    r = rational(ratio)
    x, y = (center.x, center.y) if center is not None else (0, 0)
    return RationalAffineMap(r, 0, 0, r, (1 - r) * x, (1 - r) * y)


def limit_point(spec: SystemSpec, head: Word, cycle: Word) -> Point2:
    """The point with address head (cycle)^inf: apply head's map to the cycle's fixed point."""
    if len(cycle) == 0:
        raise SpecError("cycle must be nonempty")
    return word_map(spec, head)(word_map(spec, cycle).fixed_point())


def intersection_cycle(polys: Sequence[ConvexPolygon]) -> tuple[Point2, ...]:
    """Vertex cycle of the common intersection, empty if it is empty: the
    points of `exactgeom.common_region(polys)`."""
    return tuple(map(Point2._of, common_region(polys)))
