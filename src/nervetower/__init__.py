"""Nerve towers and interaction (co)homology of self-similar systems.

The pipeline, bottom to top: words and addresses -> exact rational geometry
-> intersection oracles over a chosen backend -> nerves and the truncation
tower -> field (co)homology with induced-map ranks -> component and limit
verdicts -> overlap certificates and recurrence replay.  The cli module adds
a file format and command-line front end, plus bundled example systems.
"""

from .words import Address, FrozenInstanceError, Word, enumerate_words, word_from_string
from .exactgeom import ConvexPolygon, Point2, RationalAffineMap, compose
from .oracles import (AddressConsistencyError, Budget, ConsistencyError,
                      GeometricBackend, SpecError, SymbolicPUBackend, SystemSpec,
                      TableBackend, Verdict, cells_containing_point, cells_intersect,
                      generate_pu_nerve, point_in_cell)
from .nerve import (SimplicialComplex, SimplicialMap, TowerData, build_iterate_or_subsystem,
                    build_nerve, iterate_system, tower_complexes, truncation_map)
from .homology import (BettiTable, FieldKind, LimitVerdict, betti, betti_exact,
                       induced_rank, tower_analysis)
from .components import (ComponentTower, ComponentVerdict, ComponentsLevel,
                         component_tower, components)
from .classify import (PUReport, PairReport, PivotReport, SingletonReport,
                       TheoremCheck, check_h1_infinite_conditions,
                       check_postunbranched, check_singleton_overlaps, verify_puthm)
from .cli import LoadedSpec, SpecFlags, bundled_names, load_bundled, parse_spec, \
    resolve_spec, spec_to_doc

__version__ = "0.1.0"

__all__ = [
    "Address", "AddressConsistencyError", "BettiTable", "Budget",
    "ComponentTower", "ComponentVerdict", "ComponentsLevel", "ConsistencyError",
    "ConvexPolygon", "FieldKind", "FrozenInstanceError", "GeometricBackend", "LimitVerdict",
    "LoadedSpec", "PUReport", "PairReport", "PivotReport", "Point2",
    "RationalAffineMap", "SimplicialComplex", "SimplicialMap", "SingletonReport",
    "SpecError", "SpecFlags", "SymbolicPUBackend", "SystemSpec", "TableBackend",
    "TheoremCheck", "TowerData", "Verdict", "Word",
    "betti", "betti_exact", "build_iterate_or_subsystem",
    "build_nerve", "bundled_names", "cells_containing_point", "cells_intersect",
    "check_h1_infinite_conditions", "check_postunbranched",
    "check_singleton_overlaps", "compose", "component_tower",
    "components", "enumerate_words",
    "generate_pu_nerve", "induced_rank", "iterate_system", "load_bundled",
    "parse_spec", "point_in_cell", "resolve_spec", "spec_to_doc",
    "tower_analysis", "tower_complexes", "truncation_map",
    "verify_puthm", "word_from_string",
]
