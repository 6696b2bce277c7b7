"""In-memory tracing of nervetower's layers, from outside the package.

Each traced function is replaced by a timing wrapper at every binding site: in
every loaded ``nervetower`` module, every global that refers to the original
function is rebound, so ``cli.tower_complexes``, ``homology.tower_complexes``
and ``nerve.tower_complexes`` are all traced.  Functions called at most a few
hundred times per operation leave one span per call; those called up to ~10^5
times per operation (the oracle queries and the polygon test) are aggregated
into a count plus inclusive and self time.  Self time is a call's duration
minus the durations of the traced calls it made directly.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional

Observer = Callable[[dict, Any, float], None]


def _verdict_outcome(stats: dict, verdict: Any, duration: float) -> None:
    if verdict.kind == "disjoint":
        # depth 0: refuted without refinement (envelopes, or a table/symbolic lookup)
        outcome = "disjoint_envelope" if verdict.depth == 0 else "disjoint_refined"
    else:
        outcome = verdict.kind
    stats[outcome] = stats.get(outcome, 0) + 1
    stats[outcome + "_s"] = stats.get(outcome + "_s", 0.0) + duration


def _tower_simplices(stats: dict, tower: Any, _duration: float) -> None:
    stats.setdefault("levels", []).extend(
        {str(d): n for d, n in sorted(c.simplex_counts().items())} for c in tower.complexes)


def _column_count(stats: dict, columns: Any, _duration: float) -> None:
    stats["columns"] = stats.get("columns", 0) + len(columns)


def _loaded_spec(stats: dict, loaded: Any, _duration: float) -> None:
    stats["spec"] = loaded.spec


# (module, function, stats key, one span per call, observer of the result)
TRACED: tuple[tuple[str, str, str, bool, Optional[Observer]], ...] = (
    ("cli", "main", "cli.main", True, None),
    ("cli", "resolve_spec", "cli.resolve_spec", True, _loaded_spec),
    ("cli", "tower_csv", "cli.report", True, None),
    ("cli", "tower_report_doc", "cli.report", True, None),
    ("cli", "pu_report_doc", "cli.report", True, None),
    ("cli", "theorem_check_doc", "cli.report", True, None),
    ("cli", "pivot_report_doc", "cli.report", True, None),
    ("cli", "nerve_doc", "cli.report", True, None),
    ("oracles", "cells_intersect", "oracles.cells_intersect", False, _verdict_outcome),
    ("oracles", "generate_pu_nerve", "oracles.generate_pu_nerve", False, None),
    ("oracles", "cells_containing_point", "oracles.cells_containing_point", False, None),
    ("exactgeom", "common_point_exists", "exactgeom.common_point_exists", False, None),
    ("nerve", "build_nerve", "nerve.build_nerve", True, None),
    ("nerve", "truncation_map", "nerve.truncation_map", True, None),
    ("nerve", "tower_complexes", "nerve.tower_complexes", True, _tower_simplices),
    ("homology", "betti", "homology.betti", True, None),
    ("homology", "induced_rank", "homology.induced_rank", True, None),
    ("homology", "_boundary_columns", "homology.boundary_columns", False, _column_count),
    ("homology", "tower_analysis", "homology.tower_analysis", True, None),
    ("components", "components", "components.components", True, None),
    ("components", "component_tower", "components.component_tower", True, None),
    ("classify", "check_postunbranched", "classify.check_postunbranched", True, None),
    ("classify", "check_singleton_overlaps", "classify.check_singleton_overlaps", True, None),
    ("classify", "check_h1_infinite_conditions", "classify.check_h1_infinite_conditions",
     True, None),
    ("classify", "verify_puthm", "classify.verify_puthm", True, None),
)

_Getter = Callable[[dict], float]


def _get(key: str, field: str) -> _Getter:
    return lambda stats: stats.get(key, {}).get(field, 0)


def _disjoint_s(stats: dict) -> float:
    s = stats.get("oracles.cells_intersect", {})
    return s.get("disjoint_envelope_s", 0.0) + s.get("disjoint_refined_s", 0.0)


def _useful_ratio(stats: dict) -> float:
    s = stats.get("oracles.cells_intersect", {})
    return s.get("intersect", 0) / s["calls"] if s.get("calls") else 0.0


def _cache_entries(cache: str) -> _Getter:
    def read(stats: dict) -> int:
        spec = stats.get("cli.resolve_spec", {}).get("spec")
        return 0 if spec is None else len(spec._cache.get(cache, {}))
    return read


def _simplices(stats: dict) -> int:
    levels = stats.get("nerve.tower_complexes", {}).get("levels", [])
    return sum(n for level in levels for n in level.values())


# Per-layer metrics of one operation: name -> (unit, how to read it from the stats).
LAYER_METRICS: dict[str, tuple[str, _Getter]] = {
    "oracles.cells_intersect.calls": ("count", _get("oracles.cells_intersect", "calls")),
    "oracles.cells_intersect.self_s": ("s", _get("oracles.cells_intersect", "self_s")),
    "oracles.cells_intersect.intersect":
        ("count", _get("oracles.cells_intersect", "intersect")),
    "oracles.cells_intersect.disjoint_envelope":
        ("count", _get("oracles.cells_intersect", "disjoint_envelope")),
    "oracles.cells_intersect.disjoint_refined":
        ("count", _get("oracles.cells_intersect", "disjoint_refined")),
    "oracles.cells_intersect.unknown":
        ("count", _get("oracles.cells_intersect", "unknown")),
    "oracles.cells_intersect.intersect_s":
        ("s", _get("oracles.cells_intersect", "intersect_s")),
    "oracles.cells_intersect.disjoint_s": ("s", _disjoint_s),
    "oracles.cells_intersect.useful_ratio": ("ratio", _useful_ratio),
    "exactgeom.common_point_exists.calls":
        ("count", _get("exactgeom.common_point_exists", "calls")),
    "exactgeom.common_point_exists.s": ("s", _get("exactgeom.common_point_exists", "s")),
    "oracles.word_map.entries": ("count", _cache_entries("word_map")),
    "oracles.cell_envelope.entries": ("count", _cache_entries("cell_envelope")),
    "oracles.generate_pu_nerve.s": ("s", _get("oracles.generate_pu_nerve", "s")),
    "oracles.cells_containing_point.calls":
        ("count", _get("oracles.cells_containing_point", "calls")),
    "oracles.cells_containing_point.s":
        ("s", _get("oracles.cells_containing_point", "s")),
    "nerve.build_nerve.calls": ("count", _get("nerve.build_nerve", "calls")),
    "nerve.build_nerve.self_s": ("s", _get("nerve.build_nerve", "self_s")),
    "nerve.simplices": ("count", _simplices),
    "nerve.truncation_map.calls": ("count", _get("nerve.truncation_map", "calls")),
    "nerve.truncation_map.s": ("s", _get("nerve.truncation_map", "s")),
    "nerve.tower_complexes.self_s": ("s", _get("nerve.tower_complexes", "self_s")),
    "homology.betti.calls": ("count", _get("homology.betti", "calls")),
    "homology.betti.s": ("s", _get("homology.betti", "s")),
    "homology.induced_rank.calls": ("count", _get("homology.induced_rank", "calls")),
    "homology.induced_rank.s": ("s", _get("homology.induced_rank", "s")),
    "homology.boundary_columns": ("count", _get("homology.boundary_columns", "columns")),
    "homology.tower_analysis.self_s": ("s", _get("homology.tower_analysis", "self_s")),
    "components.components.calls": ("count", _get("components.components", "calls")),
    "components.components.s": ("s", _get("components.components", "s")),
    "components.component_tower.self_s":
        ("s", _get("components.component_tower", "self_s")),
    "classify.check_postunbranched.s": ("s", _get("classify.check_postunbranched", "s")),
    "classify.check_singleton_overlaps.s":
        ("s", _get("classify.check_singleton_overlaps", "s")),
    "classify.check_h1_infinite_conditions.s":
        ("s", _get("classify.check_h1_infinite_conditions", "s")),
    "classify.verify_puthm.s": ("s", _get("classify.verify_puthm", "s")),
    "cli.resolve_spec.s": ("s", _get("cli.resolve_spec", "s")),
    "cli.report.s": ("s", _get("cli.report", "s")),
}


class Tracer:
    """Spans and per-function statistics of the traced calls, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        self.stats: dict[str, dict] = {}
        # one frame per active traced call: [time spent in traced callees, span id]
        self._stack: list[list] = [[0.0, None]]
        self._sites: list[tuple[Any, str, Callable]] = []
        self._originals: dict[int, str] = {}

    def _wrap(self, fn: Callable, name: str, key: str, spans: bool,
              observe: Optional[Observer]) -> Callable:
        stack, clock, record = self._stack, time.perf_counter, self.spans.append
        stats = self.stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})

        def traced(*args, **kwargs):
            span_id = len(self.spans) if spans else stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            if spans:
                record(None)  # reserve the id; filled in on return
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                stats["calls"] += 1
                stats["s"] += duration
                stats["self_s"] += duration - frame[0]
                if spans:
                    self.spans[span_id] = (span_id, stack[-1][1], name, start, start + duration)
            if observe is not None:
                observe(stats, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: Any) -> None:
        """Rebind every traced function at every binding site in the package."""
        modules = _package_modules(package)
        for modname, fname, key, spans, observe in TRACED:
            original = getattr(sys.modules[f"{package.__name__}.{modname}"], fname)
            self._originals[id(original)] = f"{modname}.{fname}"
            wrapper = self._wrap(original, f"{modname}.{fname}", key, spans, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._sites.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._sites):
            setattr(module, attr, original)
        self._sites.clear()

    def unpatched_sites(self, package: Any) -> list[str]:
        """Module globals that still refer to an untraced original."""
        return sorted(f"{module.__name__}.{attr} -> {self._originals[id(value)]}"
                      for module in _package_modules(package)
                      for attr, value in vars(module).items()
                      if id(value) in self._originals)

    def layer_metrics(self) -> dict[str, float]:
        return {name: getter(self.stats) for name, (_unit, getter) in LAYER_METRICS.items()}

    def levels(self) -> list[dict[str, int]]:
        """Simplex counts by dimension of each nerve the tower was built from."""
        return self.stats.get("nerve.tower_complexes", {}).get("levels", [])


def _package_modules(package: Any) -> list[Any]:
    prefix = package.__name__ + "."
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == package.__name__ or name.startswith(prefix))]
