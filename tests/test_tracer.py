"""The benchmark tracer's contract with the package.

`perfbench/tracer.py` rebinds package functions by module and name, so a
renamed or removed function would only show up as failed traced benchmark
runs.  The tracer is loaded here by path, as the benchmark loads it.
"""

import importlib
import importlib.util
from pathlib import Path

import nervetower
from nervetower import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_and_is_patched():
    tracer = load_tracer()
    originals = {}
    for modname, fname, *_ in tracer.TRACED:
        module = importlib.import_module(f"nervetower.{modname}")
        assert callable(getattr(module, fname, None)), f"nervetower.{modname}.{fname}"
        originals[modname, fname] = getattr(module, fname)
    traced = tracer.Tracer()
    traced.install(nervetower)
    try:
        assert traced.unpatched_sites(nervetower) == []
    finally:
        traced.uninstall()
    for (modname, fname), original in originals.items():
        assert getattr(importlib.import_module(f"nervetower.{modname}"), fname) is original


def test_observers_split_every_oracle_query_by_outcome(capsys):
    """The observers read `Verdict.kind` and `Verdict.depth` on real queries:
    every traced `cells_intersect` call lands in exactly one outcome."""
    traced = load_tracer().Tracer()
    traced.install(nervetower)
    try:
        assert cli.main(["classify", "interval-overlap"]) == cli.EXIT_OK
    finally:
        traced.uninstall()
    assert capsys.readouterr().out.startswith("system: interval-overlap")
    stats = traced.stats["oracles.cells_intersect"]
    outcomes = ("intersect", "disjoint_envelope", "disjoint_refined", "unknown")
    assert stats["calls"] > 0
    assert sum(stats.get(outcome, 0) for outcome in outcomes) == stats["calls"]
    traced.layer_metrics()
