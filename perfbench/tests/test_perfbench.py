"""Self-tests of the benchmark harness: trace counts, coverage and output checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

sys.path.insert(0, str(run.SRC))

import nervetower  # noqa: E402
import nervetower.cli  # noqa: E402

_OPS: dict = {}


@pytest.fixture(scope="module")
def runner():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        yield run.Runner(Path(tmp))


def op(runner, name, traced):
    key = (name, traced)
    if key not in _OPS:
        _OPS[key] = runner.op(WORKLOADS[name], trace=traced)
        assert _OPS[key].problems == []
    return _OPS[key]


def split_output(result):
    stdout, report = result.output.split(b"\0", 1)
    return stdout.decode(), json.loads(report)


@pytest.mark.parametrize("name", ["tower-gasket", "classify-interval"])
def test_oracle_outcomes_sum_to_calls(runner, name):
    layers = op(runner, name, True).layers
    outcomes = ("intersect", "disjoint_envelope", "disjoint_refined", "unknown")
    assert layers["oracles.cells_intersect.calls"] > 0
    assert sum(layers[f"oracles.cells_intersect.{o}"] for o in outcomes) == \
        layers["oracles.cells_intersect.calls"]


def test_simplex_count_matches_nerve_reports(runner, tmp_path):
    traced = op(runner, "tower-gasket", True)
    depth = WORKLOADS["tower-gasket"].tower.depth
    counts = []
    for k in range(1, depth + 1):
        out = tmp_path / f"nerve{k}.json"
        assert nervetower.cli.main(["nerve", "gasket", "--depth", str(k), "--dim-cap", "2",
                                    "--out-json", str(out)]) == 0
        counts.append(json.loads(out.read_text())["counts"])
    assert traced.levels == counts
    assert traced.layers["nerve.simplices"] == sum(n for c in counts for n in c.values())


def test_traced_and_untraced_outputs_are_identical(runner):
    assert op(runner, "tower-gasket", True).output == op(runner, "tower-gasket", False).output


def test_every_binding_site_is_patched():
    tracer = Tracer()
    nervetower.exactgeom.extra_alias = nervetower.exactgeom.common_point_exists
    try:
        tracer.install(nervetower)
        assert tracer.unpatched_sites(nervetower) == []
        for module, name in [("cli", "tower_complexes"), ("oracles", "common_point_exists"),
                             ("classify", "common_point_exists"), ("homology", "betti"),
                             ("exactgeom", "extra_alias")]:
            assert hasattr(getattr(sys.modules[f"nervetower.{module}"], name), "__wrapped__")
        # A site the tracer missed is reported.
        classify = sys.modules["nervetower.classify"]
        classify.common_point_exists = classify.common_point_exists.__wrapped__
        assert tracer.unpatched_sites(nervetower) == [
            "nervetower.classify.common_point_exists -> exactgeom.common_point_exists"]
    finally:
        tracer.uninstall()
        del nervetower.exactgeom.extra_alias
    assert not any(hasattr(getattr(sys.modules[f"nervetower.{m}"], f), "__wrapped__")
                   for m, f, *_ in TRACED)


def test_output_checks_reject_wrong_numbers(runner):
    workload = WORKLOADS["tower-gasket"]
    stdout, report = split_output(op(runner, "tower-gasket", False))
    assert check_output(workload, 0, stdout, report) == []
    assert check_output(workload, 3, stdout, report) != []
    assert check_output(workload, 0, stdout.replace(",364,", ",365,"), report) != []
    report["lambda"]["6"] = 2
    assert check_output(workload, 0, stdout, report) != []


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_times_are_scaled_to_the_reference_speed(runner):
    assert 0 < runner.speed() < run.OP_TIMEOUT_S
    # On a machine running at half the reference speed every time halves.
    slow = 2 * run.YARDSTICK_REF_S
    ops = [run.OpResult(False, 0.2, [], b"same", run_s=4.0, cpu_s=3.0, peak_rss_mb=30.0,
                        speed_s=slow)]
    metrics = run.summarize(WORKLOADS["tower-gasket"], ops, [0.2, 0.4, 0.3], [slow], False,
                            {})["metrics"]
    assert {name: m["value"] for name, m in metrics.items()} == \
        pytest.approx({"run_s": 2.0, "cpu_s": 1.5, "setup_s": 0.15, "peak_rss_mb": 30.0})
