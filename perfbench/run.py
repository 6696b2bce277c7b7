"""nervetower benchmark: closed-loop runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each operation is one ``nervetower`` CLI command run
in a fresh interpreter (perfbench/child.py), started only after the previous
one ended, so every operation pays a cold start and cold caches as a CLI user
does.  Operations repeat for S seconds; one that, judged by the ones before
it, would end past the window is not started.  Between operations the run
starts set-up probes, children that only import nervetower.  The inputs are
fixed bundled systems; the seed only permutes the order of operations and
probes.

Times are reported at a fixed reference speed.  On a shared host the speed of
the processor drifts by up to a factor of two within seconds, so before the first operation and after
every untraced one the run times a fixed stdlib-only loop (yardstick.py) in a
fresh interpreter.  An operation's run_s and cpu_s are its own times scaled by
YARDSTICK_REF_S over the geometric mean of the yardstick times just before and
just after it; setup_s is scaled by the run's median yardstick time.  The raw
times are printed too.

Every operation's output is checked against closed-form expectations
(workloads.py) and must be byte-identical to every other operation's of the
run, traced or not.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.  A traced run also
writes its spans to .perfbench-work/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

from tracer import LAYER_METRICS
from workloads import WORKLOADS, Workload, check_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
YARDSTICK = BENCH / "yardstick.py"
# Scale of the reported times: roughly the yardstick's median on a shared
# 2-vCPU x86-64 VM, so reported times read close to that machine's seconds.
YARDSTICK_REF_S = 0.3
WORK = ROOT / ".perfbench-work"
OP_TIMEOUT_S = 60
PROBES_PER_OP = 1

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {name: unit for name, (unit, _getter) in LAYER_METRICS.items()}
PER_LAYER_UNITS.update({"trace.run_s": "s", "trace.overhead_s": "s"})


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class OpResult:
    traced: bool
    setup_s: float
    problems: list[str]
    output: bytes = b""
    run_s: Optional[float] = None
    cpu_s: Optional[float] = None
    peak_rss_mb: Optional[float] = None
    layers: dict = field(default_factory=dict)
    levels: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    speed_s: Optional[float] = None  # yardstick time around the operation


class Runner:
    """Starts children one at a time, each in its own directory under workdir."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def _new_dir(self) -> Path:
        self.count += 1
        outdir = self.workdir / f"{self.count:05d}"
        outdir.mkdir()
        return outdir

    def _start(self, outdir: Path, trace: bool, argv: list[str]) -> tuple[float, Optional[int]]:
        cmd = [sys.executable, str(CHILD), str(SRC), str(outdir), "1" if trace else "0", *argv]
        with open(outdir / "stdout", "wb") as out, open(outdir / "stderr", "wb") as err:
            start = time.monotonic()
            try:
                rc: Optional[int] = subprocess.run(cmd, stdout=out, stderr=err, cwd=ROOT,
                                                   timeout=OP_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = None  # subprocess.run has killed and reaped the child
        ready = outdir / "ready.json"
        if not ready.is_file():
            stderr = (outdir / "stderr").read_text(errors="replace").strip()
            raise HarnessError(f"child did not finish set-up: {stderr[-2000:]}")
        return json.loads(ready.read_text())["ready"] - start, rc

    def probe(self) -> float:
        """Set-up time of one interpreter that imports nervetower and exits."""
        return self._start(self._new_dir(), False, [])[0]

    def speed(self) -> float:
        """Duration of one yardstick loop in a fresh interpreter."""
        try:
            done = subprocess.run([sys.executable, str(YARDSTICK)], capture_output=True,
                                  text=True, cwd=ROOT, timeout=OP_TIMEOUT_S)
            return float(done.stdout)
        except (subprocess.TimeoutExpired, ValueError) as exc:
            raise HarnessError(f"yardstick failed: {exc}") from exc

    def op(self, workload: Workload, trace: bool) -> OpResult:
        outdir = self._new_dir()
        report_path = outdir / "report.json"
        argv = [*workload.command, "--out-report", str(report_path)]
        setup_s, child_rc = self._start(outdir, trace, argv)
        result_path = outdir / "result.json"
        if child_rc is None or not result_path.is_file():
            stderr = (outdir / "stderr").read_text(errors="replace").strip()
            return OpResult(trace, setup_s, [f"child ended without a result "
                                             f"(exit {child_rc}): {stderr[-500:]}"])
        res = json.loads(result_path.read_text())
        stdout = (outdir / "stdout").read_bytes()
        report_bytes = report_path.read_bytes() if report_path.is_file() else b""
        try:
            report = json.loads(report_bytes) if report_bytes else None
        except json.JSONDecodeError:
            report = None
        problems = [res["error"]] if res["error"] else []
        problems += check_output(workload, res["rc"], stdout.decode(errors="replace"), report)
        return OpResult(trace, setup_s, problems, stdout + b"\0" + report_bytes,
                        res["run_s"], res["cpu_s"], res["peak_rss_mb"],
                        res.get("layers", {}), res.get("levels", []), res.get("spans", []))


def run_loop(runner: Runner, workload: Workload, seed: int, seconds: float,
             trace: bool) -> tuple[list[OpResult], list[float], list[float]]:
    """Closed loop for `seconds`; returns the operations, all set-up samples
    and all yardstick samples."""
    rng = random.Random(seed)
    block = ["op"] + (["traced"] if trace else []) + ["probe"] * PROBES_PER_OP
    needed = ["op", "traced"] if trace else ["op"]
    ops: list[OpResult] = []
    setups: list[float] = []
    walls: dict[str, list[float]] = {kind: [] for kind in needed}
    start = time.monotonic()
    speeds = [runner.speed()]
    while True:
        rng.shuffle(block)
        for kind in block:
            elapsed = time.monotonic() - start
            if all(walls.values()):
                # Stop once the window is spent, or when the next operation,
                # judged by the ones before it, would overrun the window.
                if kind != "probe" and elapsed + median(walls[kind]) > seconds \
                        or elapsed >= seconds:
                    return ops, setups, speeds
            if kind == "probe":
                setups.append(runner.probe())
                continue
            began = time.monotonic()
            result = runner.op(workload, trace=kind == "traced")
            if not result.traced:
                speeds.append(runner.speed())
                result.speed_s = math.sqrt(speeds[-2] * speeds[-1])
            walls[kind].append(time.monotonic() - began)
            ops.append(result)
            setups.append(result.setup_s)


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.6g} (n={n})"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def summarize(workload: Workload, ops: list[OpResult], setups: list[float],
              speeds: list[float], trace: bool, env: dict) -> dict:
    reference = next((op.output for op in ops if op.output), None)
    for op in ops:
        if op.output and op.output != reference:
            op.problems.append("output differs from the run's other operations")
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"operation {i} ({'traced' if op.traced else 'untraced'}): {problem}",
                  file=sys.stderr)

    timed = [op for op in ops if op.run_s is not None]
    untraced = [op for op in timed if not op.traced]
    traced = [op for op in timed if op.traced]
    if not untraced or (trace and not traced):
        raise HarnessError("no operation produced a measurement")
    failed = sum(1 for op in ops if op.problems)
    print(f"workload {workload.name}: {' '.join(workload.command)}")
    print(f"failed_frac {failed}/{len(ops)} = {failed / len(ops):.4f}")

    setup_scale = YARDSTICK_REF_S / median(speeds)
    samples = {
        "run_s": [op.run_s * YARDSTICK_REF_S / op.speed_s for op in untraced],
        "cpu_s": [op.cpu_s * YARDSTICK_REF_S / op.speed_s for op in untraced],
        "setup_s": [s * setup_scale for s in setups],
        "peak_rss_mb": [op.peak_rss_mb for op in untraced],
    }
    raw_run_s = [op.run_s for op in untraced]
    print("raw run_s of each operation: " + " ".join(f"{v:.4f}" for v in raw_run_s))
    print("yardstick samples: " + " ".join(f"{v:.4f}" for v in speeds))
    print(f"raw medians: run_s {median(raw_run_s):.6g} s, "
          f"cpu_s {median(op.cpu_s for op in untraced):.6g} s, "
          f"setup_s {median(setups):.6g} s, yardstick {median(speeds):.6g} s; "
          f"times below are scaled to a {YARDSTICK_REF_S} s yardstick")
    print("run_s of each operation: " + " ".join(f"{v:.4f}" for v in samples["run_s"]))
    for name, values in samples.items():
        print(f"{name}: median {median(values):.6g} {END_TO_END_UNITS[name]}, "
              f"{tail_percentile(values)}")

    if not trace:
        values = {name: median(v) for name, v in samples.items()}
        units = END_TO_END_UNITS
    else:
        values = {name: median(op.layers[name] for op in traced) for name in LAYER_METRICS}
        values["trace.run_s"] = median(op.run_s for op in traced)
        values["trace.overhead_s"] = values["trace.run_s"] - median(raw_run_s)
        units = PER_LAYER_UNITS
        print(f"tracing overhead: {values['trace.overhead_s']:.4f} s per operation "
              f"({len(traced)} traced vs {len(untraced)} untraced operations)")
        for name in units:
            print(f"  {name} = {values[name]:.6g} {units[name]}")
        WORK.mkdir(exist_ok=True)
        trace_doc = {"environment": env, "workload": workload.name,
                     "span_fields": ["id", "parent", "name", "start", "end"],
                     "operations": [{"layers": op.layers, "spans": op.spans} for op in traced]}
        (WORK / f"trace-{workload.name}.json").write_text(json.dumps(trace_doc))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nervetower" / "cli.py").is_file():
        print(f"error: no nervetower sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            runner = Runner(Path(tmp))
            runner.probe()  # unmeasured: lets the first import write its bytecode cache
            ops, setups, speeds = run_loop(runner, workload, args.seed, args.seconds,
                                           bool(args.trace))
            result = summarize(workload, ops, setups, speeds, bool(args.trace), env)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
