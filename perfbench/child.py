"""One benchmark operation in a fresh interpreter, as a CLI user pays for it.

Usage: child.py SRC OUTDIR TRACE [nervetower argv...]

Imports ``nervetower`` from SRC, writes OUTDIR/ready.json with the monotonic
time at which the import finished, then, when an argv is given, runs
``nervetower.cli.main(argv)`` in-process (optionally traced) and writes
OUTDIR/result.json.  With no argv it only measures set-up.
"""

import json
import os
import resource
import sys
import time


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main():
    src, outdir, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    sys.path.insert(0, src)
    import nervetower.cli

    ready = time.monotonic()
    origin = os.path.dirname(os.path.abspath(nervetower.__file__))
    if os.path.dirname(origin) != os.path.abspath(src):
        sys.exit(f"nervetower imported from {origin}, not from {src}")
    _write(os.path.join(outdir, "ready.json"), {"ready": ready})
    if not argv:
        return

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(nervetower)
        missed = tracer.unpatched_sites(nervetower)
        if missed:
            sys.exit(f"tracer left binding sites unpatched: {missed}")

    error = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        rc = nervetower.cli.main(argv)
        sys.stdout.flush()
    except Exception as exc:  # a raising operation is a failed one, not a harness error
        rc, error = None, f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "rc": rc,
        "error": error,
        "run_s": run_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["levels"] = tracer.levels()
        result["spans"] = tracer.spans
    _write(os.path.join(outdir, "result.json"), result)


if __name__ == "__main__":
    main()
