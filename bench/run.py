"""The repository benchmark: one command, four workloads, one result line.

    python3 bench/run.py --workload campaigns --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/`` next
to this directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it, starting with ``report``, names the
workload's own metrics (``suite_s``, ``solves_per_s``, ...) and its
correctness counts.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

# The operation time is reported in units of the benchmark's reference
# computation, sampled while the operations run (see calibration.py): on a
# shared 2-core host the raw wall time of the same operations drifts by
# 10-40 % over minutes, and the ratio cancels that drift.  The raw times
# stay on the report line.
END_TO_END = {
    "op_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(setup, workload) -> dict[str, float]:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_cal": calibration.trimmed_mean([c for c in workload.cal if not math.isnan(c)]),
        "setup_s": setup.setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cubicmonodromy" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = workloads.set_up()
    if not Path(setup.mods.perms.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {setup.mods.perms.__file__}, not the package under {SRC}",
              file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    workload = make(setup, args.seed)
    untraced_s = workloads.measure(workload, args.seconds)
    attempted, failed = workload.attempted, workload.failed
    report = {"workload": args.workload, "seed": args.seed, "ops": len(workload.times),
              "setup_raw_s": {"value": setup.setup_raw_s, "unit": "s"},
              "op_ms": {"value": 1e3 * statistics.median(workload.times), "unit": "ms"},
              "reference_ms": {"value": 1e3 * statistics.mean(workload.sampler.slices),
                               "unit": "ms"}}
    report.update({k: {"value": v, "unit": u} for k, (v, u) in workload.report().items()})

    if args.trace:
        replay = make(setup, args.seed)
        with tracing.Tracer(setup.mods) as tracer:
            traced_s = workloads.measure(replay, 0, count=len(workload.times), tracer=tracer)
        attempted += replay.attempted
        failed += replay.failed
        values = tracing.layer_metrics(tracer.spans, traced_s, untraced_s, setup.weyl_e6_s,
                                       getattr(replay, "results", []))
        units = {name: unit for name, unit, _ in tracing.per_layer_names()}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values = end_to_end(setup, workload)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
