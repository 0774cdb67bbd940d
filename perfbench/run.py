#!/usr/bin/env python3
"""The aslchamp benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads are ``train``, ``lesson`` and ``corpus`` (see ``workloads.py`` and
``README.md``).  BLAS is pinned to one thread before numpy loads, with the
same variables ``aslchamp --threads 1`` sets.

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
the workload is set up again before each of several windows of the run, and
``setup_s`` is the median of all those set-ups.
With ``--trace 1`` it alternates untraced and traced stretches, half the
time each, and reports per-module numbers per workload op plus the tracing
overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Result and
span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A traced run alternates this many untraced and traced stretches, so that the
# host's speed drifting over seconds hits both sides of the overhead alike.
TRACE_SLICES = 4
# Per-layer counters derived from argument shapes rather than timed.
COMPUTED = (".gflop", ".mbytes", ".useful_row_frac")

# The names ROADMAP uses for the headline metric of each workload.
ALIASES = {
    "train": {"samples_per_s": "train_samples_per_s"},
    "lesson": {"samples_per_s": "verdicts_per_s", "sample_ms_p50": "verdict_ms_p50",
               "sample_ms_tail": "verdict_ms_tail"},
    "corpus": {"samples_per_s": "corpus_samples_per_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="aslchamp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(phase, setup_times):
    import measure
    per_sample_ms = [1000.0 * s / n for s, n in zip(phase.op_seconds, phase.op_samples)]
    tail_ms, tail_pct = measure.tail(per_sample_ms)
    values = {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": phase.samples / phase.busy_seconds,
        "sample_ms_p50": statistics.median(per_sample_ms),
        "sample_ms_tail": tail_ms,
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    detail = {"setup_reps": len(setup_times), "ops": len(phase.op_seconds),
              "samples": phase.samples, "tail_percentile": tail_pct,
              "busy_seconds": phase.busy_seconds}
    return values, detail


def per_layer(tracer, traced, plain, extra, inputs):
    import tracing
    units = traced.trace_units
    table = tracer.self_times()
    values = {}
    for module, names in tracing.TRACED.items():
        for fn in names:
            calls, self_s = table.get(("op", f"{module}.{fn}"), (0, 0.0))
            values[f"{module}.{fn}.calls"] = calls / units
            values[f"{module}.{fn}.self_ms"] = 1000.0 * self_s / units
    for fn in tracing.TRACED["nn_ops"]:
        for key in ("gflop", "mbytes"):
            values[f"nn_ops.{fn}.{key}"] = tracer.counts.get(f"nn_ops.{fn}.{key}", 0.0) / units
    for fn in ("conv1d_forward", "lstm_sequence"):
        rows = tracer.counts.get(f"nn_ops.{fn}.rows", 0.0)
        useful = tracer.counts.get(f"nn_ops.{fn}.useful_rows", 0.0)
        values[f"nn_ops.{fn}.useful_row_frac"] = useful / rows if rows else 0.0
    for name in tracing.SETUP_TRACED:
        values[f"setup.{name}.self_ms"] = 1000.0 * table.get((tracing.SETUP, name), (0, 0.0))[1]
    values["dataset_io.bytes_per_sample"] = extra.get("bytes_per_sample", 0.0)
    values["checkpoint.mbytes"] = inputs.get("checkpoint_mbytes", 0.0)

    wall, covered, counters = tracer.coverage()
    plain_ms = 1000.0 * plain.busy_seconds / plain.trace_units
    traced_ms = 1000.0 * traced.busy_seconds / units
    values.update({
        "trace.untraced_ms_per_op": plain_ms,
        "trace.traced_ms_per_op": traced_ms,
        "trace.overhead_ms_per_op": traced_ms - plain_ms,
        "trace.overhead_frac": (traced_ms - plain_ms) / plain_ms,
        "trace.counters_ms_per_op": 1000.0 * counters / units,
        "trace.covered_frac": covered / wall,
        "trace.uncovered_ms_per_op": 1000.0 * (wall - covered) / units,
    })
    detail = {"ops": len(tracer.ops), "units": units, "untraced_units": plain.trace_units,
              "spans": len(tracer.spans)}
    return values, detail


def run(args, workdir: Path, out_dir: Path):
    import measure
    import shape_counts
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if not args.trace:
        setup_times, state, phase = [], None, workloads.Phase()
        windows = measure.SETUP_WINDOWS
        for _ in range(windows):
            durations, state = measure.repeat_setup(
                lambda prev: workloads.set_up_again(workload, prev), state,
                measure.SETUP_MIN_SECONDS / windows)
            setup_times += durations
            phase.extend(workload.run(state, args.seconds / windows, tracing.NullTracer()))
        phases = [phase]
    else:
        tracer = tracing.Tracer(shape_counts.RowTracker(workload.cfg.feature_dim,
                                                        workload.cfg.pool))
        with tracer.installed(), tracer.tagged(tracing.SETUP):
            start = time.perf_counter()
            state = workload.setup()
            setup_seconds = time.perf_counter() - start
        plain, traced = workloads.Phase(), workloads.Phase()
        stretch = args.seconds / (2 * TRACE_SLICES)
        for _ in range(TRACE_SLICES):
            plain.extend(workload.run(state, stretch, tracing.NullTracer()))
            with tracer.installed():
                traced.extend(workload.run(state, stretch, tracer))
        phases = [plain, traced]
    checked, check_failed, extra = workload.final_check(state)
    attempted = sum(p.attempted for p in phases) + checked
    failed = sum(p.failed for p in phases) + check_failed
    if any(not p.op_seconds for p in phases):
        raise RuntimeError("no op completed; nothing to measure")

    if not args.trace:
        values, detail = end_to_end(phases[0], setup_times)
    else:
        if "bytes_written" in extra:
            extra["bytes_per_sample"] = extra["bytes_written"] / sum(p.samples for p in phases)
        values, detail = per_layer(tracer, traced, plain, extra, workload.inputs)
        detail["setup_seconds"] = setup_seconds
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    detail.update(extra, unit=workload.unit, inputs=workload.inputs)
    return values, detail, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    # Exit through SystemExit on SIGTERM so the temp directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in BLAS_VARS:
        os.environ[var] = "1"  # before numpy loads
    if not (ROOT / "src" / "aslchamp" / "__init__.py").is_file():
        print(f"error: no aslchamp package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        values, detail, attempted, failed = run(args, Path(tmp), out_dir)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3

    aliases = ALIASES[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name in units:
        computed = " (computed from shapes)" if name.endswith(COMPUTED) else ""
        print(f"  {aliases.get(name, name):<44} {values[name]:>14.6g} {units[name]}{computed}")
    print(f"  {'failed_frac':<44} {failed / max(attempted, 1):>14.6g} ratio "
          f"({failed} of {attempted} {detail['unit']})")
    record = {"environment": measure.environment(ROOT, args), "detail": detail,
              "aliases": aliases}
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
