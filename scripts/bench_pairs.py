#!/usr/bin/env python3
"""Run the benchmark on a parent revision and on this checkout, in pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload corpus \\
        --seeds 401-410 --seconds 30 --out pairs-corpus.json

The parent revision is extracted with ``git archive`` into a temporary
directory; the change is the checkout this script lives in (or ``--change
REV``, extracted the same way).  For each seed both sides run
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` one after
the other, and the side that runs first alternates from pair to pair, so
that the host's speed drifting over minutes hits both alike.

Prints, for each end-to-end metric of ``BENCHMARK.json``, the median and
quartiles of each side, the change's median over the parent's, the number
of pairs the change won and the parent's interquartile range; and whether
each side's ``*checksum`` details agree pair by pair.  ``--out`` writes the
same as JSON, with every run's value, under ``workloads.<W>`` of the file,
next to a ``host`` block: the machine, CPU count, Python, numpy, BLAS
configuration and BLAS thread count every run reported in its environment
record.  If the file exists, the workload is added to it (or replaced), so
one file collects the pairs of several workloads:

    for w in train lesson corpus; do
        python3 scripts/bench_pairs.py --parent HEAD~1 --workload $w \
            --seeds 401-410 --out BENCH.json
    done

Where runs disagree on a host key, it holds the list of their values and a
warning is printed.  Exits 1 if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The keys of a run's environment record that describe the host rather than
# the run; ``blas_threads`` is OPENBLAS_NUM_THREADS as the run saw it (the
# benchmark pins OMP_NUM_THREADS and MKL_NUM_THREADS to the same value).
HOST_KEYS = ("machine", "nproc", "cpus_usable", "python", "numpy", "openblas", "blas_threads")


def parse_seeds(text: str) -> list[int]:
    """'401-410' or '401,405,409' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds")
    return seeds


def extract(rev: str, dest: Path) -> Path:
    """The files of ``rev`` in this repository, written under ``dest``."""
    archive = dest / "rev.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                       stdout=fh, check=True)
    tree = dest / "tree"
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line plus the checksums of its detail."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}, "checksums": {},
                "error": f"exit {proc.returncode}"}
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    detail = record.get("detail", {})
    result["checksums"] = {k: v for k, v in detail.items() if k.endswith("checksum")}
    env = record.get("environment", {})
    result["host"] = {k: env.get(k) for k in HOST_KEYS}
    return result


def merge_hosts(hosts: list[dict]) -> dict:
    """One host block: each key's value, or the list of its distinct values
    (with a warning) where the runs disagree."""
    out = {}
    for key in HOST_KEYS:
        values = []
        for h in hosts:
            v = h.get(key)
            for item in (v if isinstance(v, list) else [v]):
                if item not in values:
                    values.append(item)
        out[key] = values[0] if len(values) == 1 else values
        if len(values) > 1:
            print(f"  warning: runs report different {key}: {values}", file=sys.stderr)
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in runs if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        out[name] = {
            "unit": m["unit"], "better": m["better"], "parent": parent, "change": change,
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "change_over_parent": change["median"] / parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired benchmark runs, parent vs change")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--change", default=None,
                        help="git revision of the change (default: this checkout as it is)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 401-410")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        parent_tree = extract(args.parent, tmp / "parent")
        if args.change is None:
            change_tree = ROOT
        else:
            (tmp / "change").mkdir()
            change_tree = extract(args.change, tmp / "change")
        runs = []
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                tree = parent_tree if side == "parent" else change_tree
                got[side] = run_once(tree, args.workload, seed, args.seconds)
                value = got[side]["metrics"].get("samples_per_s", {}).get("value", float("nan"))
                print(f"seed {seed} {side:<6} samples_per_s {value:10.4g}  "
                      f"correct {got[side]['correct']}", flush=True)
            runs.append((got["parent"], got["change"]))

    summary = summarize(runs, declared["end_to_end"])
    print(f"\n{args.workload}: {len(runs)} pairs, parent {args.parent}, "
          f"change {args.change or 'checkout'}")
    print(f"  {'metric':<16} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'ratio':>7} {'wins':>5} {'parent IQR':>11}")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"  {name:<16} {p['median']:>12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
              f" {c['median']:>12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
              f" {s['change_over_parent']:>7.4f} {s['change_wins']:>3}/{len(runs)}"
              f" {s['parent_iqr']:>11.4g}")
    checksums = sorted({k for p, c in runs for k in (*p["checksums"], *c["checksums"])})
    for key in checksums:
        same = sum(p["checksums"].get(key) == c["checksums"].get(key) for p, c in runs)
        print(f"  {key}: equal in {same} of {len(runs)} pairs")
    failures = [(seed, side) for seed, pair in zip(args.seeds, runs)
                for side, r in zip(("parent", "change"), pair) if not r["correct"]]
    for seed, side in failures:
        print(f"  FAILED: seed {seed} {side}", file=sys.stderr)

    host = merge_hosts([r["host"] for pair in runs for r in pair if "host" in r])

    if args.out:
        collected = (json.loads(args.out.read_text(encoding="utf-8"))
                     if args.out.exists() else {"host": host, "workloads": {}})
        collected["host"] = merge_hosts([collected["host"], host])
        collected["workloads"][args.workload] = {
            "parent": args.parent, "change": args.change,
            "seconds": args.seconds, "seeds": args.seeds, "pairs": len(runs),
            "correct": {"parent": all(p["correct"] for p, _ in runs),
                        "change": all(c["correct"] for _, c in runs)},
            "failed": {side: sum(r.get("failed", 0) for r in rs) for side, rs in
                       (("parent", [p for p, _ in runs]), ("change", [c for _, c in runs]))},
            "checksums": [{"seed": seed, "parent": p["checksums"], "change": c["checksums"]}
                          for seed, (p, c) in zip(args.seeds, runs) if checksums],
            "metrics": summary,
        }
        args.out.write_text(json.dumps(collected, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
