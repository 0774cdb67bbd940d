"""Statistics, memory and the environment record shared by every workload."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from pathlib import Path

import numpy as np

# Set-up is repeated in this many windows spread over the timed run, so that
# setup_s samples the same stretch of host speed as the throughput metrics.
# Each window sets up at least once and until its set-ups add up to
# SETUP_MIN_SECONDS / SETUP_WINDOWS; setup_s is the median of all of them.
SETUP_WINDOWS = 5
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPS = 1000


def repeat_setup(set_up_again, state, seconds: float):
    """Call ``set_up_again(state)`` at least once and until ``seconds`` have
    gone by (at most SETUP_MAX_REPS times); returns (durations, last state)."""
    durations = []
    while not durations or (sum(durations) < seconds and len(durations) < SETUP_MAX_REPS):
        took, state = set_up_again(state)
        durations.append(took)
    return durations, state


def tail(values):
    """(value, percentile) at the highest percentile with at least ten samples
    beyond it; the maximum (percentile 100) when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as e:
        return f"unknown ({type(e).__name__})"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("openblas configuration") or deps["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(root: Path, args) -> dict:
    return {
        "commit": _commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
