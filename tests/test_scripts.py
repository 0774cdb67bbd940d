"""Smoke runs of the scripts under scripts/, and the names the benchmark
harness under perfbench/ looks up in the package."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_end_to_end_script_writes_its_artifacts(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "end_to_end.py"),
                        "--epochs", "1", "--workdir", str(tmp_path)],
                       capture_output=True, text=True, timeout=600,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    reported = [line.split() for line in r.stdout.splitlines() if line.startswith("sha256 ")]
    names = ("dataset.ds", "model.ckpt", "transcript.jsonl")
    assert [name for _, name, _ in reported] == list(names)
    for _, name, digest in reported:
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest(), name


def test_benchmark_traced_names_resolve(monkeypatch):
    # perfbench/tracing.py wraps package functions by name; a name deleted
    # from the package would break every traced benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # it imports shape_counts
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    names = [(module, name) for module, names in tracing.TRACED.items() for name in names]
    names += [tuple(dotted.split(".")) for dotted in tracing.SETUP_TRACED]
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(f"aslchamp.{module}"),
                                       name, None))]
    assert not missing
