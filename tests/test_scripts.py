"""Smoke runs of the scripts under scripts/, and the names the benchmark
harness under perfbench/ looks up in the package."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from aslchamp.net import NetConfig, _param_shapes

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


def test_signer_folds_script_holds_each_signer_out_once(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = tmp_path / "folds.json"
    for label in ("a", "b"):
        r = subprocess.run([sys.executable, str(ROOT / "scripts" / "signer_folds.py"),
                            "--signers", "5", "--reps", "1", "--epochs", "1", "--scale", "1/64",
                            "--label", label, "--out", str(out)],
                           capture_output=True, text=True, timeout=600,
                           env={**os.environ, "PYTHONPATH": path})
        assert r.returncode == 0, r.stderr
    result = json.loads(out.read_text())
    assert sorted(result) == ["a", "b"]
    assert result["a"]["folds"] == result["b"]["folds"]  # deterministic
    folds = result["a"]["folds"]
    assert sorted(s for f in folds for s in f["held_out"]) == [f"s{i:02d}" for i in range(5)]
    assert all(f["validation"] not in f["held_out"] for f in folds)
    for tier in result["a"]["tiers"].values():
        assert len(tier["fold_accuracy"]) == 5
        assert abs(tier["mean"] - sum(tier["fold_accuracy"]) / 5) < 1e-12
        assert sum(map(sum, tier["confusion"])) == 45  # 9 signs x 5 signers x 1 rep


def test_bit_identity_script_finds_a_checkout_identical_to_itself():
    # HEAD against HEAD at a small scale: the checkout is named as the parent
    # directory, so no git history is needed
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "bit_identity.py"),
                        "--parent", str(ROOT), "--small"],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stdout + r.stderr
    rows = [line.split() for line in r.stdout.splitlines()[1:-1]]
    params = list(_param_shapes(NetConfig()))
    assert [row[0] for row in rows] == [
        "published_f32_predict", "s16_f32_predict", "s16_f32_infer",
        *(f"grad_f32/{name}" for name in params), "s16_f64_predict", "s16_f64_infer",
        *(f"grad_f64/{name}" for name in params), "trained_probs"]
    assert all(row[1] == row[2] and row[3] == "same" for row in rows)
    assert r.stdout.splitlines()[-1] == f"0 of {len(rows)} differ"


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
