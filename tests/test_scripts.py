"""Smoke runs of the scripts under scripts/."""

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
    for name in ("dataset.ds", "model.ckpt", "transcript.jsonl"):
        assert (tmp_path / name).is_file(), name
