"""End-to-end CLI runs with miniature datasets and networks."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from aslchamp.checkpoint import MAGIC
from aslchamp.dataset_io import read_dataset
from conftest import frame, frame_parts, rewrite_dataset

GEN_MINI = ["gen-data", "--classes", "COFFEE", "TEA", "MILK",
            "--signers", "4", "--reps", "2", "--duration", "1.5"]
TRAIN_MINI = ["train", "--epochs", "2", "--scale", "1/64", "--t-max", "120",
              "--batch-size", "8", "--split-unit", "sample"]


def run_cli(*args, threads=None, env=None):
    cmd = [sys.executable, "-m", "aslchamp.cli"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    cmd += [str(a) for a in args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          env=None if env is None else {**os.environ, **env})


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One mini dataset + trained checkpoint shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "mini.jsonl"
    ckpt = root / "mini.ckpt"
    report = root / "report.json"
    r = run_cli("--seed", "5", *GEN_MINI, "--out", data)
    assert r.returncode == 0, r.stderr
    r = run_cli("--seed", "5", *TRAIN_MINI, "--data", data, "--ckpt", ckpt,
                "--report", report, threads=1)
    assert r.returncode == 0, r.stderr
    return {"root": root, "data": data, "ckpt": ckpt, "report": report}


def test_gen_data_writes_file_and_summary(workspace):
    assert workspace["data"].read_bytes().startswith(b"ASLCHAMP-DS")
    assert len(read_dataset(workspace["data"]).samples) == 3 * 4 * 2


def test_gen_data_summary_counts(tmp_path):
    out = tmp_path / "one.jsonl"
    r = run_cli("gen-data", "--classes", "COFFEE", "--signers", "1",
                "--reps", "1", "--out", out)
    assert r.returncode == 0
    assert "wrote 1 samples" in r.stdout
    assert "COFFEE: 1" in r.stdout


def test_gen_data_missing_out_is_usage_error():
    r = run_cli("gen-data", "--signers", "1")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower() or "--out" in r.stderr


def test_gen_data_unknown_class_is_usage_error(tmp_path):
    r = run_cli("gen-data", "--classes", "ESPRESSO", "--signers", "1",
                "--reps", "1", "--out", tmp_path / "x.jsonl")
    assert r.returncode == 2


@pytest.mark.parametrize("flags", [
    ["--speed-range", "3,4,0"],
    ["--speed-range", "0.9,1.1,7"],
    ["--speed-range", "3,4"],
    ["--speed-range", "1.2,0.9"],
    ["--noise-std", "-1"],
    ["--jitter-deg", "-2"],
    ["--offset-std", "-0.1"],
    ["--frame-rate", "-72", "--duration", "-3"],
    ["--classes", "COFFEE", "COFFEE"],
], ids=["speed-three-values", "speed-third-value-ignored", "speed-above-2", "speed-lo-above-hi",
        "negative-noise", "negative-jitter", "negative-offset", "negative-rate-and-duration",
        "class-named-twice"])
def test_gen_data_bad_variability_is_usage_error(tmp_path, flags):
    out = tmp_path / "x.ds"
    r = run_cli("gen-data", "--classes", "COFFEE", "--signers", "1", "--reps", "1",
                *flags, "--out", out)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_train_wrote_checkpoint_and_report(workspace):
    assert workspace["ckpt"].stat().st_size > 0
    report = json.loads(workspace["report"].read_text())
    assert report["epochs_run"] == 2
    assert len(report["train_loss"]) == 2
    assert report["epoch_seconds"] == [0.0, 0.0]  # determinism mode zeroes timings


def test_train_epochs_zero_is_usage_error(workspace, tmp_path):
    r = run_cli("train", "--data", workspace["data"], "--ckpt", tmp_path / "x.ckpt",
                "--epochs", "0", "--scale", "1/64", "--t-max", "120")
    assert r.returncode == 2


@pytest.mark.parametrize("flags", [["--lr", "-0.001"], ["--lr", "0"], ["--lr", "nan"],
                                   ["--lr", "inf"], ["--patience", "-1"],
                                   ["--fractions", "0.5,0.5,0"]],
                         ids=["negative-lr", "zero-lr", "nan-lr", "inf-lr", "negative-patience",
                              "zero-fraction"])
def test_train_bad_optimizer_flags_are_usage_errors(workspace, tmp_path, flags):
    ckpt = tmp_path / "x.ckpt"
    r = run_cli(*TRAIN_MINI, "--data", workspace["data"], "--ckpt", ckpt, *flags)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert not ckpt.exists()


def test_train_bad_flag_fails_before_the_data_is_read(tmp_path):
    r = run_cli("train", "--data", tmp_path / "none.ds", "--ckpt", tmp_path / "x.ckpt",
                "--lr", "0")
    assert r.returncode == 2, r.stderr
    assert "learning_rate" in r.stderr


def test_train_missing_data_is_runtime_error(tmp_path):
    r = run_cli("train", "--data", tmp_path / "none.jsonl",
                "--ckpt", tmp_path / "x.ckpt", "--epochs", "1")
    assert r.returncode == 3


def test_train_resume_continues_epoch_counter(workspace, tmp_path):
    import shutil
    ckpt = tmp_path / "resume.ckpt"
    report = tmp_path / "resume-report.json"
    shutil.copy(workspace["ckpt"], ckpt)
    r = run_cli("--seed", "5", "train", "--data", workspace["data"], "--ckpt", ckpt,
                "--report", report, "--resume", "--epochs", "2", threads=1)
    assert r.returncode == 0, r.stderr
    obj = json.loads(report.read_text())
    assert obj["start_epoch"] == 2
    assert "from epoch 3" in r.stdout


def test_train_resume_applies_lr(workspace, tmp_path):
    # The train state carries Adam's moments and step count, not its rate.
    written = []
    for lr in ("0.5", "0.001"):
        ckpt = tmp_path / f"lr-{lr}.ckpt"
        shutil.copy(workspace["ckpt"], ckpt)
        r = run_cli("--seed", "5", "train", "--data", workspace["data"], "--ckpt", ckpt,
                    "--resume", "--epochs", "1", "--lr", lr, threads=1)
        assert r.returncode == 0, r.stderr
        written.append(ckpt.read_bytes())
    assert written[0] != written[1]


def test_train_resume_help_names_the_flags_it_ignores():
    r = run_cli("train", "--help")
    assert r.returncode == 0
    text = " ".join(r.stdout.split())
    assert "--scale, --t-max, --dtype and --dropout are ignored" in text
    assert "--lr, --batch-size, --epochs and --patience apply" in text


def test_eval_prints_confusion_grid(workspace, tmp_path):
    csv_path = tmp_path / "conf.csv"
    r = run_cli("eval", "--ckpt", workspace["ckpt"], "--data", workspace["data"],
                "--csv", csv_path)
    assert r.returncode == 0, r.stderr
    assert "accuracy" in r.stdout
    assert "produced" in r.stdout
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("produced\\recognized")
    assert "COFFEE" in header


def test_eval_class_mismatch_is_runtime_error(workspace, tmp_path):
    other = tmp_path / "other.jsonl"
    r = run_cli("gen-data", "--classes", "CUP", "--signers", "1", "--reps", "1",
                "--out", other)
    assert r.returncode == 0
    r = run_cli("eval", "--ckpt", workspace["ckpt"], "--data", other)
    assert r.returncode == 3


def test_recognize_prints_label_and_confidence(workspace, tmp_path):
    single = tmp_path / "single.jsonl"
    r = run_cli("gen-data", "--classes", "COFFEE", "--signers", "1", "--reps", "1",
                "--out", single)
    assert r.returncode == 0
    r = run_cli("recognize", "--ckpt", workspace["ckpt"], "--sample", single)
    assert r.returncode == 0, r.stderr
    label, confidence = r.stdout.split()[:2]
    assert label in ("COFFEE", "TEA", "MILK")
    assert 0.0 < float(confidence) <= 1.0


def test_recognize_verbose_distribution_sums_to_one(workspace, tmp_path):
    single = tmp_path / "single.jsonl"
    run_cli("gen-data", "--classes", "TEA", "--signers", "1", "--reps", "1",
            "--out", single)
    r = run_cli("--verbose", "recognize", "--ckpt", workspace["ckpt"],
                "--sample", single)
    assert r.returncode == 0
    dist_line = r.stdout.splitlines()[1].strip()
    probs = [float(part.split("=")[1]) for part in dist_line.split()]
    assert len(probs) == 3
    # each printed value is rounded to 6 decimals, so the printed sum may be
    # off by up to half a unit in the last place per class
    assert abs(sum(probs) - 1.0) <= len(probs) * 5e-7


def test_recognize_corrupt_sample_is_data_error(workspace, tmp_path):
    bad = tmp_path / "bad.jsonl"
    shutil.copy(workspace["data"], bad)

    def nan_in_present_hands(header, samples):
        samples[0]["locations"][samples[0]["present"].astype(bool)] = np.nan

    rewrite_dataset(bad, nan_in_present_hands)
    r = run_cli("recognize", "--ckpt", workspace["ckpt"], "--sample", bad)
    assert r.returncode == 4
    assert "non-finite" in r.stderr


def test_recognize_version_1_file_is_data_error(workspace, tmp_path):
    old = tmp_path / "old.jsonl"
    old.write_text('{"magic":"ASLCHAMP-DS","schema_version":1,"provenance":""}\n')
    r = run_cli("recognize", "--ckpt", workspace["ckpt"], "--sample", old)
    assert r.returncode == 4
    assert "gen-data" in r.stderr


def test_recognize_with_a_version_4_checkpoint_is_runtime_error(workspace, tmp_path):
    # the payload of a version 4 file has the same size, W_h as (H, 4H), so
    # only the version tells them apart; the checksum is correct
    version, header, payload = frame_parts(workspace["ckpt"].read_bytes(), MAGIC)
    assert version == 5
    old = tmp_path / "v4.ckpt"
    old.write_bytes(frame(MAGIC, 4, header, payload))
    r = run_cli("recognize", "--ckpt", old, "--sample", workspace["data"])
    assert r.returncode == 3
    assert "VersionMismatch" in r.stderr and "version 4" in r.stderr


def _version_1_file(path):
    path.write_text('{"magic":"ASLCHAMP-DS","schema_version":1,"provenance":""}\n')
    return path, "FormatError"


def _corrupted_file(path, source):
    shutil.copy(source, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # the checksum tail no longer matches the payload
    path.write_bytes(bytes(raw))
    return path, "FormatError"


def _invalid_sample_file(path, source):
    shutil.copy(source, path)

    def nan_in_present_hands(header, samples):
        samples[0]["locations"][samples[0]["present"].astype(bool)] = np.nan

    rewrite_dataset(path, nan_in_present_hands)
    return path, "SchemaError"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", ["version-1", "corrupted", "invalid-sample"])
def test_train_and_eval_on_a_bad_dataset_are_data_errors(workspace, tmp_path, command, kind):
    target = tmp_path / "bad.ds"
    if kind == "version-1":
        bad, error = _version_1_file(target)
    elif kind == "corrupted":
        bad, error = _corrupted_file(target, workspace["data"])
    else:
        bad, error = _invalid_sample_file(target, workspace["data"])
    if command == "train":
        r = run_cli(*TRAIN_MINI, "--data", bad, "--ckpt", tmp_path / "out.ckpt")
    else:
        r = run_cli("eval", "--ckpt", workspace["ckpt"], "--data", bad)
    assert r.returncode == 4, r.stderr
    assert error in r.stderr
    assert not (tmp_path / "out.ckpt").exists()


@pytest.mark.parametrize("command", ["recognize", "eval", "train"])
def test_overflowing_sample_is_a_data_error(workspace, tmp_path, command):
    # A location of 1e308 m passes validation but overflows when encoded.
    bad = tmp_path / "overflow.ds"
    shutil.copy(workspace["data"], bad)

    def huge_location(header, samples):
        for sample in samples:
            sample["locations"][:, :, 7] = 1e308  # joint 7 of both hands, every frame

    rewrite_dataset(bad, huge_location)
    if command == "recognize":
        r = run_cli("recognize", "--ckpt", workspace["ckpt"], "--sample", bad)
    elif command == "eval":
        r = run_cli("eval", "--ckpt", workspace["ckpt"], "--data", bad)
    else:
        r = run_cli(*TRAIN_MINI, "--data", bad, "--ckpt", tmp_path / "out.ckpt")
    assert r.returncode == 4, r.stderr
    assert "invalid sample" in r.stderr and "non-finite" in r.stderr
    assert "Warning" not in r.stderr
    assert not (tmp_path / "out.ckpt").exists()


# Every sign a simulated learner produces in a MILK/TEA/COFFEE lesson: the
# sign asked for, or the wrong production the simulator substitutes for it
# (a COFFEE sample for MILK and for TEA, COFFEE_REVERSED for COFFEE).
LESSON_PRODUCTIONS = ["COFFEE", "COFFEE_REVERSED", "TEA", "MILK"]
# They are recorded the way lesson._ATTEMPT_PROFILE records an attempt:
# right-handed, at speed 1.0, with no offset, 2 degrees of jitter and 2 mm
# of noise, so 217 frames each at the default 72 Hz over 3 s.
LESSON_DATA = ["gen-data", "--classes", *LESSON_PRODUCTIONS, "--left-handed", "0",
               "--speed-range", "1,1", "--offset-std", "0", "--jitter-deg", "2",
               "--noise-std", "0.002"]


def test_lesson_sim_perfect_and_hopeless(tmp_path):
    # The shared 2-epoch workspace checkpoint has had 6 optimizer steps and
    # answers the same sign for every input, so the lesson gets a recognizer
    # trained on every sign its learner can produce.  Dropout is off: at
    # scale 1/32 the last dense layer has 4 units.
    data = tmp_path / "lesson.jsonl"
    ckpt = tmp_path / "lesson.ckpt"
    r = run_cli("--seed", "8", *LESSON_DATA, "--signers", "4", "--reps", "4",
                "--out", data)
    assert r.returncode == 0, r.stderr
    r = run_cli("--seed", "8", "train", "--data", data, "--ckpt", ckpt,
                "--epochs", "60", "--scale", "1/32", "--t-max", "224",
                "--batch-size", "16", "--lr", "2e-3", "--dropout", "0",
                "--split-unit", "sample", threads=1)
    assert r.returncode == 0, r.stderr

    # precondition: the recognizer tells every production apart on samples
    # it was not trained on, so the verdicts below measure the learner
    fresh = tmp_path / "fresh.jsonl"
    r = run_cli("--seed", "9", *LESSON_DATA, "--signers", "2", "--reps", "3",
                "--out", fresh)
    assert r.returncode == 0, r.stderr
    r = run_cli("eval", "--ckpt", ckpt, "--data", fresh)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("accuracy 1.0000 over 24 samples"), r.stdout

    outcomes = {}
    for success_prob in ("0.0", "1.0"):
        transcript = tmp_path / f"tr-{success_prob}.jsonl"
        r = run_cli("--seed", "3", "lesson-sim", "--ckpt", ckpt,
                    "--signs", "MILK", "TEA", "COFFEE", "--success-prob", success_prob,
                    "--improvement", "0.0", "--out", transcript)
        assert r.returncode == 0, r.stderr
        lines = transcript.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "welcome"
        outcomes[success_prob] = r.stdout
    assert "needs_review: 3" in outcomes["0.0"]
    assert "needs_review: 0" in outcomes["1.0"]


def test_lesson_sim_bad_sign_is_usage_error(workspace):
    r = run_cli("lesson-sim", "--ckpt", workspace["ckpt"], "--signs", "ESPRESSO")
    assert r.returncode == 2


@pytest.mark.parametrize("args", [["lesson-sim", "--signs"],
                                  ["eval", "--subset", "test", "--fractions", "0.5,0.6,0.1"]],
                         ids=["lesson-sim-no-signs", "eval-fractions"])
def test_lesson_sim_and_eval_bad_flags_are_usage_errors(workspace, args):
    data = ["--data", workspace["data"]] if args[0] == "eval" else []
    r = run_cli(args[0], "--ckpt", workspace["ckpt"], *data, *args[1:])
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("value", ["0", "two"])
def test_bad_thread_variable_is_usage_error(value, tmp_path):
    r = run_cli("eval", "--data", tmp_path / "x", "--ckpt", tmp_path / "y",
                env={"ASLCHAMP_THREADS": value})
    assert r.returncode == 2, r.stderr
    assert "ASLCHAMP_THREADS" in r.stderr
    assert "Traceback" not in r.stderr


def test_unknown_command_is_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# Determinism: identical flags and seeds give byte-identical outputs
# ---------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        data = tmp_path / f"{tag}.jsonl"
        ckpt = tmp_path / f"{tag}.ckpt"
        report = tmp_path / f"{tag}.json"
        transcript = tmp_path / f"{tag}-tr.jsonl"
        r = run_cli("--seed", "11", *GEN_MINI, "--out", data, threads=1)
        assert r.returncode == 0, r.stderr
        r = run_cli("--seed", "11", *TRAIN_MINI, "--data", data, "--ckpt", ckpt,
                    "--report", report, threads=1)
        assert r.returncode == 0, r.stderr
        r = run_cli("--seed", "11", "lesson-sim", "--ckpt", ckpt,
                    "--signs", "MILK", "TEA", "COFFEE", "--success-prob", "0.5",
                    "--out", transcript, threads=1)
        assert r.returncode == 0, r.stderr
        outputs.append((data.read_bytes(), ckpt.read_bytes(),
                        report.read_bytes(), transcript.read_bytes()))
    for first, second in zip(outputs[0], outputs[1]):
        assert first == second
