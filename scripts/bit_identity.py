#!/usr/bin/env python3
"""Check that this checkout's network outputs equal a parent revision's bit for bit.

    python3 scripts/bit_identity.py --parent HEAD~1

The parent is extracted with ``git archive`` into a temporary directory, as
``bench_pairs.py`` does; ``--parent`` may also name a directory that holds
a checkout, which is then used as it is.  Each side runs ``side_hashes``
below in a child process that imports the package from that side's
``src/``, with BLAS pinned to one thread, and reports the sha256 of:

* ``published_f32_predict``: ``predict`` of each attempt on a float32
  network at the published widths (B = 1);
* ``s16_f32_predict`` and ``s16_f64_predict``: the same at scale 1/16, in
  float32 and float64;
* ``s16_f32_infer`` and ``s16_f64_infer``: ``infer`` of the attempts in
  chunks of three (B >= 2);
* ``grad_f32/<name>`` and ``grad_f64/<name>``: each parameter gradient of
  that network on one training batch of all the attempts, dropout drawn
  from a fixed seed, through ``net._forward_full`` and
  ``net._backward_full``, so a change can name the gradients it moved;
* ``trained_probs``: the probabilities, on its training set, of a network
  trained for one epoch at the acceptance config (scale 1/16, t_max 651,
  float32), and its epoch loss.

Networks come from ``build_network`` with a drawn output layer (a zero one
would make every distribution uniform).  The trained network is compared
by what it computes, not by its parameters, so a change of weight layout
does not hide a difference; a gradient is stored in its parameter's
layout, so such a change also shows as DIFFERS on the ``grad_*`` lines.
The inputs are generated on each side by that side's ``synth`` from fixed
seeds.  ``--small`` builds the widest network at scale 1/8 instead and
uses fewer attempts, for a quick check.

Prints one line per hash with both sides' digests and ``same`` or
``DIFFERS``; exits 1 if any differs or a side fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from bench_pairs import ROOT, extract

SEED = 21
ATTEMPTS = 12
SMALL_ATTEMPTS = 4


def side_hashes(small: bool) -> dict[str, str]:
    """The hashes of this process's ``aslchamp``, as the module docstring
    lists them."""
    import hashlib

    import numpy as np

    from aslchamp import gesture, net, nn_ops, synth

    def digest(*arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return h.hexdigest()

    def network(cfg):
        built = net.build_network(cfg, seed=SEED)
        w = built.params["out/W"]
        bound = np.sqrt(6.0 / sum(w.shape))
        rng = np.random.default_rng(np.random.SeedSequence((SEED, 2)))
        built.params["out/W"] = rng.uniform(-bound, bound, size=w.shape).astype(w.dtype)
        return built

    templates = synth.default_templates()
    profiles = synth.signer_profiles(synth.DatasetSpec(signers=4, master_seed=SEED))
    rng = np.random.default_rng(SEED)
    names = gesture.CANONICAL_NAMES
    attempts = [synth.generate_sample(templates[names[i % len(names)]], profiles[i % 4], rng)
                for i in range(SMALL_ATTEMPTS if small else ATTEMPTS)]

    out = {}
    published = network(net.NetConfig(dtype="float32",
                                       scale_factor=Fraction(1, 8) if small else Fraction(1)))
    out["published_f32_predict"] = digest(*(net.predict(published, s).distribution
                                            for s in attempts))
    del published  # one network at the published widths in memory at a time
    for dtype in ("float32", "float64"):
        tag = "f32" if dtype == "float32" else "f64"
        cfg = net.NetConfig(dtype=dtype, scale_factor=Fraction(1, 16))
        small_net = network(cfg)
        out[f"s16_{tag}_predict"] = digest(*(net.predict(small_net, s).distribution
                                             for s in attempts))
        feats = [gesture.encode_features(s)[:cfg.t_max].astype(cfg.np_dtype) for s in attempts]
        out[f"s16_{tag}_infer"] = digest(net.infer(small_net, (feats[i:i + 3] for i in
                                                               range(0, len(feats), 3))))
        logits, _, cache = net._forward_full(small_net, feats, train=True,
                                             rng=np.random.default_rng(SEED))
        targets = np.arange(len(feats)) % len(names)
        _, grad_logits = nn_ops.softmax_xent_batch(logits.astype(np.float64), targets)
        grads = net._backward_full(small_net, cache, grad_logits)
        out.update((f"grad_{tag}/{name}", digest(grads[name])) for name in small_net.params)

    cfg = net.NetConfig(dtype="float32", scale_factor=Fraction(1, 16), t_max=651)
    corpus = synth.generate_dataset(synth.DatasetSpec(signers=2 if small else 4,
                                                      repetitions_per_class=2,
                                                      master_seed=SEED))
    data = net.encode_gesture_dataset(corpus, cfg)
    trained, report, _ = net.train(net.build_network(cfg, seed=SEED), data, None,
                                   net.TrainConfig(epochs=1, batch_size=32, learning_rate=2e-3,
                                                   shuffle_seed=SEED))
    probs = net.infer(trained, data.chunks(cfg.t_max, cfg.np_dtype))
    out["trained_probs"] = digest(probs, np.array(report.train_loss))
    return out


def run_side(tree: Path, small: bool) -> dict[str, str]:
    """``side_hashes`` run in a child process against ``tree``'s package."""
    code = (f"import json, runpy; m = runpy.run_path({str(Path(__file__).resolve())!r}); "
            f"print(json.dumps(m['side_hashes']({small})))")
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"hashing {tree} failed with exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against, or a directory holding a checkout")
    parser.add_argument("--small", action="store_true",
                        help="the widest network at scale 1/8 and fewer attempts")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bit-identity-") as tmp:
        parent_tree = Path(args.parent)
        if not parent_tree.is_dir():
            parent_tree = extract(args.parent, Path(tmp))
        try:
            sides = {"parent": run_side(parent_tree, args.small),
                     "change": run_side(ROOT, args.small)}
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    differs = 0
    print(f"{'hash':<24} {'parent':<16} {'change':<16}")
    for key, parent in sides["parent"].items():
        change = sides["change"].get(key, "missing")
        differs += parent != change
        print(f"{key:<24} {parent[:16]:<16} {change[:16]:<16} "
              f"{'same' if parent == change else 'DIFFERS'}")
    print(f"{differs} of {len(sides['parent'])} differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
