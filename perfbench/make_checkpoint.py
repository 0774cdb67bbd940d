"""Build the lesson workload's published-width classifier and save it.

    python3 perfbench/make_checkpoint.py --seed 1 --out published.ckpt

The network is ``build_network`` at the published widths (24.5 M parameters,
float32) from the seed.  Its output layer, which ``build_network`` starts at
zero, is drawn from the same seed so that verdicts vary with the attempt
instead of all reading the uniform distribution.  Weights do not change
latency, so the network is not trained.  The lesson workload runs this in a
child process so that building it stays out of the workload's peak memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def published_config():
    from aslchamp.net import NetConfig
    return NetConfig(dtype="float32")


def build(seed: int):
    import numpy as np
    from aslchamp.net import build_network
    from aslchamp.seeds import child_seed

    network = build_network(published_config(), seed=child_seed(seed, "train"))
    w = network.params["out/W"]
    bound = np.sqrt(6.0 / sum(w.shape))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    network.params["out/W"] = rng.uniform(-bound, bound, size=w.shape).astype(w.dtype)
    return network


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from aslchamp.checkpoint import save_checkpoint
    save_checkpoint(build(args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
