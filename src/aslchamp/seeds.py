"""Deterministic fan-out of one master seed into per-stage child seeds.

child = SHA-256("aslchamp:<master>:<stage>") reduced to 63 bits.  The scheme
is platform-stable, so a single --seed flag reproduces an entire run.
"""

from __future__ import annotations

import hashlib

STAGE_DATA = "data"
STAGE_SPLIT = "split"
STAGE_TRAIN = "train"
STAGE_LESSON = "lesson"


def child_seed(master: int, stage: str) -> int:
    digest = hashlib.sha256(f"aslchamp:{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF
