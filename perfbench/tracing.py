"""Outside-in tracing of the aslchamp modules.

The tracer wraps public functions of the package from the benchmark's side,
so nothing under ``src/`` changes.  A function is replaced at every place it
is looked up: ``net`` imports the ``nn_ops`` kernels by name, ``synth``
imports ``mirror_handedness`` and so on, so every ``aslchamp`` module whose
attribute *is* the original function gets the wrapper.

Each wrapped call records one span: name, start, end, parent span and the op
it belongs to.  Spans stay in memory and are written out when the run ends.
A function's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import shape_counts

# The public functions traced per module; per-layer metric names derive
# from these (``<module>.<function>.calls`` and ``.self_ms``).
TRACED = {
    "nn_ops": ("conv1d_forward", "conv1d_backward", "maxpool1d_forward",
               "maxpool1d_backward", "lstm_sequence", "lstm_sequence_backward",
               "dense_forward", "dense_backward", "dropout_forward",
               "softmax_xent_batch", "adam_step"),
    "net": ("train", "forward", "predict", "encode_gesture_dataset"),
    "gesture": ("validate_sample", "encode_features", "pad_or_truncate",
                "mirror_handedness"),
    "synth": ("generate_dataset", "generate_sample"),
    "dataset_io": ("write_dataset", "read_dataset"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "evaluation": ("evaluate", "split_dataset"),
    "lesson": ("step", "replay"),
}

# Functions whose set-up cost is reported on its own (``setup.<name>.self_ms``).
SETUP_TRACED = ("checkpoint.load_checkpoint", "net.encode_gesture_dataset",
                "gesture.encode_features", "gesture.validate_sample",
                "evaluation.split_dataset")

COUNTER_SPAN = "trace.counters"
SETUP = "setup"


@contextmanager
def patched(module, name: str, make):
    """Replace ``module.name`` by ``make(current)`` wherever the package looks it up."""
    current = getattr(module, name)
    replacement = make(current)
    sites = [m for key, m in list(sys.modules.items())
             if key.split(".")[0] == "aslchamp" and getattr(m, name, None) is current]
    for m in sites:
        setattr(m, name, replacement)
    try:
        yield replacement
    finally:
        for m in sites:
            setattr(m, name, current)


def recorder(sink: list, pick=lambda result: result):
    """A ``patched`` factory: the wrapper appends ``pick(result)`` of each call to ``sink``."""
    def make(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(pick(result))
            return result
        return recorded
    return make


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | str | None


class NullTracer:
    """Stands in for the tracer in untraced runs: ops are not recorded."""

    def begin_op(self):
        pass

    def end_op(self, start: float, end: float):
        pass


class Tracer(NullTracer):
    def __init__(self, rows: shape_counts.RowTracker):
        self.rows = rows
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._tag: int | str | None = None
        self.ops: list[tuple[float, float]] = []  # (start, end) per op
        self.counts: dict[str, float] = defaultdict(float)  # summed over op spans

    # -- op boundaries ------------------------------------------------------

    def begin_op(self):
        self._tag = len(self.ops)

    def end_op(self, start: float, end: float):
        self.ops.append((start, end))
        self._tag = None

    @contextmanager
    def tagged(self, tag: str):
        self._tag = tag
        try:
            yield
        finally:
            self._tag = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self._tag)
            if counter is not None and isinstance(self._tag, int):
                c_idx = len(spans)
                spans.append(None)
                c_start = time.perf_counter()
                for key, value in counter(self.rows, args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
                spans[c_idx] = Span(COUNTER_SPAN, c_start, time.perf_counter(),
                                    parent, self._tag)
            return result
        return traced

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for module_name, names in TRACED.items():
                module = importlib.import_module(f"aslchamp.{module_name}")
                for fn_name in names:
                    counter = shape_counts.COUNTERS.get(fn_name) if module_name == "nn_ops" else None
                    stack.enter_context(patched(
                        module, fn_name,
                        lambda fn, n=f"{module_name}.{fn_name}", c=counter: self._wrap(n, fn, c)))
            yield self

    # -- reduction ----------------------------------------------------------

    def self_times(self):
        """{(tag_kind, name): [calls, self_seconds]}; tag_kind is "op" or "setup"."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for i, s in enumerate(self.spans):
            if s.op is None:
                continue
            kind = "op" if isinstance(s.op, int) else s.op
            entry = out[(kind, s.name)]
            entry[0] += 1
            entry[1] += (s.end - s.start) - child[i]
        return out

    def coverage(self):
        """(op wall seconds, seconds covered by top-level spans, counter seconds)."""
        wall = sum(end - start for start, end in self.ops)
        covered = counters = 0.0
        for s in self.spans:
            if not isinstance(s.op, int):
                continue
            if s.name == COUNTER_SPAN:
                counters += s.end - s.start
            elif s.parent is None:
                covered += s.end - s.start
        return wall, covered, counters

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op},
                                    separators=(",", ":")) + "\n")
