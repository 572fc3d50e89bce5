"""Per-layer spans for the traced run, recorded from outside the library.

The tracer rebinds, for the length of one op, the names through which pce
modules call each other (for example ``pce.model.skinny_svd``, the name
``fit`` calls) to a wrapper that records a span and restores the original
afterwards.  No file under ``src/`` is changed.  Spans stay in memory and are
written out once, when the run ends.
"""

import functools
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def _path_bytes(index):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}

    return count


def _pencil_order(args, kwargs, result):
    return {"pencil_order_sum": args[0].shape[0]}


def _embed_dim(args, kwargs, result):
    return {"dim": args[2]}


# (calling module, the name it calls, span name, counter).  One function may
# be reached through several modules; every site feeds the same span name.
SITES = (
    ("pce.model", "skinny_svd", "linalg.skinny_svd", None),
    ("pce.graph", "skinny_svd", "linalg.skinny_svd", None),
    ("pce.cli", "skinny_svd", "linalg.skinny_svd", None),
    ("pce.graph", "generalized_top_eigs", "linalg.generalized_top_eigs", _pencil_order),
    ("pce.model", "fit", "model.fit", None),
    ("pce.graph", "embed", "graph.embed", _embed_dim),
    ("pce.graph", "lle_graph", "graph.lle_graph", None),
    ("pce.evaluation", "nn_classify", "evaluation.nn_classify", None),
    ("pce.evaluation", "generate_union_of_subspaces", "data.generate_union_of_subspaces", None),
    ("pce.evaluation", "add_gaussian_noise", "data.add_gaussian_noise", None),
    ("pce.evaluation", "split", "data.split", None),
    ("pce.evaluation", "load_matrix", "data.load_matrix", _path_bytes(0)),
    ("pce.cli", "split", "data.split", None),
    ("pce.cli", "load_matrix", "data.load_matrix", _path_bytes(0)),
    ("pce.cli", "save_matrix", "data.save_matrix", _path_bytes(1)),
    ("pce.cli", "save_model", "cli.save_model", _path_bytes(1)),
    ("pce.cli", "load_model", "cli.load_model", None),
    ("pce.cli", "cmd_fit", "cli.fit", None),
    ("pce.cli", "cmd_transform", "cli.transform", None),
    ("pce.cli", "cmd_sweep", "cli.sweep", None),
    ("pce.cli", "main", "cli.main", None),
)

OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the ops run inside ``op()``; untraced code between
    ops runs the original functions."""

    def __init__(self):
        self.spans = []
        self.missing_sites = []
        self._stack = []
        self._op = None

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1], self._op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id):
        """Trace one op: rebind every site, record an ``op`` root span."""
        patched = []
        self.missing_sites = []
        for module_name, attr, name, counter in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # A later refactor may drop a call site; its layer then reads 0.
                self.missing_sites.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original, counter))
            patched.append((module, attr, original))
        self._op = op_id
        span = Span(OP, time.perf_counter(), 0.0, None, op_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = None
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def layer_totals(spans):
    """Per op, per span name: summed duration, self time and counts.

    Self time is a span's duration minus its children's durations; children
    run one after another in this single-threaded program.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals = {}
    for index, span in enumerate(spans):
        per_name = totals.setdefault(span.op, {}).setdefault(span.name, {})
        duration = span.end - span.start
        per_name["s"] = per_name.get("s", 0.0) + duration
        per_name["self_s"] = per_name.get("self_s", 0.0) + duration - child_time[index]
        per_name["calls"] = per_name.get("calls", 0) + 1
        for key, value in span.counts.items():
            per_name[key] = per_name.get(key, 0) + value
    return totals


TIMES = ("s", "self_s")


def layer_metric(totals, name):
    """A ``<layer>.<quantity>`` metric over the traced ops.

    Times are the median over ops of each op's total; counts are the total
    divided by the number of ops, so they repeat exactly for a fixed seed.
    A layer the workload never calls reads 0.
    """
    layer, _, quantity = name.rpartition(".")
    values = [per_op.get(layer, {}).get(quantity, 0) for per_op in totals.values()]
    if quantity in TIMES:
        return statistics.median(values)
    return sum(values) / len(values)
