"""Span tracer for the traced run, installed on ``coss`` from outside the package.

Each wrapper replaces a public function in the namespace of the module that
calls it: ``compose_batch`` and ``forward`` as ``coss.distill`` sees them,
``sample_neighbors`` as ``coss.data`` sees it, ``as_matrix`` in every module
that imported it, the eval functions in ``coss.evaluate`` (and ``coss.cli``),
and the readers and writers on ``coss.io``.  A span's self time is its
duration minus the spans it directly encloses.  Untraced runs never import
this module.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc

_now = time.perf_counter_ns

# (calling module, attribute, span name) for spans that run inside distill
_STEP_SPANS = (
    ("coss.distill", "compose_batch", "data.compose_batch"),
    ("coss.distill", "augment", "data.augment"),
    ("coss.distill", "loss_co", "losses.value"),
    ("coss.distill", "loss_ss", "losses.value"),
    ("coss.distill", "grad_co", "losses.grad"),
    ("coss.distill", "grad_ss", "losses.grad"),
    ("coss.distill", "backward", "models.backward"),
    ("coss.data", "sample_neighbors", "knn.sample_neighbors"),
)
_AS_MATRIX_CALLERS = ("coss.linalg", "coss.data", "coss.models", "coss.losses", "coss.evaluate")
_EVAL_FUNCTIONS = ("knn_predict", "recall_at_k", "linear_probe", "alignment_diagnostics")
_IO_FUNCTIONS = {
    "read_dataset": "read", "read_index": "read", "read_model": "read", "read_report": "read",
    "write_dataset": "write", "write_index": "write", "write_model": "write",
    "write_report": "write", "atomic_write": "write",
}


class Tracer:
    """Collects spans in memory; :meth:`export` hands them out as plain data."""

    def __init__(self):
        self.spans: dict[tuple[str, bool], list[int]] = {}  # (name, in distill) -> calls, ns, self ns
        self._open: list[int] = []  # child time of each open span
        self._distill_depth = 0
        self._teacher = None
        self._last_step = None
        self.step_ns: list[int] = []
        self.steps = 0
        self._io_depth = 0
        self.io_bytes = {"read": 0, "write": 0}
        self.recall_alloc_peak: list[int] = []

    # -- span bookkeeping -------------------------------------------------
    def _close(self, name: str, elapsed: int) -> None:
        child = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        entry = self.spans.setdefault((name, self._distill_depth > 0), [0, 0, 0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child

    def _timed(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            self._open.append(0)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, _now() - start)
                if after is not None:
                    after()

        return wrapper

    def _span(self, fn, name):
        return self._timed(fn, lambda args: name)

    # -- special spans ----------------------------------------------------
    def _distill(self, fn):
        @functools.wraps(fn)
        def wrapper(config, dataset, teacher, index, *args, **kwargs):
            self._teacher = teacher
            self._last_step = None
            self._open.append(0)
            self._distill_depth += 1
            start = _now()
            try:
                return fn(config, dataset, teacher, index, *args, **kwargs)
            finally:
                elapsed = _now() - start
                self._distill_depth -= 1
                self._close("distill.distill", elapsed)

        return wrapper

    def _step_done(self) -> None:
        """Called as each sgd_step returns: one training step has ended."""
        now = _now()
        if self._last_step is not None:
            self.step_ns.append(now - self._last_step)
        self._last_step = now
        self.steps += 1

    def _forward_name(self, args) -> str:
        return "models.forward_teacher" if args[0] is self._teacher else "models.forward_student"

    def _recall(self, fn):
        timed = self._span(fn, "evaluate.recall_at_k")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return timed(*args, **kwargs)
            finally:
                self.recall_alloc_peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def _io(self, fn, kind):
        """Only the outermost io call counts: write_model calls atomic_write."""

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            if self._io_depth:
                return fn(path, *args, **kwargs)
            self._io_depth += 1
            self._open.append(0)
            start = _now()
            try:
                result = fn(path, *args, **kwargs)
            finally:
                self._io_depth -= 1
                self._close(f"io.{kind}", _now() - start)
            self.io_bytes[kind] += os.path.getsize(path)
            return result

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self, cli=None) -> None:
        """Wrap coss's public functions; pass the ``coss.cli`` module to trace the CLI too."""
        mod = importlib.import_module
        for module, attr, name in _STEP_SPANS:
            _patch(mod(module), attr, lambda fn, name=name: self._span(fn, name))
        distill_mod = mod("coss.distill")
        _patch(distill_mod, "forward", lambda fn: self._timed(fn, self._forward_name))
        _patch(distill_mod, "sgd_step",
               lambda fn: self._timed(fn, lambda args: "models.sgd_step", self._step_done))
        for module in _AS_MATRIX_CALLERS:
            _patch(mod(module), "as_matrix", lambda fn: self._span(fn, "linalg.as_matrix"))
        knn = mod("coss.knn")
        knn.NeighborIndex.__post_init__ = self._span(knn.NeighborIndex.__post_init__,
                                                     "knn.NeighborIndex")
        io = mod("coss.io")
        for attr, kind in _IO_FUNCTIONS.items():
            _patch(io, attr, lambda fn, kind=kind: self._io(fn, kind))
        # entry points, where the benchmark's pipeline or the CLI calls them
        callers = [knn, distill_mod, mod("coss.evaluate")] + ([cli] if cli is not None else [])
        for caller in callers:
            if hasattr(caller, "build_index"):
                _patch(caller, "build_index", lambda fn: self._span(fn, "knn.build_index"))
            if hasattr(caller, "distill"):
                _patch(caller, "distill", self._distill)
            for attr in _EVAL_FUNCTIONS:
                if hasattr(caller, attr):
                    wrap = self._recall if attr == "recall_at_k" else (
                        lambda fn, attr=attr: self._span(fn, f"evaluate.{attr}"))
                    _patch(caller, attr, wrap)

    def export(self) -> dict:
        return {
            "spans": [[name, inside, *v] for (name, inside), v in self.spans.items()],
            "steps": self.steps,
            "step_ns": self.step_ns,
            "io_bytes": self.io_bytes,
            "recall_alloc_peak": self.recall_alloc_peak,
        }


def _patch(module, attr: str, make) -> None:
    setattr(module, attr, make(getattr(module, attr)))


def layer_metrics(exports: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced round from the tracers of its processes.

    ``.s`` figures are seconds per call (``io.*.s``: per round), ``us_per_step``
    figures are microseconds per training step spent inside distill, and a
    layer that did not run reads 0.
    """
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    step_total: dict[str, int] = {}
    step_calls: dict[str, int] = {}
    steps = 0
    io_bytes = {"read": 0, "write": 0}
    recall_peak = 0
    for ex in exports:
        for name, inside, n, ns, own in ex["spans"]:
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0) + ns
            self_ns[name] = self_ns.get(name, 0) + own
            if inside:
                step_total[name] = step_total.get(name, 0) + ns
                step_calls[name] = step_calls.get(name, 0) + n
        steps += ex["steps"]
        for kind in io_bytes:
            io_bytes[kind] += ex["io_bytes"][kind]
        recall_peak = max([recall_peak, *ex["recall_alloc_peak"]])

    def per_call_s(name):
        return total.get(name, 0) / calls[name] / 1e9 if calls.get(name) else 0.0

    def per_step(table, name, scale=1e-3):
        return table.get(name, 0) * scale / steps if steps else 0.0

    out = {
        "knn.build_index.s": per_call_s("knn.build_index"),
        "knn.NeighborIndex.s": per_call_s("knn.NeighborIndex"),
        "knn.sample_neighbors.calls_per_step": per_step(step_calls, "knn.sample_neighbors", 1),
        "knn.sample_neighbors.us_per_step": per_step(step_total, "knn.sample_neighbors"),
        "data.compose_batch.self_us_per_step": self_ns.get("data.compose_batch", 0) / 1e3 / steps
        if steps else 0.0,
        "data.augment.us_per_step": per_step(step_total, "data.augment"),
        "linalg.as_matrix.calls_per_step": per_step(step_calls, "linalg.as_matrix", 1),
        "linalg.as_matrix.us_per_step": per_step(step_total, "linalg.as_matrix"),
        "losses.value.us_per_step": per_step(step_total, "losses.value"),
        "losses.grad.us_per_step": per_step(step_total, "losses.grad"),
        "models.forward_teacher.us_per_step": per_step(step_total, "models.forward_teacher"),
        "models.forward_student.us_per_step": per_step(step_total, "models.forward_student"),
        "models.backward.us_per_step": per_step(step_total, "models.backward"),
        "models.sgd_step.us_per_step": per_step(step_total, "models.sgd_step"),
        "distill.loop_self.us_per_step": self_ns.get("distill.distill", 0) / 1e3 / steps
        if steps else 0.0,
        "evaluate.recall_at_k.alloc_peak_mb": recall_peak / 2**20,
        "io.read.s": total.get("io.read", 0) / 1e9,
        "io.write.s": total.get("io.write", 0) / 1e9,
        "io.bytes_read": float(io_bytes["read"]),
        "io.bytes_written": float(io_bytes["write"]),
    }
    for attr in _EVAL_FUNCTIONS:
        out[f"evaluate.{attr}.s"] = per_call_s(f"evaluate.{attr}")
    return out
