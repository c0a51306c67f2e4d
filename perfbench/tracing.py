"""Span tracing of the lrsdp layers, installed from outside the solver.

Each traced function is replaced, for the duration of a ``traced`` block,
at the module or class attribute its callers look up at call time (for
example ``rtr.tcg``, which ``rtr.minimize`` reads from the ``rtr`` module
globals). Only public names are wrapped. A span records its name, start,
end and parent; self time is a span's duration minus the time its child
spans cover. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter_ns

import numpy as np

from lrsdp import alm, io_cli, manifolds, problem, rtr, spectral


def _tcg_stop(counts, args, result):
    counts["rtr.tcg_stop." + result[1]] += 1


def _inner_iters(counts, args, result):
    counts["rtr.inner_iters"] += result[1].iterations


def _escape_cols(counts, args, result):
    counts["alm.escape_cols"] += result[1]


def _matvec_cols(counts, args, result):
    V = args[1]
    counts["spectral.matvec_cols"] += 1 if V.ndim == 1 else V.shape[1]


# (owner, attribute, span name, extra counter); the owner is the object
# whose attribute the callers read, so patching it reaches every call site
TARGETS = (
    (alm.AlmSubproblem, "at", "alm.subproblem_at", None),
    (alm, "assemble_dual", "alm.assemble_dual", None),
    (alm, "escape_direction", "alm.escape", _escape_cols),
    (alm, "truncate_rank", "alm.truncate_rank", None),
    (rtr, "minimize", "rtr.minimize", _inner_iters),
    (rtr, "tcg", "rtr.tcg", _tcg_stop),
    (manifolds, "riem_hess_vec", "manifolds.hess_vec", None),
    (problem, "apply_constraints", "problem.apply_constraints", None),
    (problem, "apply_adjoint_times", "problem.adjoint_times", None),
    (problem, "adjoint_dense", "problem.adjoint_dense", None),
    (problem, "kkt_residues", "problem.kkt_residues", None),
    (spectral, "extreme_eigs", "spectral.eigs", None),
    (spectral.SymOperator, "times", "spectral.matvec", _matvec_cols),
    (spectral, "thin_svd", "spectral.svd", None),
    (io_cli, "result_document", "io_cli.result_document", None),
    (io_cli, "check_document", "io_cli.check_document", None),
)

TCG_STOPS = ("boundary", "negative-curvature", "converged", "max-cg-iters")


class Tracer:
    """In-memory span log plus counters taken from traced return values."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, count):
        """``fn`` recording a span per call, then calling ``count``."""
        def traced_call(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter_ns()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        traced_call.__wrapped__ = fn
        return traced_call

    def self_seconds(self):
        """Self time in seconds summed per span name."""
        if not self.names:
            return {}
        dur = np.array(self.ends, dtype=np.int64) \
            - np.array(self.starts, dtype=np.int64)
        parents = np.array(self.parents)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child],
                              minlength=dur.size)
        own = dur - covered
        out = Counter()
        for name, ns in zip(self.names, own.tolist()):
            out[name] += ns * 1e-9
        return dict(out)

    def calls(self):
        return Counter(self.names)

    def spans(self):
        """Rows [name, parent, start_us, duration_us], starts counted from
        the first span, for writing out."""
        origin_ns = self.starts[0] if self.starts else 0
        return [[name, parent, (start - origin_ns) // 1000,
                 (end - start) // 1000]
                for name, parent, start, end in zip(
                    self.names, self.parents, self.starts, self.ends)]


@contextlib.contextmanager
def traced(tracer):
    """Install the wrappers of ``TARGETS`` into ``tracer``; restore on exit."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
