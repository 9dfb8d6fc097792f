"""Span recorder that times the library's layers from outside.

During a traced run, :func:`traced` swaps the public functions that
``centroidal_bcd.bcd`` and ``centroidal_bcd.cli`` call (and the module
attributes the benchmark itself calls) for wrappers that record one span per
call: its name, start, end and enclosing span. Spans stay in memory; the
benchmark reads them when the run ends. A span's self time is its duration
minus the durations of its direct child spans, which is how time is
attributed to layers. The library itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_time: float = 0.0
    # Counters read at the layer boundary (ADMM iterations, bytes written...).
    info: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Recorder:
    """Collects spans in call order. Single-threaded, like the solves it
    times."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # Block ("force"/"contact") of the QP most recently built, and of
        # each live ADMM handle, so solver spans can be split per block.
        self._last_built: tuple[object, str] | None = None
        self._handles: dict[int, tuple[object, str]] = {}

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``before(args)`` may return initial span info; ``after(span, args,
        result)`` runs once the call has returned, outside the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent, info=before(args) if before else {})
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.end - span.start
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    # -- counters read at the layer boundaries -------------------------------

    def _built(self, block: str):
        def after(span, args, qp):
            self._last_built = (qp, block)
            span.info.update(n=qp.n, nnz=qp.P.nnz + qp.A.nnz)
        return after

    def _solver_created(self, span, args, _):
        handle, qp = args[0], args[1]
        built = self._last_built
        block = built[1] if built is not None and built[0] is qp else "other"
        self._handles[id(handle)] = (handle, block)
        span.info["block"] = block

    def _solver_used(self, span, args, result):
        span.info["block"] = self._handles.get(id(args[0]), (None, "other"))[1]
        if result is not None:
            span.info.update(iterations=result.iterations, status=result.status,
                             polished=result.polished)

    def _optimize_start(self, args):
        self._handles.clear()
        self._last_built = None
        return {}

    def _optimized(self, span, args, result):
        handles = [h for h, _ in self._handles.values()]
        span.info.update(
            kkt_refactorizations=sum(h.kkt_refactorizations for h in handles),
            polish_factorizations=sum(h.polish_factorizations for h in handles),
            outer_iterations=len(result.records),
            first_force_iterations=result.records[0].force_solver_iterations,
            consensus_final=result.final_record.eps_f_value)

    @staticmethod
    def _stream_start(args):
        return {"pos0": args[0].tell()}

    @staticmethod
    def _stream_written(span, args, _):
        span.info["bytes"] = args[0].tell() - span.info.pop("pos0")


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Swap the layer functions for recording wrappers; restore on exit."""
    from centroidal_bcd import bcd, cli, gaits, model, scenarios, trajectory_io
    from centroidal_bcd.qp.admm import AdmmSolver

    r = recorder
    optimized = {"before": r._optimize_start, "after": r._optimized}
    written = {"before": r._stream_start, "after": r._stream_written}
    # (owner, attribute, span name, hooks). The same function is swapped in
    # every namespace that calls it, since `from x import f` copies the name.
    targets = [
        (bcd, "optimize", "bcd.optimize", optimized),
        (cli, "optimize", "bcd.optimize", optimized),
        (bcd, "build_force_qp", "force_qp.build", {"after": r._built("force")}),
        (bcd, "build_contact_qp", "contact_qp.build", {"after": r._built("contact")}),
        (bcd, "extract_force_iterate", "force_qp.extract", {}),
        (bcd, "extract_contact_iterate", "contact_qp.extract", {}),
        (AdmmSolver, "__init__", "qp.setup", {"after": r._solver_created}),
        (AdmmSolver, "update_values", "qp.update", {"after": r._solver_used}),
        (AdmmSolver, "solve", "qp.solve", {"after": r._solver_used}),
        (model.ContactPlan, "active_contacts", "model.active_contacts", {}),
        (model, "verify_trajectory", "model.verify", {}),
        (bcd, "verify_trajectory", "model.verify", {}),
        (cli, "verify_trajectory", "model.verify", {}),
        (gaits, "make_gait", "gaits.make_gait", {}),
        (cli, "make_gait", "gaits.make_gait", {}),
        (scenarios, "materialize", "scenarios.materialize", {}),
        (cli, "materialize", "scenarios.materialize", {}),
        (scenarios, "parse_scenario", "scenarios.parse", {}),
        (cli, "parse_scenario", "scenarios.parse", {}),
        (scenarios, "emit_scenario", "scenarios.emit", {}),
        (cli, "emit_scenario", "scenarios.emit", {}),
        (trajectory_io, "write_trajectory_csv", "trajectory_io.write", written),
        (cli, "write_trajectory_csv", "trajectory_io.write", written),
        (cli, "write_convergence_json", "trajectory_io.write", written),
        (cli, "write_timing_csv", "trajectory_io.write", written),
        (trajectory_io, "read_trajectory_csv", "trajectory_io.read", {}),
        (cli, "read_trajectory_csv", "trajectory_io.read", {}),
        (cli, "main", "cli.main", {}),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, hooks in targets:
            setattr(owner, attr, r.wrap(name, owner.__dict__[attr], **hooks))
        yield recorder
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
