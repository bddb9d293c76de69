"""In-memory spans around the calls into each layer of the program.

A :class:`Tracer` replaces chosen public functions and methods with
wrappers that record one span per call: name, start, end, parent span
and run id. The program itself is unchanged; the wrappers are removed
when the ``installed()`` block ends. A layer's self time is its span's
duration minus the part covered by its direct child spans.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name) -> None:
        """Trace calls of ``owner.attr``. ``name`` is the span name, or a
        function of the call's arguments that returns it."""
        self._targets.append((owner, attr, name))

    def _traced(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [label, time.perf_counter(), None, parent]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in self._targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._traced(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------
    def totals(self) -> dict[str, dict]:
        """Per span name: number of calls, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
                    for n, s, e, p in self.spans
                ],
                f,
            )


CALIBRATION_CALLS = 20000


def span_cost() -> float:
    """Seconds that recording one span adds to a call: the time of a
    traced call minus that of the same call untraced, both measured here
    on ``CALIBRATION_CALLS`` calls of a function that does nothing."""

    def noop():
        return None

    traced = Tracer("calibration")._traced(noop, "noop")
    times = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn()
        times.append(time.perf_counter() - t0)
    return max(times[1] - times[0], 0.0) / CALIBRATION_CALLS


def layer_metrics(tracer: Tracer | None, spans: dict[str, str]) -> dict[str, float]:
    """``{metric: total seconds of the spans named spans[metric]}``, from
    ``tracer`` (empty when the run was not traced)."""
    if tracer is None:
        return {}
    totals = tracer.totals()
    return {metric: totals.get(span, {}).get("total_s", 0.0)
            for metric, span in spans.items()}
