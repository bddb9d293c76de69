"""Benchmark of the CLEO pipeline. One workload per process:

    python3 cleobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Set-up runs first and is timed as ``setup_s``. Then whole rounds of the
workload's operations run until ``--seconds`` have passed (at least
one), and the end-to-end metrics come from them. With ``--trace 1``
set-up and one round run with spans recorded around the calls into each
layer instead, and the per-layer metrics come from the spans. An
operation that raises, or whose output shows a known fault of the
program, counts as failed; every other output is checked. A JSON report
is printed, and the last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

import common
from spans import Tracer, span_cost

WORKLOADS = ("build-cluster4", "replan-cluster4")

# (name, unit, better) of every end-to-end metric; each workload reports all.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("round_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better) of every per-layer metric. A workload that does not
# enter a layer reports 0 for it.
PER_LAYER = [
    ("scope.generate_s", "s", "lower"),
    ("scope.simulator.instantiate_s", "s", "lower"),
    ("core.features.matrix_s", "s", "lower"),
    ("core.features.calls_per_op", "count", "lower"),
    ("core.learners.elastic_net_fit_s", "s", "lower"),
    ("core.learners.fasttree_fit_s", "s", "lower"),
    ("core.models.train_s", "s", "lower"),
    ("core.models.train_s.Op-Subgraph", "s", "lower"),
    ("core.models.train_s.Op-SubgraphApprox", "s", "lower"),
    ("core.models.train_s.Op-Input", "s", "lower"),
    ("core.models.train_s.Operator", "s", "lower"),
    ("core.models.to_spark_s", "s", "lower"),
    ("core.models.fits_per_s", "1/s", "higher"),
    ("core.models.spark_tasks", "count", "higher"),
    ("core.models.predict_s", "s", "lower"),
    ("core.combined.fit_s", "s", "lower"),
    ("core.combined.predict_s", "s", "lower"),
    ("core.combined.median_error_pct", "%", "lower"),
    ("optimizer.cascades.plan_self_s", "s", "lower"),
    ("optimizer.resource.predict_s", "s", "lower"),
    ("optimizer.resource.analytical_s", "s", "lower"),
    ("optimizer.resource.predict_calls_per_job", "count", "lower"),
    ("optimizer.lookups_per_job", "count", "lower"),
    ("optimizer.planned_latency_s", "s", "lower"),
    ("optimizer.planned_cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Context:
    """What a workload gets from the run loop: its seed, the scratch
    directory, and the tracers (``None`` unless ``--trace 1``)."""

    def __init__(self, seed: int, scratch: common.Scratch, trace: bool):
        self.seed = seed
        self.scratch = scratch
        self.trace = trace
        run_id = f"{os.getpid()}-{time.time_ns()}"
        self.setup_tracer = Tracer(run_id + "-setup") if trace else None
        self.round_tracer = Tracer(run_id + "-round") if trace else None


def _workload(name: str):
    if name == "build-cluster4":
        import workload_build as module
    else:
        import workload_replan as module
    return module


def _traced(tracer, module):
    if tracer is None:
        return contextlib.nullcontext()
    module.trace_targets(tracer)
    return tracer.installed()


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    common.use_checkout_sources()
    scratch = common.Scratch()
    try:
        ctx = Context(seed, scratch, trace)
        module = _workload(name)
        state = None
        try:
            with _traced(ctx.setup_tracer, module):
                state = module.setup(ctx)
            setup_s = time.perf_counter() - t_start
            if trace:
                with _traced(ctx.round_tracer, module):
                    t0 = time.perf_counter()
                    result = module.one_round(state)
                    rounds = [(time.perf_counter() - t0, result)]
            else:
                rounds = common.timed_rounds(seconds, lambda: module.one_round(state))
            walls = [w for w, _ in rounds]
            outcome = module.evaluate(state, [r for _, r in rounds], ctx)
        finally:
            if state is not None and hasattr(module, "close"):
                module.close(state)
        if trace:
            path = os.path.join(common.OUT_DIR, f"trace-{name}-seed{seed}.json")
            ctx.round_tracer.dump(path)
            outcome["details"]["trace_file"] = os.path.relpath(path, common.ROOT)
    finally:
        scratch.remove()

    ops = [ms for per_round in outcome["op_ms"] for ms in per_round]
    e2e = {
        "setup_s": setup_s,
        "round_s": statistics.median(walls),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    layer = {n: 0.0 for n, _, _ in PER_LAYER}
    layer.update(outcome["layer"])
    if trace:
        layer["trace.overhead_s"] = span_cost() * len(ctx.round_tracer.spans)
    chosen = PER_LAYER if trace else END_TO_END
    values = layer if trace else e2e
    result = {
        "correct": not outcome["problems"],
        "attempted": len(ops),
        "failed": len(outcome["failures"]),
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u, _ in chosen},
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(walls),
        "round_walls_s": walls,
        "operations_per_round": len(outcome["op_ms"][0]),
        "machine": common.machine(seed),
        "problems": outcome["problems"][:20],
        "failures": outcome["failures"][:20],
        "end_to_end": e2e,
        "op_ms_percentiles": {q: common.percentile(ops, q) for q in (50, 75, 90)},
        "details": outcome["details"],
    }
    return report, result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    common.fix_hash_seed()
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, default=str))
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in report["failures"]:
        print(f"operation failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
