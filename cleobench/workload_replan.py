"""``replan-cluster4``: the Fig 19 experiment.

Set-up generates the production cluster's logs and trains the bank on
days 1-2 with the driver trainer. A round plans, one at a time and in
an order drawn from the seed, instance k=0 on day 3 of every template
alive that day with ``CleoPlanner`` (analytical partition exploration);
each planned job is one operation. No training runs in the timed part:
planning only reads the models.

A job fails when it raises, or when the plan the simulator executes
runs a partitioning operator on another count than the planner chose
(see README, Checks). Its output is not checked further.
"""
from __future__ import annotations

import time
import traceback

import numpy as np

import checks
import common
from spans import layer_metrics

CLUSTER = "cluster4"
DAYS = [1, 2, 3]
TRAIN_DAYS = (1, 2)
PLAN_DAY = 3


def trace_targets(tracer) -> None:
    from repro.core import models
    from repro.core.learners.linear import ElasticNet
    from repro.optimizer import cascades, resource
    from repro.scope import simulator, workload

    tracer.wrap(workload.Cluster, "generate_days", "scope.generate")
    tracer.wrap(simulator, "instantiate", "scope.simulator.instantiate")
    tracer.wrap(models, "feature_matrix", "core.features.matrix")
    tracer.wrap(resource, "feature_matrix", "core.features.matrix")
    tracer.wrap(ElasticNet, "fit", "core.learners.elastic_net_fit")
    tracer.wrap(models, "train_bank", "core.models.train")
    tracer.wrap(models, "train_family_pandas",
                lambda ops, spec, *a, **k: f"core.models.train.{spec.name}")
    tracer.wrap(cascades.CleoPlanner, "plan", "optimizer.cascades.plan")
    tracer.wrap(resource, "predict_costs_at", "optimizer.resource.predict")
    tracer.wrap(resource, "optimize_stage_analytical", "optimizer.resource.analytical")


class State:
    def __init__(self, ctx):
        from repro.core import models
        from repro.optimizer.cascades import CleoPlanner
        from repro.scope.workload import Cluster

        self.cluster = Cluster(common.production_cluster(CLUSTER))
        ops, _ = self.cluster.generate_days(DAYS)
        self.bank = models.train_bank(ops[ops.day.isin(TRAIN_DAYS)])
        self.planner = CleoPlanner(self.bank)
        self.jobs = []
        for tpl in self.cluster.templates:
            if tpl.alive(PLAN_DAY):
                pm, cards, lens = self.cluster.instance_inputs(tpl, PLAN_DAY, 0)
                seed_parts = (self.cluster.cfg.name, tpl.tpl_id, PLAN_DAY, 0)
                self.jobs.append((tpl, cards, lens, pm, seed_parts))
        self.order = np.random.default_rng(ctx.seed).permutation(len(self.jobs))
        self.recorder = checks.ChosenPartitions()


def setup(ctx) -> State:
    return State(ctx)


def one_round(state: State) -> dict:
    """Plan every job once, in the seed's order. Results are kept in job
    order: ``(plan, chosen partition counts)``, or ``(None, error)``."""
    world = state.cluster.world
    outcomes, op_ms = [None] * len(state.jobs), []
    with state.recorder.installed():
        for i in state.order:
            tpl, cards, lens, pm, seed_parts = state.jobs[i]
            t0 = time.perf_counter()
            try:
                plan = state.planner.plan(tpl, world, cards, lens, pm, seed_parts)
                outcomes[i] = (plan, state.recorder.take(plan.root))
            except Exception:
                outcomes[i] = (None, traceback.format_exc(limit=3))
            op_ms.append((time.perf_counter() - t0) * 1000.0)
    return {"outcomes": outcomes, "op_ms": op_ms}


def _logged(state: State, job) -> tuple[float, float]:
    """Latency and CPU-seconds of the plan the cluster logged for the job:
    the template's recorded choices with heuristic partition counts."""
    from repro.scope import simulator as sim
    from repro.scope.plan import assign_input_templates, expand_physical

    tpl, cards, lens, pm, seed_parts = job
    root = expand_physical(tpl.logical_root, tpl.choices)
    assign_input_templates(root)
    sim.instantiate(root, state.cluster.world, cards, lens, pm, seed_parts)
    return sim.job_latency(root), sim.job_cpu_seconds(root)


def evaluate(state: State, results: list[dict], ctx) -> dict:
    world = state.cluster.world
    problems: list[str] = []
    failures: list[str] = []
    for r in results:
        for job, (plan, chosen) in zip(state.jobs, r["outcomes"]):
            tpl, cards, lens, pm, seed_parts = job
            if plan is None:
                failures.append(f"{tpl.tpl_id}: {chosen}")
                continue
            changed = checks.executes_as_chosen(tpl, chosen, plan.root)
            if changed:
                failures.append("; ".join(changed))
                continue
            problems += checks.plan_choices(tpl, plan)
            problems += checks.replay_matches(tpl, plan, chosen, world, cards, lens,
                                              pm, seed_parts)
            problems += checks.join_copartitioning(tpl, plan.root)
    # Plan quality of the last round, over the jobs that planned.
    planned = [(job, plan) for job, (plan, _) in zip(state.jobs, results[-1]["outcomes"])
               if plan is not None]
    plans = [plan for _, plan in planned]
    planned_lat = sum(p.actual_latency for p in plans)
    planned_cpu = sum(p.cpu_seconds for p in plans)
    logged = [_logged(state, job) for job, _ in planned]
    logged_lat = sum(lat for lat, _ in logged)
    logged_cpu = sum(cpu for _, cpu in logged)
    if not planned_lat < logged_lat:
        problems.append(f"planned latency {planned_lat:.1f}s not below logged {logged_lat:.1f}s")
    if not planned_cpu < logged_cpu:
        problems.append(f"planned CPU {planned_cpu:.1f}s not below logged {logged_cpu:.1f}s")

    n_jobs = len(state.jobs)
    layer = {}
    if ctx.trace:
        setup_totals = ctx.setup_tracer.totals()
        layer.update(layer_metrics(ctx.round_tracer, {
            "scope.simulator.instantiate_s": "scope.simulator.instantiate",
            "core.features.matrix_s": "core.features.matrix",
            "optimizer.resource.predict_s": "optimizer.resource.predict",
            "optimizer.resource.analytical_s": "optimizer.resource.analytical",
        }))
        layer.update(layer_metrics(ctx.setup_tracer, {
            "scope.generate_s": "scope.generate",
            "core.learners.elastic_net_fit_s": "core.learners.elastic_net_fit",
            "core.models.train_s": "core.models.train",
            "core.models.train_s.Op-Subgraph": "core.models.train.Op-Subgraph",
            "core.models.train_s.Op-SubgraphApprox": "core.models.train.Op-SubgraphApprox",
            "core.models.train_s.Op-Input": "core.models.train.Op-Input",
            "core.models.train_s.Operator": "core.models.train.Operator",
        }))
        n_models = sum(len(m) for m in state.bank.models.values())
        layer["core.models.fits_per_s"] = n_models / setup_totals["core.models.train"]["total_s"]
        totals = ctx.round_tracer.totals()
        layer["optimizer.cascades.plan_self_s"] = totals["optimizer.cascades.plan"]["self_s"]
        layer["optimizer.resource.predict_calls_per_job"] = (
            totals["optimizer.resource.predict"]["calls"] / n_jobs)
        layer["core.features.calls_per_op"] = totals["core.features.matrix"]["calls"] / n_jobs
        layer["optimizer.lookups_per_job"] = sum(p.lookups for p in plans) / max(len(plans), 1)
        layer["optimizer.planned_latency_s"] = planned_lat
        layer["optimizer.planned_cpu_s"] = planned_cpu
    return {
        "problems": problems,
        "op_ms": [r["op_ms"] for r in results],
        "failures": failures,
        "layer": layer,
        "details": {
            "cluster": state.cluster.cfg.name,
            "jobs": n_jobs,
            "models": {k: len(v) for k, v in state.bank.models.items()},
            "planned_latency_s": planned_lat,
            "logged_latency_s": logged_lat,
            "planned_cpu_s": planned_cpu,
            "logged_cpu_s": logged_cpu,
            "lookups_per_job": sum(p.lookups for p in plans) / max(len(plans), 1),
        },
    }
