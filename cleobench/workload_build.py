"""``build-cluster4``: one cold model build with the Spark trainer (§5.1).

A round (one operation) generates three days of operator logs of the
production cluster, trains the four families on day 1 with the Spark
``applyInPandas`` trainer, fits the combined model on day 2 and scores
day 3 with both, its rows in an order drawn from the seed. The planner
is not used.
"""
from __future__ import annotations

import itertools
import time
import traceback

import numpy as np

import checks
import common
from spans import layer_metrics

CLUSTER = "cluster4"
DAYS = [1, 2, 3]
TRAIN_DAY, COMBINED_DAY, TEST_DAY = 1, 2, 3
FAMILY_NAMES = ("Op-Subgraph", "Op-SubgraphApprox", "Op-Input", "Operator")


def trace_targets(tracer) -> None:
    from repro.core import combined, models
    from repro.core.learners.ensemble import FastTreeRegressor
    from repro.core.learners.linear import ElasticNet
    from repro.scope import simulator, workload

    tracer.wrap(workload.Cluster, "generate_days", "scope.generate")
    tracer.wrap(simulator, "instantiate", "scope.simulator.instantiate")
    tracer.wrap(models, "feature_matrix", "core.features.matrix")
    tracer.wrap(ElasticNet, "fit", "core.learners.elastic_net_fit")
    tracer.wrap(FastTreeRegressor, "fit", "core.learners.fasttree_fit")
    tracer.wrap(models, "train_bank", "core.models.train")
    tracer.wrap(models, "train_family_spark",
                lambda ops, spec, *a, **k: f"core.models.train.{spec.name}")
    tracer.wrap(models.ModelBank, "predict_all", "core.models.predict")
    tracer.wrap(combined.CombinedModel, "fit", "core.combined.fit")
    tracer.wrap(combined.CombinedModel, "predict", "core.combined.predict")


class State:
    def __init__(self, ctx):
        self.spark_proc = common.SparkProcess(ctx.scratch)
        self.spark = self.spark_proc.session
        self.settings = self.spark_proc.settings()
        self.cfg = common.production_cluster(CLUSTER)
        self.rng = np.random.default_rng(ctx.seed)
        self.groups = (f"cleobench-train-{i}" for i in itertools.count())
        # Warm-up: start Spark's Python workers and run a grouped
        # ``applyInPandas`` once, so the timed build is not the JVM's
        # first job of that kind.
        warm = self.spark.range(256).selectExpr("id", "id % 4 AS k")
        warm.groupBy("k").applyInPandas(lambda pdf: pdf.head(1),
                                        schema="id long, k long").collect()


def setup(ctx) -> State:
    return State(ctx)


def close(state: State) -> None:
    state.spark_proc.stop()


def one_round(state: State) -> dict:
    """One build. An exception fails the build; it is recorded, not raised."""
    from repro.core import models
    from repro.core.combined import CombinedModel
    from repro.scope.workload import Cluster

    group = next(state.groups)
    t0 = time.perf_counter()
    try:
        ops, _ = Cluster(state.cfg).generate_days(DAYS)
        train = ops[ops.day == TRAIN_DAY]
        state.spark.sparkContext.setJobGroup(group, "cleobench model build")
        bank = models.train_bank(train, spark=state.spark)
        combined = CombinedModel().fit(bank, ops[ops.day == COMBINED_DAY])
        test = ops[ops.day == TEST_DAY]
        test = test.iloc[state.rng.permutation(len(test))].reset_index(drop=True)
        scored = bank.predict_all(test)
        pred = combined.predict(bank, test)
    except Exception:
        return {"error": traceback.format_exc(limit=3),
                "op_ms": [(time.perf_counter() - t0) * 1000.0]}
    build_ms = (time.perf_counter() - t0) * 1000.0
    return {"train": train, "test": test, "bank": bank, "scored": scored,
            "pred": pred, "group": group, "op_ms": [build_ms], "error": None}


def _training_tasks(sc, group: str) -> int:
    """Tasks run by the training stages of the Spark jobs in ``group``:
    the last stage of each job that reads a shuffle (the grouped
    ``applyInPandas``), not the map stages that AQE runs as jobs of
    their own."""
    tracker = sc.statusTracker()
    tasks = 0
    for job_id in tracker.getJobIdsForGroup(group):
        job = tracker.getJobInfo(job_id)
        if job is not None and len(job.stageIds) > 1:
            tasks += tracker.getStageInfo(max(job.stageIds)).numTasks
    return tasks


def evaluate(state: State, results: list[dict], ctx) -> dict:
    problems: list[str] = []
    errors, worst_kkt = [], 0.0
    built = [r for r in results if r["error"] is None]
    for r in built:
        problems += checks.family_counts(r["train"], r["bank"])
        worst, kkt = checks.elastic_net_optimality(r["train"], r["bank"])
        worst_kkt = max(worst_kkt, worst)
        problems += kkt[:5]
        problems += checks.family_coverage(r["test"], r["scored"], r["bank"])
        err, comb = checks.combined_predictions(r["test"], r["pred"])
        problems += comb
        errors.append(err)

    layer = layer_metrics(ctx.round_tracer, {
        "scope.generate_s": "scope.generate",
        "scope.simulator.instantiate_s": "scope.simulator.instantiate",
        "core.features.matrix_s": "core.features.matrix",
        "core.learners.elastic_net_fit_s": "core.learners.elastic_net_fit",
        "core.learners.fasttree_fit_s": "core.learners.fasttree_fit",
        "core.models.train_s": "core.models.train",
        **{f"core.models.train_s.{f}": f"core.models.train.{f}" for f in FAMILY_NAMES},
        "core.models.predict_s": "core.models.predict",
        "core.combined.fit_s": "core.combined.fit",
        "core.combined.predict_s": "core.combined.predict",
    })
    if ctx.round_tracer is not None and built:
        last = built[-1]
        n_models = sum(len(m) for m in last["bank"].models.values())
        totals = ctx.round_tracer.totals()
        layer["core.models.to_spark_s"] = totals["core.models.train"]["self_s"]
        layer["core.models.fits_per_s"] = n_models / layer["core.models.train_s"]
        layer["core.models.spark_tasks"] = _training_tasks(
            state.spark.sparkContext, last["group"])
        layer["core.features.calls_per_op"] = totals["core.features.matrix"]["calls"]
        layer["core.combined.median_error_pct"] = errors[-1]
    return {
        "problems": problems,
        "op_ms": [r["op_ms"] for r in results],
        "failures": [r["error"] for r in results if r["error"] is not None],
        "layer": layer,
        "details": {
            "spark": state.settings,
            "cluster": state.cfg.name,
            "train_rows": [len(r["train"]) for r in built],
            "models": ({k: len(v) for k, v in built[-1]["bank"].models.items()}
                       if built else {}),
            "combined_median_error_pct": errors,
            "kkt_worst_violation_share_of_l1": worst_kkt,
        },
    }
