"""Each output check of the benchmark rejects a wrong output.

Run from the repository root: ``python3 -m pytest cleobench/tests -q``.
"""
import os
import sys

import numpy as np
import pandas as pd
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
from repro.core.models import train_bank  # noqa: E402
from repro.optimizer.cascades import CleoPlanner  # noqa: E402
from repro.scope import simulator  # noqa: E402
from repro.scope.plan import assign_input_templates, expand_physical  # noqa: E402
from repro.scope.workload import Cluster, tiny_cluster  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    cluster = Cluster(tiny_cluster())
    ops, _ = cluster.generate_days([1, 2, 3])
    return cluster, ops, train_bank(ops[ops.day <= 2])


def test_fitted_elastic_nets_pass_and_perturbed_weights_fail(tiny):
    _, ops, bank = tiny
    train = ops[ops.day <= 2]
    worst, problems = checks.elastic_net_optimality(train, bank)
    assert problems == [] and worst <= checks.KKT_TOLERANCE
    key, model = next(iter(bank.models["Op-Subgraph"].items()))
    model.std_coef = model.std_coef.copy()
    model.std_coef[np.argmax(np.abs(model.std_coef))] += 0.05
    _, problems = checks.elastic_net_optimality(train, bank)
    assert any(str(key) in p for p in problems)


def test_missing_model_fails_family_counts(tiny):
    _, ops, bank = tiny
    train = ops[ops.day <= 2]
    assert checks.family_counts(train, bank) == []
    models = bank.models["Op-Input"]
    key = next(iter(models))
    dropped = models.pop(key)
    try:
        assert checks.family_counts(train, bank)
    finally:
        models[key] = dropped


def _planned_job(tiny):
    cluster, _, bank = tiny
    planner = CleoPlanner(bank)
    recorder = checks.ChosenPartitions()
    for tpl in cluster.templates:
        if tpl.alive(3) and any(n.op in ("HashJoin", "MergeJoin") for n in tpl.root.walk()):
            pm, cards, lens = cluster.instance_inputs(tpl, 3, 0)
            seed_parts = (cluster.cfg.name, tpl.tpl_id, 3, 0)
            with recorder.installed():
                plan = planner.plan(tpl, cluster.world, cards, lens, pm, seed_parts)
            chosen = recorder.take(plan.root)
            return tpl, plan, chosen, (cluster.world, cards, lens, pm, seed_parts)
    raise AssertionError("the tiny cluster has no join template alive on day 3")


def test_recorder_keeps_counts_from_before_preset_instantiation(tiny):
    tpl, plan, chosen, job = _planned_job(tiny)
    assert chosen == checks.partition_counts(plan.root)
    root = expand_physical(tpl.logical_root, plan.choices)
    assign_input_templates(root)
    exchange = next(n for n in root.walk() if n.op == "Exchange")
    exchange.partitions = 1  # a preset count of 1 is re-derived
    recorder = checks.ChosenPartitions()
    with recorder.installed():
        simulator.instantiate(root, *job, preset_partitions=True)
    assert recorder.take(root)[exchange.tpl_op_id] == 1


def test_changed_partition_count_fails_replay(tiny):
    tpl, plan, chosen, job = _planned_job(tiny)
    assert checks.plan_choices(tpl, plan) == []
    assert checks.executes_as_chosen(tpl, chosen, plan.root) == []
    assert checks.replay_matches(tpl, plan, chosen, *job) == []
    assert checks.join_copartitioning(tpl, plan.root) == []
    op = next(n.tpl_op_id for n in plan.root.walk() if n.op == "Exchange")
    changed = {**chosen, op: chosen[op] + 7}
    assert checks.executes_as_chosen(tpl, changed, plan.root)
    assert checks.replay_matches(tpl, plan, changed, *job)


def test_unequal_join_inputs_fail_copartitioning(tiny):
    tpl, plan, _, _ = _planned_job(tiny)
    join = next(n for n in plan.root.walk() if n.op in ("HashJoin", "MergeJoin"))
    join.children[0].stage_partition_root().partitions += 7
    assert checks.join_copartitioning(tpl, plan.root)


def test_invalid_choice_fails(tiny):
    tpl, plan, _, _ = _planned_job(tiny)
    cid = next(iter(plan.choices))
    plan.choices[cid] = "nested-loop"
    assert checks.plan_choices(tpl, plan)


def test_nonpositive_or_nonfinite_combined_predictions_fail():
    test = pd.DataFrame({"actual": [1.0, 2.0, 4.0], "cost_default": [9.0, 0.1, 40.0]})
    err, problems = checks.combined_predictions(test, np.array([1.0, 2.1, 3.9]))
    assert problems == [] and err == pytest.approx(2.5)
    for bad in (-2.0, 0.0, np.inf, np.nan):
        _, problems = checks.combined_predictions(test, np.array([1.0, bad, 3.9]))
        assert problems


def test_inaccurate_combined_model_fails():
    test = pd.DataFrame({"actual": [1.0, 2.0, 4.0], "cost_default": [1.5, 3.0, 6.0]})
    _, problems = checks.combined_predictions(test, np.array([1.4, 2.9, 5.9]))
    assert problems
