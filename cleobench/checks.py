"""Checks of the program's outputs, and the recorder the replanning
checks need. Each check returns a list of problems (an empty list means
the output passed). Every check compares with a
computation made here, apart from the program, or with a property the
method must have; none compares with stored output."""
from __future__ import annotations

import contextlib
import inspect
import math

import numpy as np
import pandas as pd

from repro.core.features import feature_matrix
from repro.core.learners.linear import ElasticNet
from repro.core.models import FAMILIES, train_bank
from repro.scope import simulator as sim
from repro.scope.plan import (
    PARTITIONING_OPS,
    assign_input_templates,
    choice_points,
    expand_physical,
)

# Largest allowed violation of the elastic net's optimality conditions,
# as a share of its L1 weight. The solver stops at ``max_iter`` before
# ``tol`` on most groups, so its fits are close to, not at, the optimum.
KKT_TOLERANCE = 0.5

# The elastic-net weight ``train_bank`` trains every model with.
TRAIN_ALPHA = inspect.signature(train_bank).parameters["alpha"].default


# ---------------------------------------------------------------------------
# Model build
# ---------------------------------------------------------------------------

def family_counts(train: pd.DataFrame, bank) -> list[str]:
    """Each family holds one model per training signature group with at
    least ``min_occurrences`` rows (Operator: one per distinct operator)."""
    problems = []
    for spec in FAMILIES:
        sizes = train[spec.key_col].value_counts()
        expected = set(sizes.index[sizes >= spec.min_occurrences])
        got = set(bank.models[spec.name])
        if expected != got:
            problems.append(
                f"{spec.name}: {len(got)} models, expected {len(expected)} "
                f"({len(got - expected)} unexpected, {len(expected - got)} missing)")
    return problems


def kkt_violation(X: np.ndarray, y: np.ndarray, std_coef: np.ndarray,
                  raw_intercept: float, l1: float, l2: float) -> float:
    """Largest violation of the optimality conditions of
    ``1/(2n)||t - b - Zw||^2 + l1 ||w||_1 + l2/2 ||w||^2`` at ``w``, with
    ``t = log1p(y)`` and ``Z`` the standardized features: the gradient of
    the smooth part must equal ``-l1 * sign(w_j)`` where ``w_j != 0`` and
    lie within ``[-l1, l1]`` where ``w_j == 0``; the residual has mean 0."""
    t = np.log1p(np.maximum(y, 0.0))
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    Z = (X - mu) / sd
    intercept = raw_intercept + float((std_coef * mu / sd).sum())
    r = t - intercept - Z @ std_coef
    n = len(t)
    g = Z.T @ r / n - l2 * std_coef
    nonzero = std_coef != 0.0
    viol = np.where(nonzero, np.abs(g - l1 * np.sign(std_coef)),
                    np.maximum(np.abs(g) - l1, 0.0))
    return float(max(viol.max(initial=0.0), abs(r.mean())))


def elastic_net_optimality(train: pd.DataFrame, bank) -> tuple[float, list[str]]:
    """KKT check of every fitted elastic net of ``bank`` on its own
    training group, with the penalty of the learner ``train_bank`` fits.
    Returns (largest violation / L1 weight, problems)."""
    learner = ElasticNet(alpha=TRAIN_ALPHA)
    l1 = learner.alpha * learner.l1_ratio
    l2 = learner.alpha * (1.0 - learner.l1_ratio)
    worst = 0.0
    problems = []
    for spec in FAMILIES:
        models = bank.models[spec.name]
        for key, grp in train.groupby(spec.key_col):
            model = models.get(key)
            if model is None:
                continue
            X = feature_matrix(grp, context=spec.context)
            v = kkt_violation(X, grp["actual"].to_numpy(dtype=float),
                              np.asarray(model.std_coef), model.raw_intercept, l1, l2)
            worst = max(worst, v / l1)
            if not v <= KKT_TOLERANCE * l1:
                problems.append(f"{spec.name} {key}: KKT violation {v:.4g} "
                                f"> {KKT_TOLERANCE} x L1 weight {l1:g}")
    return worst, problems


def family_coverage(test: pd.DataFrame, scored: pd.DataFrame, bank) -> list[str]:
    """A row has a family prediction exactly when its signature key is in
    that family."""
    problems = []
    for spec in FAMILIES:
        covered = test[spec.key_col].isin(list(bank.models[spec.name])).to_numpy()
        predicted = ~np.isnan(scored[f"pred_{spec.key_col}"].to_numpy(dtype=float))
        bad = int((covered != predicted).sum())
        if bad:
            problems.append(f"{spec.name}: {bad} rows predicted iff not covered")
    return problems


def median_error_pct(pred: np.ndarray, actual: np.ndarray) -> float:
    """Median of |pred - actual| / actual in percent, computed here rather
    than with ``repro.metrics`` so the check does not trust the program."""
    return float(np.median(np.abs(pred - actual) / actual) * 100.0)


def combined_predictions(test: pd.DataFrame, pred: np.ndarray
                         ) -> tuple[float, list[str]]:
    """Combined predictions are finite and positive on every row, and
    their median error is below half the default cost model's. Returns
    (median error %, problems)."""
    problems = []
    bad = int((~(np.isfinite(pred) & (pred > 0))).sum())
    if bad:
        problems.append(f"combined model: {bad} of {len(pred)} predictions "
                        "not finite and positive")
    actual = test["actual"].to_numpy(dtype=float)
    err = median_error_pct(pred, actual)
    default = median_error_pct(test["cost_default"].to_numpy(dtype=float), actual)
    if not err < 0.5 * default:
        problems.append(f"combined median error {err:.2f}% is not below half "
                        f"the default model's {default:.2f}%")
    return err, problems


# ---------------------------------------------------------------------------
# Replanning
# ---------------------------------------------------------------------------

def plan_choices(tpl, result) -> list[str]:
    """Every choice point of the chosen plan takes a listed alternative."""
    problems = []
    for cid, alts in choice_points(tpl.logical_root):
        if cid not in result.choices or result.choices[cid] not in alts:
            problems.append(f"{tpl.tpl_id}: choice {cid}={result.choices.get(cid)!r} "
                            f"not in {alts}")
    return problems


def partition_counts(root) -> dict[str, int]:
    """Partition count of every partitioning operator of a plan."""
    return {n.tpl_op_id: n.partitions for n in root.walk() if n.op in PARTITIONING_OPS}


class ChosenPartitions:
    """Records the partition counts ``CleoPlanner.plan`` chooses.

    After choosing a candidate's counts, the planner re-instantiates the
    candidate with ``simulator.instantiate(..., preset_partitions=True)``,
    which may change them. While :meth:`installed` is active, every such
    call first copies the counts it was given; :meth:`take` returns the
    copy made for the plan the planner returned."""

    def __init__(self):
        self._seen: dict[int, tuple[object, dict[str, int]]] = {}

    @contextlib.contextmanager
    def installed(self):
        original = sim.instantiate

        def recording(root, *args, **kwargs):
            if kwargs.get("preset_partitions"):
                self._seen[id(root)] = (root, partition_counts(root))
            return original(root, *args, **kwargs)

        sim.instantiate = recording
        try:
            yield self
        finally:
            sim.instantiate = original

    def take(self, root) -> dict[str, int]:
        """The counts chosen for ``root``; forgets every plan seen so far."""
        _, counts = self._seen[id(root)]
        self._seen.clear()
        return counts


def executes_as_chosen(tpl, chosen: dict[str, int], root) -> list[str]:
    """The executed plan ``root`` runs every partitioning operator on the
    partition count the planner chose for it."""
    executed = partition_counts(root)
    return [f"{tpl.tpl_id}: {op} executes on {executed[op]} partitions, "
            f"the planner chose {n}"
            for op, n in sorted(chosen.items()) if executed[op] != n]


def replay_matches(tpl, result, chosen: dict[str, int], world, base_cards,
                   base_lens, pm, seed_parts) -> list[str]:
    """Rebuilt from the template, the returned choices and the chosen
    partition counts, and re-run in the simulator, the plan has the
    latency and CPU-seconds the planner reported."""
    root = expand_physical(tpl.logical_root, result.choices)
    assign_input_templates(root)
    for node in root.walk():
        if node.op in PARTITIONING_OPS:
            node.partitions = chosen[node.tpl_op_id]
    sim.instantiate(root, world, base_cards, base_lens, pm, seed_parts,
                    preset_partitions=True)
    problems = []
    for what, got, reported in (("latency", sim.job_latency(root), result.actual_latency),
                                ("cpu", sim.job_cpu_seconds(root), result.cpu_seconds)):
        if not math.isclose(got, reported, rel_tol=1e-9):
            problems.append(f"{tpl.tpl_id}: replayed {what} {got:.6g} != "
                            f"reported {reported:.6g}")
    return problems


def join_copartitioning(tpl, root) -> list[str]:
    """Both Exchange inputs of every join have the same partition count."""
    problems = []
    for node in root.walk():
        if node.op in ("HashJoin", "MergeJoin"):
            counts = {c.stage_partition_root().partitions for c in node.children}
            if len(counts) != 1:
                problems.append(f"{tpl.tpl_id}: join {node.tpl_op_id} inputs have "
                                f"partitions {sorted(counts)}")
    return problems
