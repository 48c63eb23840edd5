"""The ascent's reduced dual tables against the full tables and the unreduced ascent."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olacsim import controllers
from olacsim.controllers import OLAC2, ControllerConfig, default_oneshot_solver
from olacsim.dual import DualSolveResult, DualSolverConfig, DualTables, maximize_dual, per_state_dual, primal_oracle
from olacsim.sim import SimConfig, run

from conftest import make_instance


def reference_maximize_dual(instance, dist, V, cfg=None):
    """The ascent on the full tables, as it was before the reduction."""
    cfg = cfg or DualSolverConfig()
    dist = np.asarray(dist, dtype=float)
    r = instance.r
    M, K = instance.costs.shape
    base = (V * instance.costs).ravel()
    drift2 = instance.drift.reshape(M * K, r)
    row0 = np.arange(M) * K

    a, b = V * instance.delta_max, 10.0

    gamma = np.zeros(r) if cfg.warm_start is None else np.asarray(cfg.warm_start, dtype=float).copy()

    def evaluate(g):
        scores = base + drift2 @ g
        sel = scores.reshape(M, K).argmin(axis=1)
        rows = row0 + sel
        return float(dist @ scores[rows]), dist @ drift2[rows]

    best_value, grad = evaluate(gamma)
    best_gamma = gamma.copy()
    last_improve = 0
    converged = False
    iterations = 0
    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        step = a / (b + it)
        gamma = np.maximum(gamma + step * grad, 0.0)
        value, grad = evaluate(gamma)
        if value > best_value + cfg.tolerance:
            best_value = value
            best_gamma = gamma.copy()
            last_improve = it
        if it - last_improve >= cfg.window:
            converged = True
            break
    return DualSolveResult(best_gamma, best_value, converged, iterations)


# Multiples of 1/4 keep every score exact in floating point, so exact ties
# (equal costs, duplicate actions, zero multiplier components) stay ties.
GRID = st.integers(0, 12).map(lambda n: n / 4)


@st.composite
def instances(draw):
    """Small instances with ragged action lists, shared cost/service tables,
    action-dependent arrivals in some states and duplicate actions."""
    r = draw(st.integers(1, 3))
    vec = st.lists(GRID, min_size=r, max_size=r).map(tuple)
    tables = draw(st.lists(st.lists(st.tuples(GRID, vec), min_size=1, max_size=5), min_size=1, max_size=3))
    m = draw(st.integers(1, 6))
    states = []
    for _ in range(m):
        acts = list(draw(st.sampled_from(tables)))
        if draw(st.booleans()):
            acts.append(acts[draw(st.integers(0, len(acts) - 1))])
        if draw(st.booleans()):
            arrivals = [draw(vec) for _ in acts]
        else:
            arrivals = [draw(vec)] * len(acts)
        states.append([(cost, arr, srv) for (cost, srv), arr in zip(acts, arrivals)])
    return make_instance(r, [1.0 / m] * m, states)


def reduced_selection(instance, tables, gamma):
    """Per-state (value, action id, drift) of the action the reduced tables select."""
    sel = (tables.base + tables.drift @ gamma).reshape(tables.shape).argmin(axis=1)
    rows = tables.rows(sel)
    values = tables.full_base[rows] + tables.full_drift[rows] @ gamma
    K = instance.costs.shape[1]
    return values, rows - np.arange(instance.M) * K, tables.full_drift[rows]


def _points(r):
    return st.lists(st.one_of(st.just(0.0), GRID), min_size=r, max_size=r).map(np.array)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reduced_tables_select_the_full_minimizer(data):
    instance = data.draw(instances())
    V = data.draw(st.sampled_from([1.0, 2.0, 4.5, 100.0]))
    tables = DualTables(instance, V)
    for gamma in [np.zeros(instance.r)] + [data.draw(_points(instance.r)) for _ in range(3)]:
        values, ids, drifts = reduced_selection(instance, tables, gamma)
        for i in range(instance.M):
            value, k = per_state_dual(instance, i, gamma, V)
            assert abs(values[i] - value) <= 1e-12 * max(1.0, abs(value))
            assert ids[i] == k  # ties go to the smallest id
            assert np.array_equal(drifts[i], instance.drift[i, k])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reduced_minimum_at_arbitrary_points(data):
    instance = data.draw(instances())
    V = data.draw(st.floats(1.0, 500.0))
    tables = DualTables(instance, V)
    gamma = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=instance.r, max_size=instance.r)))
    values, _, _ = reduced_selection(instance, tables, gamma)
    for i in range(instance.M):
        value, k = per_state_dual(instance, i, gamma, V)
        scale = V * instance.costs[i, k] + np.abs(instance.drift[i, k]) @ gamma
        assert abs(values[i] - value) <= 1e-12 * max(1.0, scale)


def test_two_queue_reduction_shape(two_queue):
    tables = DualTables(two_queue, 100.0)
    assert tables.shape == (16, 9)
    assert np.isfinite(tables.base).sum() == 112


def test_tables_for_another_v_rejected(two_queue):
    with pytest.raises(ValueError, match="another instance or V"):
        maximize_dual(two_queue, two_queue.probabilities, 50.0, tables=DualTables(two_queue, 100.0))


@pytest.mark.parametrize("V", [20.0, 100.0])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("solver", ["analysis", "tracking", "oneshot"])
def test_ascent_matches_reference(two_queue, V, warm, solver):
    pi = two_queue.probabilities
    cfg = {
        "analysis": DualSolverConfig(max_iterations=2000, window=100),
        # a short budget that stops on its window or at its cap
        "tracking": DualSolverConfig(max_iterations=150, tolerance=1e-7 * V, window=8),
        "oneshot": default_oneshot_solver(two_queue, V),
    }[solver]
    if warm:
        cfg.warm_start = V * primal_oracle(two_queue, pi).multiplier_v1
    ref = reference_maximize_dual(two_queue, pi, V, cfg)
    res = maximize_dual(two_queue, pi, V, cfg)
    assert res.converged == ref.converged
    assert res.iterations == ref.iterations
    assert np.allclose(res.gamma, ref.gamma, rtol=1e-12, atol=0.0)
    assert res.value == pytest.approx(ref.value, rel=1e-12)


def test_olac2_run_matches_reference_ascent(two_queue, monkeypatch):
    """OLAC2's decisions, learn and adjustment over a run do not move."""
    ctrl = ControllerConfig(kind=OLAC2, V=100.0)
    cfg = SimConfig(horizon=3000, seed=4, controller=ctrl)
    gamma_star = np.zeros(2)
    res = run(two_queue, cfg, gamma_star)
    monkeypatch.setattr(
        controllers, "maximize_dual", lambda inst, dist, V, cfg: reference_maximize_dual(inst, dist, V, cfg)
    )
    ref = run(two_queue, cfg, gamma_star)
    assert np.array_equal(res.cost_trace, ref.cost_trace)
    assert np.array_equal(res.queue_trace, ref.queue_trace)
    assert np.array_equal(res.dropped, ref.dropped)
    assert res.solver_flagged_slots == ref.solver_flagged_slots
