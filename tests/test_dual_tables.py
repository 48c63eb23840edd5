"""The reduced dual tables against the full tables."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from olacsim.dual import DualTables

from conftest import make_instance, per_state_dual


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


def reduced_selection(instance, tables, gamma, V):
    """Per-state (value, action id, drift) of the action the reduced tables select at V."""
    sel = (V * tables.base + tables.drift @ gamma).reshape(tables.shape).argmin(axis=1)
    ids = tables.action_ids[tables.class_of, sel[tables.class_of]]
    states = np.arange(instance.M)
    drifts = instance.drift[states, ids]
    return V * instance.costs[states, ids] + drifts @ gamma, ids, drifts


def _points(r):
    return st.lists(st.one_of(st.just(0.0), GRID), min_size=r, max_size=r).map(np.array)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reduced_tables_select_the_full_minimizer(data):
    instance = data.draw(instances())
    V = data.draw(st.sampled_from([1.0, 2.0, 4.5, 100.0]))
    tables = DualTables(instance)
    for gamma in [np.zeros(instance.r)] + [data.draw(_points(instance.r)) for _ in range(3)]:
        values, ids, drifts = reduced_selection(instance, tables, gamma, V)
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
    tables = DualTables(instance)
    gamma = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=instance.r, max_size=instance.r)))
    values, _, _ = reduced_selection(instance, tables, gamma, V)
    for i in range(instance.M):
        value, k = per_state_dual(instance, i, gamma, V)
        scale = V * instance.costs[i, k] + np.abs(instance.drift[i, k]) @ gamma
        assert abs(values[i] - value) <= 1e-12 * max(1.0, scale)


def test_two_queue_reduction_shape(two_queue):
    tables = DualTables(two_queue)
    assert tables.shape == (16, 9)
    assert np.isfinite(tables.base).sum() == 112
