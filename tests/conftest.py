import numpy as np
import pytest

from olacsim.dual import InfeasibleInstanceError, max_slack
from olacsim.model import ActionSpec, NetworkInstance, StateSpec, build_two_queue_example


@pytest.fixture(scope="session")
def two_queue():
    return build_two_queue_example([0.25, 0.25, 0.25, 0.25])


@pytest.fixture(scope="session")
def two_queue_unbalanced():
    return build_two_queue_example([0.1, 0.4, 0.4, 0.1])


def make_instance(r, probs, actions_per_state):
    """Build an instance from plain nested lists: [(cost, arrivals, services), ...] per state."""
    states = []
    for i, (p, acts) in enumerate(zip(probs, actions_per_state)):
        states.append(
            StateSpec(i, p, tuple(ActionSpec(k, c, tuple(a), tuple(s)) for k, (c, a, s) in enumerate(acts)))
        )
    return NetworkInstance(r, states)


def single_state_instance(actions, r=1):
    return make_instance(r, [1.0], [actions])


def per_state_dual(instance, state_id, gamma, V):
    """Minimum of V*f + gamma.(A - mu) over one state's actions, as (value, argmin action id).

    The reference the decision rule and the reduced tables are checked
    against; exact ties go to the smallest id, and padded actions cost +inf.
    """
    scores = V * instance.costs[state_id] + instance.drift[state_id] @ np.asarray(gamma, dtype=float)
    k = int(np.argmin(scores))
    return float(scores[k]), k


def total(ledger, j):
    """Queue j's backlog as a float, from the ledger's cached totals."""
    return float(ledger.totals[j])


def random_instance(rng, max_m=8, max_r=2, max_actions=5):
    m = int(rng.integers(1, max_m + 1))
    r = int(rng.integers(1, max_r + 1))
    probs = rng.dirichlet(np.ones(m))
    actions = []
    for _ in range(m):
        k = int(rng.integers(1, max_actions + 1))
        acts = []
        for _ in range(k):
            cost = float(rng.uniform(0, 3))
            arr = rng.uniform(0, 2, size=r)
            srv = rng.uniform(0, 3, size=r)
            acts.append((cost, arr.tolist(), srv.tolist()))
        actions.append(acts)
    return make_instance(r, probs.tolist(), actions)


def random_slack_instances(seed, count, **kwargs):
    """Deterministic stream of random instances with strictly positive slack."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        inst = random_instance(rng, **kwargs)
        try:
            if max_slack(inst, inst.probabilities) > 1e-6:
                out.append(inst)
        except InfeasibleInstanceError:
            continue
    return out


def state_index(a1_on, a2_on, c1_idx, c2_idx):
    """Two-queue builder enumeration order: (a1, a2, C1, C2) nested loops."""
    return ((a1_on * 2 + a2_on) * 4 + c1_idx) * 4 + c2_idx
