import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from olacsim.controllers import ControllerConfig, bp_decide, olac2_step, olac_decide
from olacsim.dual import primal_oracle
from olacsim.sim import SimConfig, run

from conftest import per_state_dual, state_index


def enumerate_best(instance, sid, weights, v):
    """Independent argmax oracle: explicit loop over the state's actions."""
    best, best_score = None, -math.inf
    for k, act in enumerate(instance.states[sid].actions):
        score = -v * act.cost + sum(
            w * (mu - a) for w, mu, a in zip(weights, act.services, act.arrivals)
        )
        if score > best_score:
            best, best_score = k, score
    return best


def rows(instance, v):
    """The per-state rows of -V * costs, as sim.run builds them once per run."""
    return tuple(-v * instance.costs)


class TestBpDecide:
    def test_zero_backlog_picks_cheapest(self, two_queue):
        for sid in range(0, 64, 7):
            assert bp_decide(two_queue, sid, np.zeros(2), rows(two_queue, 100.0)) == 0

    def test_idle_state_full_backlog_enumeration(self, two_queue):
        # a=(0,0), C=(6,6), q=(100,100), V=100: enumerating the 10 scores picks
        # (serve 1, P=0.75) (id 1): -75 + 100*ln(5.5) beats every other level.
        sid = state_index(0, 0, 3, 3)
        expected = enumerate_best(two_queue, sid, (100.0, 100.0), 100.0)
        assert expected == 1
        assert bp_decide(two_queue, sid, np.array([100.0, 100.0]), rows(two_queue, 100.0)) == 1

    def test_symmetric_tie_breaks_to_smallest_id(self, two_queue):
        # symmetric channels and equal backlog: serve-1 and serve-2 actions tie
        sid = state_index(0, 0, 2, 2)
        q = np.array([277.0, 277.0])
        a = bp_decide(two_queue, sid, q, rows(two_queue, 100.0))
        assert a == enumerate_best(two_queue, sid, q, 100.0)
        assert a <= 4  # the serve-1 copy wins the tie

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_per_state_dual_argmin(self, seed, two_queue):
        rng = np.random.default_rng(seed)
        for _ in range(2000):
            sid = int(rng.integers(0, 64))
            q = rng.uniform(0, 400, size=2)
            v = float(rng.uniform(1, 300))
            expected = per_state_dual(two_queue, sid, q, v)[1]
            assert bp_decide(two_queue, sid, q, rows(two_queue, v)) == expected

    def test_negative_backlog_rejected(self, two_queue):
        # the rule trusts q >= 0; a run refuses a negative backlog before its first slot
        cfg = SimConfig(horizon=5, seed=0, controller=ControllerConfig("Backpressure", 1.0),
                        initial_backlog=np.array([-1.0, 0.0]))
        with pytest.raises(ValueError, match="initial_backlog"):
            run(two_queue, cfg, np.zeros(2))


# random score vectors neg - D w at r = 1, 2, 3, 5, 8; prints how many have np.dot's bits, and how many were drawn
DOT_BITS = """
import numpy as np
rng = np.random.default_rng(0)
same = total = 0
for r in (1, 2, 3, 5, 8):
    for _ in range(600):
        k = int(rng.integers(1, 40))
        d = rng.normal(size=(k, r)) * rng.choice([1e-3, 1.0, 1e3])
        w = rng.normal(size=r) * rng.choice([1e-3, 1.0, 1e3])
        neg = -rng.uniform(0, 300, size=k)
        same += (neg - d.dot(w)).tobytes() == (neg - np.dot(d, w)).tobytes()
        total += 1
print(same, total)
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 OpenBLAS kernel names")
@pytest.mark.parametrize("kernel", [None, "Haswell", "Prescott"])
def test_method_dot_has_np_dot_bits(kernel):
    # the rules score with ndarray.dot; under each OpenBLAS kernel, set in a
    # child process only, it rounds as np.dot does
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, "-c", DOT_BITS], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["3000", "3000"]


class TestOlacDecide:
    def test_beta_equals_theta_reduces_to_backpressure(self, two_queue):
        theta = np.full(2, math.log(100.0) ** 2)
        grid = np.arange(0.0, 400.0, 23.0)
        neg_v_costs = rows(two_queue, 100.0)
        for sid in range(0, 64, 5):
            for q1 in grid:
                for q2 in grid[::3]:
                    q = np.array([q1, q2])
                    expected = bp_decide(two_queue, sid, q, neg_v_costs)
                    assert olac_decide(two_queue, sid, q, theta, theta, neg_v_costs) == expected

    def test_under_provisioning_with_negative_weights(self, two_queue):
        theta = np.full(2, math.log(100.0) ** 2)
        for sid in range(0, 64, 9):
            assert olac_decide(two_queue, sid, np.zeros(2), np.zeros(2), theta, rows(two_queue, 100.0)) == 0

    def test_joint_scaling_leaves_argmax_unchanged(self, two_queue):
        rng = np.random.default_rng(1)
        for _ in range(300):
            sid = int(rng.integers(0, 64))
            q = rng.uniform(0, 200, 2)
            beta = rng.uniform(0, 200, 2)
            theta = rng.uniform(1, 40, 2)
            lam = float(rng.uniform(0.1, 10))
            a1 = olac_decide(two_queue, sid, q, beta, theta, rows(two_queue, 50.0))
            a2 = olac_decide(two_queue, sid, lam * q, lam * beta, lam * theta, rows(two_queue, lam * 50.0))
            assert a1 == a2

    def test_input_validation(self, two_queue):
        # the rule trusts a finite theta > 0; a run refuses others before its first slot
        for theta in ([0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]):
            cfg = SimConfig(horizon=5, seed=0, controller=ControllerConfig("OLAC", 1.0, theta=np.array(theta)))
            with pytest.raises(ValueError, match="theta must be componentwise positive"):
                run(two_queue, cfg, np.zeros(2))


class TestOlac2Step:
    def test_degenerate_learn_time(self, two_queue):
        cfg = ControllerConfig("OLAC2", 1.0, c=0.0)
        assert cfg.learn_slot() == 1
        learned = olac2_step(two_queue, np.bincount([3], minlength=64) / 1, cfg)
        assert learned.gamma.shape == (2,)
        assert (learned.gamma >= 0).all()

    def test_learn_slot_rounding(self):
        assert ControllerConfig("OLAC2", 100.0).learn_slot() == 22
        assert ControllerConfig("OLAC2", 500.0).learn_slot() == 63
        assert ControllerConfig("OLAC2", 800.0).learn_slot() == 86

    def test_adjustment_beats_plain_backpressure_at_learn_slot(self, two_queue):
        # post-adjustment backlog is a much better multiplier estimate than the
        # same-seed Backpressure backlog at T_l
        v = 500.0
        pi = two_queue.probabilities
        gamma_star = v * primal_oracle(two_queue, pi).multiplier_v1
        t_l = ControllerConfig("OLAC2", v).learn_slot()
        wins = 0
        for seed in range(6):
            cfg_bp = SimConfig(horizon=t_l + 1, seed=seed, controller=ControllerConfig("Backpressure", v))
            cfg_o2 = SimConfig(horizon=t_l + 1, seed=seed, controller=ControllerConfig("OLAC2", v))
            q_bp = run(two_queue, cfg_bp, gamma_star).queue_trace[t_l]
            q_o2 = run(two_queue, cfg_o2, gamma_star).queue_trace[t_l]
            if np.linalg.norm(q_o2 - gamma_star) < 0.5 * np.linalg.norm(q_bp - gamma_star):
                wins += 1
        assert wins >= 5


class TestControllerConfig:
    def test_kind_and_ranges(self):
        with pytest.raises(ValueError):
            ControllerConfig("Nope", 10.0)
        with pytest.raises(ValueError):
            ControllerConfig("OLAC", 0.5)
        with pytest.raises(ValueError):
            ControllerConfig("OLAC2", 10.0, c=1.0)

    def test_default_theta_is_log_squared(self):
        theta = ControllerConfig("OLAC", 100.0).resolved_theta(2)
        assert np.allclose(theta, math.log(100.0) ** 2)
