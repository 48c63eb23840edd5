import numpy as np
import pytest

from olacsim import learning
from olacsim.controllers import ControllerConfig
from olacsim.dual import DualSolverConfig, maximize_dual, primal_oracle
from olacsim.learning import dual_learn
from olacsim.sim import SimConfig, run, sample_states

from conftest import single_state_instance


class TestEmpiricalDistribution:
    def test_observe_counts(self, two_queue, monkeypatch):
        # slot t solves on the counts of states[:t] over t, warm-started at
        # beta(t - 1) with the step schedule offset by t
        states = np.array([0, 0, 1, 1, 5])
        calls = []
        real = learning.maximize_dual

        def spy(inst, dist, V, cfg, tables=None):
            calls.append((dist.copy(), cfg.warm_start.copy(), cfg.step_offset))
            return real(inst, dist, V, cfg, tables=tables)

        monkeypatch.setattr(learning, "maximize_dual", spy)
        path, _ = dual_learn(two_queue, states, 100.0)
        assert len(calls) == len(states) - 1
        for t, (dist, warm, offset) in enumerate(calls, start=1):
            assert np.array_equal(dist, np.bincount(states[:t], minlength=64) / t)
            assert np.array_equal(warm, path[t - 1])
            assert offset == t
        assert np.allclose(calls[2][0][:2], [2.0 / 3.0, 1.0 / 3.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_law_of_large_numbers(self, seed, two_queue):
        states = sample_states(two_queue, 100_000, seed)
        empirical = np.bincount(states, minlength=64) / 100_000
        assert np.abs(empirical - two_queue.probabilities).max() < 0.02


class TestDualLearn:
    def test_no_observations_keeps_beta(self, two_queue, monkeypatch):
        monkeypatch.setattr(learning, "maximize_dual", None)  # slot 0 makes no solve
        path, flagged = dual_learn(two_queue, np.array([7]), 100.0)
        assert np.array_equal(path, np.zeros((1, 2)))
        assert flagged == 0

    def test_single_state_matches_direct_solve(self):
        # dual min(gamma, 1 - gamma) at V=1: maximized at gamma = 1/2
        inst = single_state_instance([(0.0, [1.0], [0.0]), (1.0, [0.0], [1.0])])
        path, _ = dual_learn(inst, np.zeros(200, dtype=np.int64), 1.0)
        direct = maximize_dual(inst, [1.0], 1.0, DualSolverConfig(max_iterations=60000, window=60000))
        assert direct.gamma[0] == pytest.approx(0.5, abs=1e-3)
        assert path[-1, 0] == pytest.approx(0.5, abs=1e-3)

    def test_beta_stays_nonnegative(self, two_queue):
        path, _ = dual_learn(two_queue, sample_states(two_queue, 300, 3), 100.0)
        assert path.shape == (300, 2)
        assert (path >= 0).all()

    def test_path_is_causal(self, two_queue):
        # beta(t) uses states[:t] only: a prefix of the states gives a prefix of
        # the path, and another state from slot k on leaves beta(0..k) in place
        states = sample_states(two_queue, 400, 2)
        full, _ = dual_learn(two_queue, states, 100.0)
        for k in (1, 2, 37, 250, 399):
            prefix, _ = dual_learn(two_queue, states[:k], 100.0)
            assert np.array_equal(prefix, full[:k])
            changed = states.copy()
            changed[k:] = (states[k:] + 1) % 64
            assert np.array_equal(dual_learn(two_queue, changed, 100.0)[0][: k + 1], full[: k + 1])

    def test_beta_does_not_depend_on_backlog(self, two_queue):
        gamma_star = 100.0 * primal_oracle(two_queue, two_queue.probabilities).multiplier_v1

        def beta_trace(initial_backlog):
            cfg = SimConfig(horizon=600, seed=4, controller=ControllerConfig("OLAC", 100.0),
                            initial_backlog=initial_backlog)
            return run(two_queue, cfg, gamma_star)

        plain, seeded = beta_trace(None), beta_trace(np.array([80.0, 15.0]))
        assert not np.array_equal(plain.queue_trace, seeded.queue_trace)
        assert np.array_equal(plain.beta_trace, seeded.beta_trace)

    def test_two_queue_estimate_after_80_slots(self, two_queue):
        # learned multiplier is usually already a useful gamma* estimate at t=80
        pi = two_queue.probabilities
        gamma_star = 500.0 * primal_oracle(two_queue, pi).multiplier_v1
        close = 0
        seeds = range(10)
        for seed in seeds:
            states = sample_states(two_queue, 80, seed)
            empirical = np.bincount(states, minlength=64) / 80
            beta = 500.0 * primal_oracle(two_queue, empirical).multiplier_v1
            if np.linalg.norm(beta - gamma_star) < 0.33 * np.linalg.norm(gamma_star):
                close += 1
        assert close >= 6

    def test_empirical_maximizer_approaches_gamma_star(self, two_queue):
        # distance at t = 1e5 is smaller than at t = 1e3 for at least 9 of 10
        # seeds; the empirical optimum sits at a dual corner, so it typically
        # equals gamma* exactly well before t = 1e3, and exact convergence
        # (distance at float noise) counts as a win rather than a coin flip.
        pi = two_queue.probabilities
        v = 100.0
        gamma_star = v * primal_oracle(two_queue, pi).multiplier_v1
        exact = 1e-9 * np.linalg.norm(gamma_star)
        wins = 0
        for seed in range(10):
            states = sample_states(two_queue, 100_000, seed)
            dists = {}
            for t in (1_000, 100_000):
                counts = np.bincount(states[:t], minlength=64)
                est = counts / t
                beta = v * primal_oracle(two_queue, est).multiplier_v1
                res = maximize_dual(
                    two_queue, est, v,
                    DualSolverConfig(max_iterations=300, window=50, warm_start=beta),
                )
                dists[t] = np.linalg.norm(res.gamma - gamma_star)
            if dists[100_000] < dists[1_000] or dists[100_000] <= exact:
                wins += 1
        assert wins >= 9
