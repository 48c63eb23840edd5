import gc
import hashlib
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import olacsim.dual
import olacsim.learning
from olacsim.controllers import ControllerConfig
from olacsim.dual import (
    BASIS_CACHE,
    _CountLP,
    class_lp,
    compute_analysis,
    dual_value,
    max_slack,
    maximize_dual,
    primal_oracle,
)
from olacsim.learning import dual_learn
from olacsim.model import NetworkInstance, build_two_queue_example
from olacsim.sim import SimConfig, run, sample_states

from conftest import dense_path, make_instance, single_state_instance, state_index


def box(instance, V):
    """The multiplier bound xi = V * f_max / eta_0, with eta_0 from ``max_slack``."""
    return V * instance.f_max / max_slack(instance, instance.probabilities)


def count_lp(instance, V):
    """The policy LP in counts on the full tables, boxed at xi: (columns, costs).

    min sum V f y + xi sum s  s.t.  sum_x y_ix = n_i,  sum (mu - A) y + s - u = 0.
    """
    M, r = instance.M, instance.r
    cols = [(i, k) for i in range(M) for k in range(instance.action_counts[i])]
    n = len(cols)
    a = np.zeros((M + r, n + 2 * r))
    c = np.zeros(n + 2 * r)
    for col, (i, k) in enumerate(cols):
        a[i, col] = 1.0
        a[M:, col] = -instance.drift[i, k]
        c[col] = V * instance.costs[i, k]
    a[M:, n : n + r] = np.eye(r)
    a[M:, n + r :] = -np.eye(r)
    c[n : n + r] = box(instance, V)
    return a, c


def assert_lp_optimal(instance, weights, V, beta):
    """beta attains the boxed LP optimum on the state weights (counts or a
    distribution; solved by scipy's HiGHS) to 1e-9 relative, and equals the
    maximizer wherever the LP's optimal dual face is a single beta."""
    M, r = instance.M, instance.r
    scale = box(instance, V)
    a, c = count_lp(instance, V)
    weights = np.asarray(weights, dtype=float)
    res = linprog(c, A_eq=a, b_eq=np.concatenate([weights, np.zeros(r)]), bounds=(0, None), method="highs")
    assert res.status == 0
    assert (beta >= 0).all() and (beta <= scale * (1 + 1e-12)).all()
    total = weights.sum()
    assert total * dual_value(instance, weights / total, beta, V) == pytest.approx(res.fun, rel=1e-9, abs=1e-9)
    # the optimal dual face: (lambda, beta) with a^T (lambda, beta) <= c and
    # weights . lambda >= optimum; beta_j's extent over it, per queue
    a_ub = np.vstack([a.T, np.concatenate([-weights, np.zeros(r)])])
    b_ub = np.concatenate([c, [-res.fun + 1e-9 * max(1.0, abs(res.fun))]])
    unique = 0
    for j in range(r):
        obj = np.zeros(M + r)
        obj[M + j] = 1.0
        lo = linprog(obj, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        hi = linprog(-obj, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        assert lo.status == 0 and hi.status == 0
        if -hi.fun - lo.fun <= 1e-6 * max(1.0, scale):
            assert beta[j] == pytest.approx(res.eqlin.marginals[M + j], rel=0, abs=1e-9 * max(1.0, scale))
            unique += 1
    return unique


def assert_path_is_lp_optimal(instance, states, V, path, slots):
    """At every slot, beta(t) is LP-optimal (``assert_lp_optimal``) on the counts of states[:t]."""
    for t in slots:
        assert_lp_optimal(instance, np.bincount(states[:t], minlength=instance.M), V, path[t])


class TestEmpiricalDistribution:
    def test_observe_counts(self, two_queue):
        # slot t maximizes the dual on the counts of states[:t]: beta(0) = 0, and
        # each later slot's beta is optimal for its own prefix
        states = np.array([0, 0, 1, 1, 5])
        path, _ = dense_path(two_queue, states, 100.0)
        assert np.array_equal(path[0], np.zeros(2))
        assert_path_is_lp_optimal(two_queue, states, 100.0, path, range(1, 5))

    @pytest.mark.parametrize("seed", range(3))
    def test_law_of_large_numbers(self, seed, two_queue):
        states = sample_states(two_queue, 100_000, seed)
        empirical = np.bincount(states, minlength=64) / 100_000
        assert np.abs(empirical - two_queue.probabilities).max() < 0.02


GRID = st.integers(0, 12).map(lambda n: n / 4)


@st.composite
def slack_instances(draw):
    """Small instances with ragged action lists, ties, unfolded states and slack.

    Every state gets a last action serving 3.25 per queue, above any arrival
    (at most 3), so eta_0 > 0. A state with action-dependent arrivals is a
    class of its own and keeps its arrivals in its drift.
    """
    r = draw(st.integers(1, 4))  # r = 3 and 4 too: the LP engine is not two-queue code
    vec = st.lists(GRID, min_size=r, max_size=r).map(tuple)
    m = draw(st.integers(1, 4))
    states = []
    for _ in range(m):
        acts = draw(st.lists(st.tuples(GRID, vec), min_size=1, max_size=4))
        if draw(st.booleans()):
            arrivals = [draw(vec) for _ in acts] + [(0.0,) * r]
        else:
            arrivals = [draw(vec)] * (len(acts) + 1)
        acts.append((3.0, (3.25,) * r))
        states.append([(cost, arr, srv) for (cost, srv), arr in zip(acts, arrivals)])
    probs = np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), dtype=float)
    return make_instance(r, (probs / probs.sum()).tolist(), states)


class TestDualLearn:
    def test_no_observations_keeps_beta(self, two_queue):
        path, flagged = dense_path(two_queue, np.array([7]), 100.0)
        assert np.array_equal(path, np.zeros((1, 2)))
        assert flagged == 0

    def test_single_state_matches_direct_solve(self):
        # dual min(gamma, 1 - gamma) at V=1: maximized at gamma = 1/2
        inst = single_state_instance([(0.0, [1.0], [0.0]), (1.0, [0.0], [1.0])])
        path, _ = dense_path(inst, np.zeros(200, dtype=np.int64), 1.0)
        direct = maximize_dual(inst, [1.0], 1.0)
        assert direct.gamma[0] == pytest.approx(0.5, abs=1e-3)
        assert path[-1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_highs_on_two_queue(self, two_queue):
        states = sample_states(two_queue, 300, 0)
        path, _ = dense_path(two_queue, states, 100.0)
        assert_path_is_lp_optimal(two_queue, states, 100.0, path, range(1, 300))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_highs_on_random_instances(self, data):
        instance = data.draw(slack_instances())
        states = np.array(data.draw(st.lists(st.integers(0, instance.M - 1), min_size=2, max_size=25)))
        V = data.draw(st.sampled_from([1.0, 7.5, 100.0]))
        path, _ = dense_path(instance, states, V)
        assert_path_is_lp_optimal(instance, states, V, path, range(1, len(states)))

    def test_box_binds_and_is_counted(self, two_queue):
        # both queues receive 2 packets on channels that cannot serve: without
        # the box the empirical dual is unbounded, so beta = xi in both queues
        blocked = state_index(1, 1, 0, 0)
        states = np.concatenate([np.full(6, blocked), sample_states(two_queue, 400, 1)])
        path, flagged = dense_path(two_queue, states, 100.0)
        xi = box(two_queue, 100.0)
        assert np.allclose(path[1:7], xi, rtol=1e-12, atol=0.0)
        at_box = np.isclose(path, xi, rtol=1e-12, atol=0.0).any(axis=1)
        assert flagged == at_box.sum() >= 6

    @pytest.mark.parametrize("V", [20.0, 37.5, 1600.0])
    def test_box_is_the_oracles_xi(self, two_queue_unbalanced, V):
        # the learner and the oracle solve one slack LP: the same eta_0 and the
        # same box, bit for bit (at V = 37.5, V * f_max / eta_0 rounds otherwise
        # than V * (f_max / eta_0), the learner's order)
        instance = two_queue_unbalanced
        ana = compute_analysis(instance, V)
        assert ana.eta_0 == _CountLP(instance).eta_0 == max_slack(instance, instance.probabilities)
        blocked = state_index(1, 1, 0, 0)
        path, _ = dense_path(instance, np.full(4, blocked), V)
        assert (path[1:] == ana.xi).all()

    def test_degenerate_instance_is_deterministic(self):
        # arrivals 1 on every action; serving costs 1: the dual min(1, beta) is flat
        # on [1, xi], so the maximizer is not unique and the tie rule picks it
        inst = make_instance(1, [0.5, 0.5], [
            [(1.0, [1.0], [1.0]), (0.0, [1.0], [0.0]), (1.0, [1.0], [1.0])],
            [(1.0, [1.0], [1.0]), (0.0, [1.0], [0.0]), (2.0, [1.0], [2.0])],
        ])
        states = sample_states(inst, 500, 3)
        first, flagged_first = dense_path(inst, states, 10.0)
        second, flagged_second = dense_path(inst, states, 10.0)
        assert np.array_equal(first, second)
        assert flagged_first == flagged_second
        assert_path_is_lp_optimal(inst, states, 10.0, first, range(1, 500, 37))

    def test_instance_without_slack_rejected(self):
        # arrivals equal the best service: eta_0 = 0, so there is no box
        inst = single_state_instance([(0.0, [1.0], [0.0]), (1.0, [1.0], [1.0])])
        cfg = SimConfig(horizon=10, seed=0, controller=ControllerConfig("OLAC", 10.0))
        with pytest.raises(ValueError, match="eta_0 = 0"):
            run(inst, cfg, np.zeros(1))
        bp = SimConfig(horizon=10, seed=0, controller=ControllerConfig("Backpressure", 10.0))
        assert run(inst, bp, np.zeros(1)).avg_cost >= 0

    def test_beta_stays_nonnegative(self, two_queue):
        path, _ = dense_path(two_queue, sample_states(two_queue, 300, 3), 100.0)
        assert path.shape == (300, 2)
        assert (path >= 0).all()

    def test_path_is_causal(self, two_queue):
        # beta(t) uses states[:t] only: a prefix of the states gives a prefix of
        # the path, and another state from slot k on leaves beta(0..k) in place
        states = sample_states(two_queue, 400, 2)
        full, _ = dense_path(two_queue, states, 100.0)
        for k in (1, 2, 37, 250, 399):
            prefix, _ = dense_path(two_queue, states[:k], 100.0)
            assert np.array_equal(prefix, full[:k])
            changed = states.copy()
            changed[k:] = (states[k:] + 1) % 64
            assert np.array_equal(dense_path(two_queue, changed, 100.0)[0][: k + 1], full[: k + 1])

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
                res = maximize_dual(two_queue, counts / t, v)
                dists[t] = np.linalg.norm(res.gamma - gamma_star)
            if dists[100_000] < dists[1_000] or dists[100_000] <= exact:
                wins += 1
        assert wins >= 9


class TestMaximizeDualAgainstHighs:
    """``maximize_dual`` is the boxed LP's optimum, as OLAC2 learns it at T_l."""

    @pytest.mark.parametrize("V", [100.0, 500.0])
    def test_two_queue_at_learn_slot(self, two_queue, V):
        t_l = ControllerConfig("OLAC2", V).learn_slot()
        unique = 0
        for seed in range(20):
            dist = np.bincount(sample_states(two_queue, t_l, seed), minlength=two_queue.M) / t_l
            res = maximize_dual(two_queue, dist, V)
            unique += assert_lp_optimal(two_queue, dist, V, res.gamma)
            assert res.at_box == bool(np.isclose(res.gamma, box(two_queue, V), rtol=1e-12, atol=0.0).any())
        assert unique > 0

    def test_box_binds(self, two_queue):
        # both queues receive 2 packets on channels that cannot serve: the dual is
        # unbounded, so gamma sits on the oracle's box xi in both queues
        dist = np.bincount([state_index(1, 1, 0, 0)], minlength=two_queue.M).astype(float)
        res = maximize_dual(two_queue, dist, 100.0)
        assert res.at_box
        assert (res.gamma == compute_analysis(two_queue, 100.0).xi).all()
        assert_lp_optimal(two_queue, dist, 100.0, res.gamma)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_instances(self, data):
        instance = data.draw(slack_instances())
        weights = data.draw(st.lists(st.integers(0, 4), min_size=instance.M, max_size=instance.M).filter(any))
        dist = np.array(weights, dtype=float) / sum(weights)
        V = data.draw(st.sampled_from([1.0, 7.5, 100.0]))
        res = maximize_dual(instance, dist, V)
        assert_lp_optimal(instance, dist, V, res.gamma)


class TestRecordedOutputs:
    """The learners' outputs, bit for bit, on both shipped channels.

    Recorded with numpy 2.4 on x86-64 (see ``tests/test_golden.py`` on the
    BLAS kernel these digits depend on). A change to the learner's kernel that
    claims byte-identical results keeps every value below; the smoke scenario
    only covers 500 uniform-channel slots at V = 50.
    """

    # (channel fixture, seed): (SHA-256 of the 2000-slot V = 1 path's bytes, flagged slots)
    PATHS = {
        ("two_queue", 0): ("849f0382015a0ee8c26860aad3fab0e5e94f6b04e404e9e92b26ba13fa0b0c5b", 6),
        ("two_queue", 1): ("ed0a7407aa8c8eac20d99c7c5519fe4b8ba43ea2d55e1e86a5bc75bc701d7387", 0),
        ("two_queue_unbalanced", 0): ("eddf0f710a9c7f34eed2ba9347adbd23bf33f7045667d15831ce18db10b14bad", 1),
        ("two_queue_unbalanced", 1): ("197a21c7df794aa144d78ca30c974606436b18ad44f53fed91afcb923d13d584", 0),
    }
    # the same at 5000 slots, perfbench delay_table's horizon: about 2.5 times the pivots
    PATHS_5000 = {
        ("two_queue", 0): ("227facbe6b771d59fa512ae487fd700bff9b55f5477434bc1030eeecd2ba3840", 6),
        ("two_queue", 1): ("f557c677007104304ef07d2503550fd5e472b5a4aeae3677f8b5e5087d8f0ae3", 0),
        ("two_queue_unbalanced", 0): ("4d97bb3e54292a0561a3014bc06533a27fe7ed7d745911cdddcfa884e867f971", 1),
        ("two_queue_unbalanced", 1): ("e9e539e4d4a536baf34cf04cca2713c21b634b8a3d6d0ed1359eff9363dd8d44", 0),
    }
    # the two 2000-slot paths above whose box binds (flagged > 0) depend on eta_0 through
    # xi = f_max / eta_0. Handed the eta_0 that a dense tableau simplex once
    # solved the slack LP to, one ulp from the dual simplex's, the learner gives
    # the paths recorded then, bit for bit: it did not move when the slack LP's
    # engine did.
    # (channel fixture, seed): (eta_0, SHA-256 of the path's bytes, flagged slots)
    PATHS_AT_ETA_0 = {
        ("two_queue", 0): (0.5272984402699591, "d6bfb68d3d296ed7ea0805c5e04ab4f9c783ef361274cdec06396a8b2c717200", 6),
        ("two_queue_unbalanced", 0): (
            0.5314167409966799, "4f750ed7ac123142785e4e8b07721463582af2398ee512cc100986e90223a33e", 1
        ),
    }
    # (channel fixture, V, seed): (gamma at T_l, dual simplex pivots)
    GAMMAS = {
        ("two_queue", 20.0, 0): ([16.370350019059373, 62.19883922863268], 48),
        ("two_queue", 20.0, 1): ([8.798953973489537, 10.820212806667225], 7),
        ("two_queue", 200.0, 0): ([163.70350019059373, 304.56843001332004], 24),
        ("two_queue", 200.0, 1): ([108.20212806667226, 108.20212806667224], 10),
        ("two_queue_unbalanced", 20.0, 0): ([31.914647178516656, 31.91464717851666], 31),
        ("two_queue_unbalanced", 20.0, 1): ([10.820212806667227, 10.820212806667225], 12),
        ("two_queue_unbalanced", 200.0, 0): ([268.0410439337165, 268.0410439337165], 27),
        ("two_queue_unbalanced", 200.0, 1): ([108.20212806667226, 108.20212806667226], 13),
    }

    @pytest.mark.parametrize("channel, seed", sorted(PATHS))
    def test_dual_learn_path(self, request, channel, seed):
        instance = request.getfixturevalue(channel)
        path, flagged = dense_path(instance, sample_states(instance, 2000, seed), 1.0)
        assert (hashlib.sha256(path.tobytes()).hexdigest(), flagged) == self.PATHS[channel, seed]

    @pytest.mark.parametrize("channel, seed", sorted(PATHS_5000))
    def test_dual_learn_path_at_delay_table_length(self, request, channel, seed):
        instance = request.getfixturevalue(channel)
        path, flagged = dense_path(instance, sample_states(instance, 5000, seed), 1.0)
        assert (hashlib.sha256(path.tobytes()).hexdigest(), flagged) == self.PATHS_5000[channel, seed]

    @pytest.mark.parametrize("channel, seed", sorted(PATHS_AT_ETA_0))
    def test_dual_learn_path_at_given_eta_0(self, request, monkeypatch, channel, seed):
        instance = request.getfixturevalue(channel)
        eta_0, digest, flagged = self.PATHS_AT_ETA_0[channel, seed]
        assert eta_0 != max_slack(instance, instance.probabilities)  # one ulp apart
        # an equal instance that has not solved its slack LP yet, whose slack LP gives the recorded eta_0
        instance = NetworkInstance(instance.r, instance.states)
        monkeypatch.setattr(olacsim.dual, "max_slack", lambda inst, dist: eta_0)
        path, count = dense_path(instance, sample_states(instance, 2000, seed), 1.0)
        assert (hashlib.sha256(path.tobytes()).hexdigest(), count) == (digest, flagged)

    @pytest.mark.parametrize("channel, V, seed", sorted(GAMMAS))
    def test_maximize_dual_at_learn_slot(self, request, channel, V, seed):
        instance = request.getfixturevalue(channel)
        t_l = ControllerConfig("OLAC2", V).learn_slot()
        res = maximize_dual(instance, np.bincount(sample_states(instance, t_l, seed), minlength=instance.M) / t_l, V)
        assert (res.gamma.tolist(), res.iterations) == self.GAMMAS[channel, V, seed]


def fresh_entering(lp, basis, row):
    """The entering column of a pivot on ``row`` from ``basis``, priced from a fresh inversion."""
    binv = np.linalg.inv(lp.a[:, basis])
    d = lp.c - (lp.c[basis] @ binv) @ lp.a
    d[basis] = 0.0
    alpha = binv[row] @ lp.a
    enter = (alpha < -olacsim.dual.PIVOT_TOL).nonzero()[0]
    ratio = np.maximum(d[enter], 0.0) / -alpha[enter]
    best = ratio.min()
    return enter[(ratio <= best + olacsim.dual.TIE_TOL * max(1.0, best)).argmax()]


def recorded_learns(monkeypatch):
    """Patch ``learning._CountLP`` so that each count LP it builds is appended to the returned list."""
    lps = []

    class Recorded(_CountLP):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            lps.append(self)

    monkeypatch.setattr(olacsim.learning, "_CountLP", Recorded)
    return lps


class TestKeptFactorisations:
    """The count LP's kept bases and the class LP memo, read back after real runs."""

    @pytest.mark.parametrize("channel, horizon", [("two_queue", 5000), ("two_queue_unbalanced", 2500)])
    def test_kept_factorisations_are_fresh_ones(self, request, monkeypatch, channel, horizon):
        instance = request.getfixturevalue(channel)
        lps = recorded_learns(monkeypatch)
        dual_learn(instance, sample_states(instance, horizon, 0))
        (lp,) = lps
        assert lp.pivots > BASIS_CACHE  # the run left more bases than are kept
        assert 0 < len(lp.factors) <= BASIS_CACHE
        assert lp.basis.tobytes() == list(lp.factors)[-1]  # the current basis is the most recent
        memos = 0
        for key, (binv, y, clamp, memo, step, beta) in lp.factors.items():
            basis = np.frombuffer(key, dtype=lp.basis.dtype)
            fresh = np.linalg.inv(lp.a[:, basis])
            assert binv.tobytes() == fresh.tobytes()
            assert y.tobytes() == (lp.c[basis] @ fresh).tobytes()
            fresh_d = lp.c - y @ lp.a
            fresh_d[basis] = 0.0
            assert clamp.tobytes() == np.maximum(fresh_d, 0.0).tobytes()
            for row, col in memo.items():
                assert col == fresh_entering(lp, basis, row)
            memos += len(memo)
            if step is not None:
                assert step.tobytes() == (fresh @ lp.rhs).T.tobytes()
                basic = np.isin(np.arange(lp.c.size), basis)
                fresh_beta = np.clip(y[lp.n_class :], 0.0, lp.xi)
                r = fresh_beta.size  # s_j is column n_y + j, u_j column n_y + r + j
                fresh_beta[basic[lp.n_y : lp.n_y + r]] = lp.xi
                fresh_beta[basic[lp.n_y + r :]] = 0.0
                assert beta.tobytes() == fresh_beta.tobytes()
            for array in (binv, y, clamp, step, beta):
                assert array is None or not array.flags.writeable
        assert memos > 0

    # (channel fixture, horizon): (fresh inversions, pivots, memo hits) of the 10 learns on seeds 0-9
    WORK = {("two_queue", 5000): (2142, 3545, 1097), ("two_queue_unbalanced", 2500): (2285, 4253, 1653)}

    @pytest.mark.parametrize("channel, horizon", sorted(WORK))
    def test_each_distinct_basis_is_inverted_once(self, request, monkeypatch, channel, horizon):
        # BASIS_CACHE kept bases are as many as a run needs: a learn inverts
        # each basis it visits once, as an unbounded cache would
        instance = request.getfixturevalue(channel)
        # the instance's slack LP is solved on its first learn and kept; solve it outside the count
        dual_learn(instance, sample_states(instance, 2, 0))
        inversions = []
        inverse = olacsim.dual._inverse

        def counted_inverse(matrix):
            inversions.append(matrix)
            return inverse(matrix)

        # the engine's one inversion point
        monkeypatch.setattr(olacsim.dual, "_inverse", counted_inverse)
        lps = recorded_learns(monkeypatch)
        visited = []
        memos = {}  # id -> memo of every factorisation made, held so that no id is reused
        refactor = _CountLP._refactor

        def recorded_refactor(lp):
            visited[-1].add(lp.basis.tobytes())
            refactor(lp)
            memos[id(lp.memo)] = lp.memo

        monkeypatch.setattr(_CountLP, "_refactor", recorded_refactor)
        total = 0
        for seed in range(10):
            states = sample_states(instance, horizon, seed)
            visited.append(set())
            inversions.clear()
            dual_learn(instance, states)
            assert len(inversions) == len(visited[-1])
            total += len(inversions)
        assert len(lps) == 10 and len(memos) == total
        pivots = sum(lp.pivots for lp in lps)
        # each ratio test fills one memo entry; every other pivot is a memo hit
        ratio_tests = sum(len(memo) for memo in memos.values())
        assert (total, pivots, pivots - ratio_tests) == self.WORK[channel, horizon]

    def test_class_lp_is_built_once(self, two_queue_unbalanced):
        first, second = class_lp(two_queue_unbalanced), class_lp(two_queue_unbalanced)
        assert first is second
        arrays = [v for v in vars(first).values() if isinstance(v, np.ndarray)]
        assert {"a", "cost", "rhs", "cheapest_cols", "min_drift_cols"} <= set(vars(first))
        for array in arrays:
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.a[0, 0] = 1.0

    def test_derived_results_go_with_their_instance(self):
        instance = build_two_queue_example([0.25, 0.25, 0.25, 0.25])
        cfg = SimConfig(horizon=50, seed=0, controller=ControllerConfig("OLAC", 10.0))
        run(instance, cfg, compute_analysis(instance, 10.0).gamma_star)
        assert set(instance.derived) == {"class_lp", "eta_0", "slack_basis", "policy", "rho", "slot_rows", "olac_path"}
        # a pickled copy, as a pool worker's task gets it, starts without them
        copy = pickle.loads(pickle.dumps(instance))
        assert copy == instance and copy.derived == {}
        for array in vars(class_lp(instance)).values():
            assert not isinstance(array, np.ndarray) or not array.flags.writeable
        alive = weakref.ref(instance)
        del instance
        gc.collect()
        assert alive() is None
