import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from olacsim.dual import (
    InfeasibleInstanceError,
    NoSlackError,
    compute_analysis,
    dual_value,
    estimate_polyhedral_rho,
    max_slack,
    maximize_dual,
    primal_oracle,
    supergradient,
)

from conftest import make_instance, per_state_dual, random_slack_instances, single_state_instance, state_index


def one_d_crossing():
    # pieces gamma and 10 - gamma: maximum 5 at gamma* = 5, decay slope 1
    return single_state_instance([(0.0, [1.0], [0.0]), (10.0, [0.0], [1.0])])


class TestPerStateDual:
    """The reference per-state minimum (conftest) that the rule and the reduced tables are checked against."""

    def test_single_affine_piece(self):
        inst = single_state_instance([(0.0, [0.0], [1.0])])  # A - mu = -1
        value, action = per_state_dual(inst, 0, np.array([5.0]), 1.0)
        assert value == pytest.approx(-5.0, abs=1e-12)
        assert action == 0

    def test_two_pieces_min(self):
        inst = single_state_instance([(1.0, [0.0], [0.0]), (0.0, [1.0], [0.0])])
        value, action = per_state_dual(inst, 0, np.array([2.0]), 1.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert action == 0

    def test_two_queue_idle_state(self, two_queue):
        sid = state_index(0, 0, 3, 3)  # a=(0,0), C=(6,6)
        value, action = per_state_dual(two_queue, sid, np.zeros(2), 100.0)
        assert value == 0.0
        assert action == 0  # serve queue 1 at P=0: lowest id among zero-cost actions


class TestDualValue:
    def test_single_state_equals_per_state(self):
        inst = single_state_instance([(0.5, [1.0], [0.3])])
        g = dual_value(inst, np.array([1.0]), np.array([2.0]), 3.0)
        v, _ = per_state_dual(inst, 0, np.array([2.0]), 3.0)
        assert g == pytest.approx(v, abs=1e-15)

    def test_concentrated_distribution(self, two_queue):
        dist = np.zeros(64)
        dist[17] = 1.0
        gamma = np.array([3.0, 4.0])
        g = dual_value(two_queue, dist, gamma, 10.0)
        v, _ = per_state_dual(two_queue, 17, gamma, 10.0)
        assert g == pytest.approx(v, abs=1e-12)

    def test_two_queue_zero_multiplier(self, two_queue):
        assert dual_value(two_queue, two_queue.probabilities, np.zeros(2), 100.0) == 0.0

    def test_dimension_mismatch(self, two_queue):
        with pytest.raises(ValueError):
            dual_value(two_queue, np.ones(3) / 3, np.zeros(2), 1.0)


class TestSupergradient:
    def test_single_action(self):
        inst = single_state_instance([(0.0, [0.0, 2.0], [1.0, 0.0])], r=2)
        s = supergradient(inst, np.array([1.0]), np.zeros(2), 1.0)
        assert np.allclose(s, [-1.0, 2.0])

    def test_two_queue_at_zero_gives_arrival_rates(self, two_queue):
        s = supergradient(two_queue, two_queue.probabilities, np.zeros(2), 100.0)
        assert np.allclose(s, [0.6, 0.8], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_supergradient_inequality(self, seed, two_queue):
        rng = np.random.default_rng(seed)
        pi = two_queue.probabilities
        for _ in range(100):
            g1 = rng.uniform(0, 300, size=2)
            g2 = rng.uniform(0, 300, size=2)
            v1 = dual_value(two_queue, pi, g1, 50.0)
            v2 = dual_value(two_queue, pi, g2, 50.0)
            s = supergradient(two_queue, pi, g1, 50.0)
            assert v2 <= v1 + s @ (g2 - g1) + 1e-9 * max(1.0, abs(v1))

    def test_concavity_along_segments(self, two_queue):
        rng = np.random.default_rng(7)
        pi = two_queue.probabilities
        for _ in range(100):
            g1 = rng.uniform(0, 300, size=2)
            g2 = rng.uniform(0, 300, size=2)
            lam = rng.random()
            mid = lam * g1 + (1 - lam) * g2
            v_mid = dual_value(two_queue, pi, mid, 50.0)
            bound = lam * dual_value(two_queue, pi, g1, 50.0) + (1 - lam) * dual_value(two_queue, pi, g2, 50.0)
            assert v_mid >= bound - 1e-9 * max(1.0, abs(v_mid))


class TestMaximizeDual:
    def test_one_d_derived_optimum(self):
        # max over gamma >= 0 of min(gamma, 1 - gamma) = 0.5 at gamma = 0.5
        inst = single_state_instance([(0.0, [1.0], [0.0]), (1.0, [0.0], [1.0])])
        res = maximize_dual(inst, np.array([1.0]), 1.0)
        assert res.gamma[0] == pytest.approx(0.5, abs=1e-4)
        assert dual_value(inst, np.array([1.0]), res.gamma, 1.0) == pytest.approx(0.5, abs=1e-4)

    def test_free_action_pins_zero(self, two_queue):
        # some action has f=0 and A-mu <= 0 in every state... not true here, but the
        # all-idle action gives g(0) = 0 and g <= 0 is false; use a custom instance.
        inst = single_state_instance([(0.0, [0.0, 0.0], [0.5, 0.2]), (2.0, [1.0, 0.0], [0.0, 0.0])], r=2)
        res = maximize_dual(inst, np.array([1.0]), 3.0)
        assert np.allclose(res.gamma, 0.0, atol=1e-9)
        assert dual_value(inst, np.array([1.0]), res.gamma, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_queue_strong_duality_cold(self, two_queue):
        pi = two_queue.probabilities
        primal = primal_oracle(two_queue, pi)
        res = maximize_dual(two_queue, pi, 100.0)
        assert dual_value(two_queue, pi, res.gamma, 100.0) == pytest.approx(100.0 * primal.f_av_star, abs=1e-3)

    def test_two_queue_strong_duality_warm(self, two_queue):
        # the oracle's gamma* is V times the policy LP's prices (the point the
        # ascent was once warm-started at); the dual there is V * f_av_star
        pi = two_queue.probabilities
        primal = primal_oracle(two_queue, pi)
        ana = compute_analysis(two_queue, 100.0)
        assert np.array_equal(ana.gamma_star, 100.0 * primal.multiplier_v1)
        assert abs(ana.g_star / 100.0 - primal.f_av_star) <= 1e-6 * max(1.0, primal.f_av_star)

    def test_unbounded_dual_flagged(self):
        # every action strictly increases the queue: the dual is unbounded, the
        # instance has no service slack and so no box, and it is rejected
        inst = single_state_instance([(0.0, [1.0], [0.0])])
        with pytest.raises(NoSlackError, match="eta_0 = -1 <= 0"):
            maximize_dual(inst, np.array([1.0]), 1.0)

    def test_v_scaling_identity(self, two_queue):
        rng = np.random.default_rng(3)
        pi = two_queue.probabilities
        for _ in range(50):
            gamma = rng.uniform(0, 400, size=2)
            v = float(rng.uniform(1, 500))
            lhs = dual_value(two_queue, pi, gamma, v)
            rhs = v * dual_value(two_queue, pi, gamma / v, 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))

    def test_argmax_scaling(self):
        inst = one_d_crossing()
        dist = np.array([1.0])
        res1 = maximize_dual(inst, dist, 1.0)
        res8 = maximize_dual(inst, dist, 8.0)
        assert res8.gamma[0] / 8.0 == pytest.approx(res1.gamma[0], abs=1e-3)


class TestPrimalOracle:
    def test_single_action_feasible(self):
        inst = single_state_instance([(0.7, [0.5], [1.0])])
        sol = primal_oracle(inst, np.array([1.0]))
        assert sol.f_av_star == pytest.approx(0.7, abs=1e-12)
        assert sol.multiplier_v1.tolist() == [0.0]

    def test_equal_mixing(self):
        # constraint theta_0 - theta_1 <= 0 and objective theta_1: optimum mixes equally, and
        # the multiplier is the maximizer 0.5 of the dual min(gamma, 1 - gamma)
        inst = single_state_instance([(0.0, [1.0], [0.0]), (1.0, [0.0], [1.0])])
        sol = primal_oracle(inst, np.array([1.0]))
        assert sol.f_av_star == pytest.approx(0.5, abs=1e-9)
        assert sol.multiplier_v1 == pytest.approx([0.5], abs=1e-9)

    def test_infeasible_instance(self):
        inst = single_state_instance([(0.0, [1.0], [0.0]), (1.0, [2.0], [0.5])])
        with pytest.raises(InfeasibleInstanceError):
            primal_oracle(inst, np.array([1.0]))

    def test_two_queue_policy_valid(self, two_queue):
        # the policy LP's optimum lies strictly inside the cost range, and its
        # multiplier is non-negative and inside the box V * f_max / eta_0 at V = 1
        sol = primal_oracle(two_queue, two_queue.probabilities)
        assert 0 < sol.f_av_star < two_queue.f_max
        assert (sol.multiplier_v1 > 0).all()
        assert sol.multiplier_v1.sum() <= two_queue.f_max / max_slack(two_queue, two_queue.probabilities)


def full_policy_lp(instance, dist):
    """The policy LP on the full tables, one column per (state, action): (c, a_ub, a_eq).

    min sum_ix dist_i f_ix p_ix  s.t.  sum_ix dist_i drift_ix p_ix <= 0,  sum_x p_ix = 1.
    """
    cols = [(i, k) for i in range(instance.M) for k in range(instance.action_counts[i])]
    c = np.array([dist[i] * instance.costs[i, k] for i, k in cols])
    a_ub = np.array([dist[i] * instance.drift[i, k] for i, k in cols]).T
    a_eq = np.array([[float(i == s) for s, _ in cols] for i in range(instance.M)])
    return c, a_ub, a_eq


def check_against_highs(instance, dist):
    """The class-table oracles against scipy's HiGHS on the full tables.

    max_slack and f_av_star match to 1e-9 relative; multiplier_v1 matches
    HiGHS's prices in every queue where the optimal dual face is a single
    point. An infeasible LP raises. Returns the number of queues whose
    multiplier was compared (None when infeasible).
    """
    M, r = instance.M, instance.r
    c, a_ub, a_eq = full_policy_lp(instance, dist)
    n = c.size
    slack = linprog(np.append(np.zeros(n), -1.0), A_ub=np.hstack([a_ub, np.ones((r, 1))]), b_ub=np.zeros(r),
                    A_eq=np.hstack([a_eq, np.zeros((M, 1))]), b_eq=np.ones(M),
                    bounds=[(0, None)] * n + [(None, None)], method="highs")
    assert slack.status == 0
    assert max_slack(instance, dist) == pytest.approx(-slack.fun, rel=1e-9, abs=1e-12)

    ref = linprog(c, A_ub=a_ub, b_ub=np.zeros(r), A_eq=a_eq, b_eq=np.ones(M), bounds=(0, None), method="highs")
    if ref.status == 2:
        with pytest.raises(InfeasibleInstanceError):
            primal_oracle(instance, dist)
        return None
    assert ref.status == 0
    sol = primal_oracle(instance, dist)
    assert sol.f_av_star == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)

    # the optimal dual face: lambda >= 0 and nu with nu_i - lambda . (dist_i drift_ix)
    # <= dist_i f_ix and sum nu >= optimum; lambda_j's extent over it, per queue
    face_a = np.vstack([np.hstack([-a_ub.T, a_eq.T]), np.append(np.zeros(r), -np.ones(M))])
    face_b = np.append(c, -ref.fun + 1e-9 * max(1.0, abs(ref.fun)))
    bounds = [(0, None)] * r + [(None, None)] * M
    compared = 0
    for j in range(r):
        obj = np.zeros(r + M)
        obj[j] = 1.0
        lo = linprog(obj, A_ub=face_a, b_ub=face_b, bounds=bounds, method="highs")
        hi = linprog(-obj, A_ub=face_a, b_ub=face_b, bounds=bounds, method="highs")
        if lo.status == 0 and hi.status == 0 and -hi.fun - lo.fun <= 1e-6 * max(1.0, -hi.fun):
            price = -ref.ineqlin.marginals[j]
            assert sol.multiplier_v1[j] == pytest.approx(price, rel=0, abs=1e-9 * max(1.0, abs(price)))
            compared += 1
    return compared


GRID = st.integers(0, 12).map(lambda n: n / 4)


@st.composite
def oracle_instances(draw):
    """Small instances whose class tables differ from the full ones.

    Ragged action lists with cost ties, dominated copies of actions, states
    with action-dependent arrivals (unfolded), copies of a state with other
    constant arrivals (folded into one class) and zero-probability states.
    Arrivals may exceed every service, so some instances have no slack and
    some are infeasible.
    """
    r = draw(st.integers(1, 4))  # r = 3 and 4 too: the LP engine is not two-queue code
    vec = st.lists(GRID, min_size=r, max_size=r).map(tuple)
    states = []
    for _ in range(draw(st.integers(1, 4))):
        acts = draw(st.lists(st.tuples(GRID, vec), min_size=1, max_size=4))
        if draw(st.booleans()):
            cost, srv = draw(st.sampled_from(acts))
            acts.append((cost + 0.5, srv))  # dominated by the copied action
        if draw(st.booleans()):
            arrivals = [draw(vec) for _ in acts]
        else:
            arrivals = [draw(vec)] * len(acts)
            if draw(st.booleans()):
                other = draw(vec)
                states.append([(cost, other, srv) for cost, srv in acts])
        states.append([(cost, arr, srv) for (cost, srv), arr in zip(acts, arrivals)])
    m = len(states)
    weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    probs = np.array(weights, dtype=float) / sum(weights)
    return make_instance(r, probs.tolist(), states)


class TestOraclesAgainstHighs:
    @pytest.mark.parametrize("name", ["two_queue", "two_queue_unbalanced"])
    def test_two_queue(self, name, request):
        instance = request.getfixturevalue(name)
        assert check_against_highs(instance, instance.probabilities) == 2

    def test_two_queue_empirical(self, two_queue):
        # an empirical distribution with zero-probability states
        dist = np.bincount([0, 5, 5, 17, 40, 63, 63, 63], minlength=64) / 8.0
        assert check_against_highs(two_queue, dist) is not None

    @settings(max_examples=80, deadline=None)
    @given(instance=oracle_instances())
    def test_random_instances(self, instance):
        check_against_highs(instance, instance.probabilities)

    def test_infeasible_instance_with_zero_probability_state(self):
        # the second state could serve, but it never occurs
        inst = make_instance(1, [1.0, 0.0], [[(0.0, [1.0], [0.0]), (1.0, [2.0], [0.5])], [(0.0, [0.0], [3.0])]])
        assert check_against_highs(inst, inst.probabilities) is None


class TestMaxSlack:
    def test_single_action(self):
        inst = single_state_instance([(0.0, [0.0, 0.0], [2.0, 3.0])], r=2)
        assert max_slack(inst, np.array([1.0])) == pytest.approx(2.0, abs=1e-9)

    def test_two_queue_positive(self, two_queue):
        assert max_slack(two_queue, two_queue.probabilities) > 0

    def test_overloaded_instance_nonpositive(self):
        inst = single_state_instance([(0.0, [1.0], [0.5]), (1.0, [2.0], [1.0])])
        assert max_slack(inst, np.array([1.0])) <= 0


class TestPolyhedralRho:
    def test_one_d_crossing_slope(self):
        inst = one_d_crossing()
        rho = estimate_polyhedral_rho(inst, np.array([1.0]), 1.0, np.array([5.0]))
        assert rho == pytest.approx(1.0, abs=1e-6)

    def test_flat_dual_flagged(self):
        inst = single_state_instance([(0.0, [0.0], [0.0])])
        rho = estimate_polyhedral_rho(inst, np.array([1.0]), 1.0, np.array([0.0]))
        assert rho <= 0.0

    def test_two_queue_positive(self, two_queue):
        pi = two_queue.probabilities
        primal = primal_oracle(two_queue, pi)
        rho = estimate_polyhedral_rho(two_queue, pi, 100.0, 100.0 * primal.multiplier_v1)
        assert rho > 0


class TestAnalysis:
    def test_weak_duality_and_constants(self, two_queue):
        ana = compute_analysis(two_queue, 100.0)
        assert ana.g_star <= 100.0 * ana.f_av_star + 1e-9
        assert ana.eta_0 > 0
        assert 0 < ana.eta < ana.rho_hat
        assert ana.D_p > 0
        assert math.isfinite(ana.xi)

    def test_multiplier_magnitude_bound(self):
        # sum gamma*_j <= V f_max / eta_0 on random instances with slack
        for inst in random_slack_instances(seed=11, count=8):
            pi = inst.probabilities
            eta_0 = max_slack(inst, pi)
            sol = primal_oracle(inst, pi)
            v = 37.0
            assert v * sol.multiplier_v1.sum() <= v * inst.f_max / eta_0 + 1e-6

    def test_gamma_scales_linearly_in_v(self, two_queue):
        a1 = compute_analysis(two_queue, 100.0)
        a2 = compute_analysis(two_queue, 400.0)
        assert np.allclose(a2.gamma_star / 400.0, a1.gamma_star / 100.0, atol=1e-9)
