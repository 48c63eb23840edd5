import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import olacsim.dual
from olacsim.dual import (
    InfeasibleInstanceError,
    NoSlackError,
    _CountLP,
    _normals,
    class_lp,
    compute_analysis,
    dual_value,
    estimate_polyhedral_rho,
    max_slack,
    maximize_dual,
    nominal_policy,
    nominal_slack,
    primal_oracle,
    solve_lp,
)
from olacsim.cli import _perturbed_distributions
from olacsim.model import NetworkInstance, StateSpec, build_two_queue_example, load_instance_file

import conftest
from conftest import (
    class_dual_values,
    flat_dual,
    make_instance,
    per_state_dual,
    random_multiplier_instances,
    single_state_instance,
    state_index,
    supergradient,
)


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


THREE_QUEUE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "instances", "three_queue.json")


def with_distribution(instance, dist):
    """``instance`` with ``dist`` as its true distribution: its slack LP at ``dist`` takes the cold start."""
    return NetworkInstance(instance.r, [StateSpec(float(p), s.actions) for p, s in zip(dist, instance.states)])


def perturbed(instance, seeds, count=5):
    """The assumption check's draws at epsilon_s = 0.05, ``count`` per seed."""
    return [p for seed in seeds for p in _perturbed_distributions(instance.probabilities, count, 0.05, seed)]


class TestWarmSlack:
    """Away from the true distribution the slack LP starts from the nominal LP's optimal basis."""

    @pytest.mark.parametrize("name", ["two_queue", "two_queue_unbalanced", "three_queue"])
    def test_shipped_instances_match_the_cold_start_bit_for_bit(self, name, request):
        instance = load_instance_file(THREE_QUEUE) if name == "three_queue" else request.getfixturevalue(name)
        for dist in perturbed(instance, range(20)):
            assert max_slack(instance, dist) == max_slack(with_distribution(instance, dist), dist)

    def test_random_instances_match_the_cold_start(self):
        # a degenerate optimum can end on another basis, whose sums round differently
        for instance in random_multiplier_instances(seed=5, count=12, max_r=4):
            for dist in perturbed(instance, range(2)):
                cold = max_slack(with_distribution(instance, dist), dist)
                assert max_slack(instance, dist) == pytest.approx(cold, rel=1e-12, abs=0)

    def test_order_of_calls_changes_no_bit(self):
        first = build_two_queue_example([0.1, 0.4, 0.4, 0.1])
        dists = perturbed(first, [4], count=3)
        # a perturbed distribution first solves the nominal LP on the way
        warm_first = [max_slack(first, dist) for dist in dists]
        assert set(first.derived) == {"class_lp", "eta_0", "slack_basis"}
        second = build_two_queue_example([0.1, 0.4, 0.4, 0.1])
        eta_0 = nominal_slack(second)
        assert nominal_slack(first).hex() == eta_0.hex()
        assert [max_slack(second, dist) for dist in dists] == warm_first
        assert first.derived["slack_basis"].tobytes() == second.derived["slack_basis"].tobytes()
        assert not first.derived["slack_basis"].flags.writeable

    def test_one_lp_a_call(self, monkeypatch):
        instance = build_two_queue_example([0.1, 0.4, 0.4, 0.1])
        dist = perturbed(instance, [0], count=1)[0]
        solves = []

        def counting(*args):
            solves.append(args[2].copy())
            return solve_lp(*args)

        monkeypatch.setattr(olacsim.dual, "solve_lp", counting)
        max_slack(instance, dist)  # the nominal LP, then the perturbed one from its basis
        max_slack(instance, dist)
        assert len(solves) == 3
        assert solves[1].tolist() == solves[2].tolist() == instance.derived["slack_basis"].tolist()
        assert solves[0].tolist() != solves[1].tolist()


# each function that takes state weights, called on them
WEIGHTED = {
    "primal_oracle": primal_oracle,
    "max_slack": max_slack,
    "maximize_dual": lambda inst, dist: maximize_dual(inst, dist, 10.0),
    "dual_value": lambda inst, dist: dual_value(inst, dist, np.zeros(inst.r), 10.0),
}
BAD_WEIGHTS = {
    "three-entries": ([0.5, 0.25, 0.25], r"shape \(3,\), expected \(4,\)"),
    "nan": ([0.5, np.nan, 0.25, 0.25], "non-finite entry at state 1: nan"),
    "negative": ([0.5, 0.5, 0.25, -0.25], "negative entry at state 3: -0.25"),
    "inf": ([np.inf, 0.0, 0.0, 0.0], "non-finite entry at state 0: inf"),
}


@pytest.mark.parametrize("weights", BAD_WEIGHTS)
@pytest.mark.parametrize("name", WEIGHTED)
def test_bad_state_weights_rejected_before_any_lp(name, weights, monkeypatch):
    inst = make_instance(1, [0.25] * 4, [[(0.0, [1.0], [0.0]), (1.0, [0.0], [2.0])]] * 4)
    built = []
    monkeypatch.setattr(olacsim.dual, "class_lp", lambda instance: built.append(instance))
    dist, message = BAD_WEIGHTS[weights]
    with pytest.raises(ValueError, match=message):
        WEIGHTED[name](inst, np.array(dist))
    assert built == []


class TestOracleWork:
    """The pivots of the oracles' LPs at the true distribution, each from its own start basis."""

    # instance: (policy LP pivots, nominal slack LP pivots)
    PIVOTS = {"two_queue": (19, 18), "two_queue_unbalanced": (22, 17), "three_queue": (10, 7)}

    @pytest.mark.parametrize("name", sorted(PIVOTS))
    def test_policy_and_slack_lp_pivots(self, name, request, monkeypatch):
        shipped = load_instance_file(THREE_QUEUE) if name == "three_queue" else request.getfixturevalue(name)
        instance = NetworkInstance(shipped.r, shipped.states)  # no kept slack basis yet
        lps = []

        class Recorded(olacsim.dual._DualSimplex):
            def __init__(self, *args):
                super().__init__(*args)
                lps.append(self)

        monkeypatch.setattr(olacsim.dual, "_DualSimplex", Recorded)
        primal_oracle(instance, instance.probabilities)
        max_slack(instance, instance.probabilities)
        assert tuple(lp.pivots for lp in lps) == self.PIVOTS[name]


def start_bases(instance):
    """The (a, c, basis) each LP starts from: the policy and slack LPs as handed to ``solve_lp``, then the count LP."""
    starts = []

    def capture(a, c, basis, b):
        starts.append((a, c, np.array(basis)))
        return solve_lp(a, c, basis, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(olacsim.dual, "solve_lp", capture)
        slack = max_slack(instance, instance.probabilities)
        try:
            primal_oracle(instance, instance.probabilities)
        except InfeasibleInstanceError:
            pass
    assert len(starts) == 2
    if slack > 0:  # the count LP needs a box
        lp = _CountLP(instance)
        starts.append((lp.a, lp.c, lp.basis.copy()))
    return starts


def assert_dual_feasible_starts(instance):
    for a, c, basis in start_bases(instance):
        y = np.linalg.solve(a[:, basis].T, c[basis])
        reduced = c - y @ a
        assert reduced.min() >= -1e-9, (basis, reduced)


class TestStartBases:
    """Every LP starts from a dual feasible basis: each reduced cost of its start is >= 0."""

    @pytest.mark.parametrize("name", ["two_queue", "two_queue_unbalanced"])
    def test_shipped_channels(self, name, request):
        assert_dual_feasible_starts(request.getfixturevalue(name))

    @settings(max_examples=80, deadline=None)
    @given(instance=oracle_instances())
    def test_random_instances(self, instance):
        assert_dual_feasible_starts(instance)

    def test_action_dependent_arrivals(self):
        # the slack LP starts from the smallest queue-1 drift (action 0), not the
        # largest queue-1 service (action 1), whose start has a reduced cost of -2
        inst = single_state_instance([(1.0, [0.0], [1.0]), (0.0, [3.0], [2.0])])
        assert class_lp(inst).min_drift_cols.tolist() == [0]
        assert_dual_feasible_starts(inst)


def assert_class_values_match(instance, dist, gammas, V):
    """``class_dual_values`` against ``dual_value`` at each row, within 1e-12 of |g| or of its terms' size."""
    values = class_dual_values(instance, dist, gammas, V)
    assert values.shape == (len(gammas),)
    for gamma, value in zip(gammas, values):
        ref = dual_value(instance, dist, gamma, V)
        terms = V * instance.f_max + np.abs(instance.drift).max(initial=0.0) * gamma.sum()
        assert abs(value - ref) <= 1e-12 * max(abs(ref), terms), (gamma, value, ref)


class TestClassDualValues:
    """The grid oracle (conftest) on ``class_lp``'s tables, against ``dual_value`` on the full ones."""

    @pytest.mark.parametrize("name", ["two_queue", "two_queue_unbalanced"])
    @pytest.mark.parametrize("V", [1.0, 20.0, 100.0, 800.0])
    def test_shipped_channels(self, name, V, request):
        instance = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        gamma_star = V * primal_oracle(instance, instance.probabilities).multiplier_v1
        gammas = np.vstack([
            np.zeros(2), gamma_star, [gamma_star[0], 0.0],
            np.maximum(gamma_star + rng.normal(size=(100, 2)), 0.0),
            rng.exponential(V, size=(100, 2)),
        ])
        assert_class_values_match(instance, instance.probabilities, gammas, V)
        # and at an empirical distribution with zero-probability states
        dist = np.bincount([0, 5, 5, 17, 40, 63, 63, 63], minlength=64) / 8.0
        assert_class_values_match(instance, dist, gammas, V)

    @settings(max_examples=60, deadline=None)
    @given(instance=oracle_instances(), data=st.data())
    def test_random_instances(self, instance, data):
        # folded and unfolded classes, pruned actions and ragged widths, r up to 4
        V = data.draw(st.sampled_from([1.0, 7.5, 100.0]))
        rows = data.draw(st.lists(st.lists(GRID | st.floats(0, 40), min_size=instance.r, max_size=instance.r),
                                  min_size=1, max_size=6))
        assert_class_values_match(instance, instance.probabilities, np.array(rows), V)

    def test_scored_in_blocks(self, two_queue, monkeypatch):
        # more rows than one block of SCORE_CELLS holds give the same values
        gammas = np.random.default_rng(2).exponential(50.0, size=(37, 2))
        whole = class_dual_values(two_queue, two_queue.probabilities, gammas, 50.0)
        monkeypatch.setattr(conftest, "SCORE_CELLS", 1000)
        assert np.array_equal(class_dual_values(two_queue, two_queue.probabilities, gammas, 50.0), whole)


# points the sampled probe drew, which the exact rate replaced
PROBE_SAMPLES = 512


def probe_rho(instance, dist, V, gamma_star, seed=0):
    """The sampled probe the exact rate replaced: the smallest ratio over PROBE_SAMPLES points, one ``dual_value`` each.

    The points lie on shells up to max(1, 0.05 ||gamma_star||) around
    gamma_star, projected onto gamma >= 0; those closer than 1e-6 are dropped.
    """
    gamma_star = np.asarray(gamma_star, dtype=float)
    radius = max(1.0, 0.05 * float(np.linalg.norm(gamma_star)))
    rng = np.random.default_rng(seed)
    g_star = dual_value(instance, dist, gamma_star, V)
    rho = math.inf
    for _ in range(PROBE_SAMPLES):
        direction = rng.normal(size=instance.r)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        point = np.maximum(gamma_star + (radius * rng.random()) * direction / norm, 0.0)
        d = float(np.linalg.norm(point - gamma_star))
        if d < 1e-6:
            continue
        rho = min(rho, (g_star - dual_value(instance, dist, point, V)) / d)
    return float(rho) if math.isfinite(rho) else 0.0


THREE_QUEUE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "instances", "three_queue.json")


# both shipped channels, the three-queue instance file and random instances with a multiplier, r <= 4
EXACTNESS = {
    "uniform": build_two_queue_example([0.25, 0.25, 0.25, 0.25]),
    "unbalanced": build_two_queue_example([0.1, 0.4, 0.4, 0.1]),
    "three_queue": load_instance_file(THREE_QUEUE),
    **{f"random{i}_r{inst.r}": inst for i, inst in enumerate(random_multiplier_instances(seed=4, count=12, max_r=4))},
}


def sampled_ratios(instance, radius, count=2048, seed=0):
    """(g* - g(gamma)) / ||gamma - gamma*|| at points on a sphere of ``radius`` around gamma*_1, projected onto gamma >= 0.

    Scored with the grid oracle at V = 1; points that the projection moves
    within radius / 10 of gamma*_1 are dropped, since their ratio is mostly
    rounding.
    """
    gamma = nominal_policy(instance).multiplier_v1
    directions = np.random.default_rng(seed).normal(size=(count, instance.r))
    points = np.maximum(gamma + radius * directions / np.linalg.norm(directions, axis=1)[:, None], 0.0)
    distances = np.linalg.norm(points - gamma, axis=1)
    points, distances = points[distances >= radius / 10], distances[distances >= radius / 10]
    g = class_dual_values(instance, instance.probabilities, np.vstack([gamma, points]), 1.0)
    return (g[0] - g[1:]) / distances


class TestExactRho:
    """``estimate_polyhedral_rho``: the exact decay rate of the dual at gamma*, and a direction attaining it."""

    @pytest.mark.parametrize("instance", EXACTNESS.values(), ids=EXACTNESS.keys())
    def test_at_most_every_sampled_ratio(self, instance):
        rho, _ = estimate_polyhedral_rho(instance)
        scale = max(1.0, float(np.linalg.norm(nominal_policy(instance).multiplier_v1)))
        for radius in (1e-2, 0.05 * scale):
            assert rho <= sampled_ratios(instance, radius).min() * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("instance", EXACTNESS.values(), ids=EXACTNESS.keys())
    def test_attained_along_its_direction(self, instance):
        # the ratio is constant along the ray up to the dual's next kink; g_V(V gamma) = V g_1(gamma)
        rho, direction = estimate_polyhedral_rho(instance)
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
        assert not direction.flags.writeable
        for V in (1.0, 100.0):
            gamma_star = V * nominal_policy(instance).multiplier_v1
            g_star = dual_value(instance, instance.probabilities, gamma_star, V)
            t = 1e-3 * V
            ratio = (g_star - dual_value(instance, instance.probabilities, gamma_star + t * direction, V)) / t
            assert ratio == pytest.approx(rho, rel=1e-9)

    @pytest.mark.parametrize("instance", [i for i in EXACTNESS.values() if i.r == 2],
                             ids=[name for name, i in EXACTNESS.items() if i.r == 2])
    def test_two_queue_angle_grid(self, instance):
        # 2^14 angles, then 2^18 across one step of those either side of their minimum, 2.9e-9
        # apart; at radius 1e-2 no kink of the dual lies between gamma* and the grid
        gamma = nominal_policy(instance).multiplier_v1
        g_star = class_dual_values(instance, instance.probabilities, gamma[None], 1.0)[0]

        def ratios(angles, t=1e-2):
            points = gamma + t * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            values = (g_star - class_dual_values(instance, instance.probabilities, points, 1.0)) / t
            return np.where((points >= 0).all(axis=1), values, np.inf)

        n = 1 << 14
        coarse = 2 * math.pi * np.arange(n) / n
        best = coarse[ratios(coarse).argmin()]
        grid_min = ratios(best + (2 * math.pi / n) * np.linspace(-1.0, 1.0, 1 << 18)).min()
        rho, _ = estimate_polyhedral_rho(instance)
        assert abs(grid_min - rho) <= 1e-9

    @pytest.mark.parametrize("instance", EXACTNESS.values(), ids=EXACTNESS.keys())
    def test_at_most_the_sampled_probe(self, instance):
        rho, _ = estimate_polyhedral_rho(instance)
        gamma_1 = nominal_policy(instance).multiplier_v1
        for V, seed in ((20.0, 0), (100.0, 3)):
            assert rho <= probe_rho(instance, instance.probabilities, V, V * gamma_1, seed) * (1 + 1e-9)

    def test_shipped_values(self, two_queue, two_queue_unbalanced):
        # the grid minima of both channels, and the three-queue file's rate, which the probe put at 0.0407
        for instance, expected in ((two_queue, 0.0347552), (two_queue_unbalanced, 0.0238477),
                                   (load_instance_file(THREE_QUEUE), 0.0110177)):
            assert estimate_polyhedral_rho(instance)[0] == pytest.approx(expected, abs=5e-8)

    def test_one_d_crossing_slope(self):
        rho, direction = estimate_polyhedral_rho(one_d_crossing())
        assert rho == pytest.approx(1.0, rel=1e-12)
        assert abs(direction[0]) == 1.0

    def test_flat_dual_has_no_decay(self):
        # and a single action of zero drift, whose dual is 0 everywhere
        for flat in (flat_dual(), single_state_instance([(0.0, [0.0], [0.0])])):
            rho, direction = estimate_polyhedral_rho(flat)
            assert rho == 0.0 and direction.tolist() == [1.0]
        inst = flat_dual()
        ana = compute_analysis(inst, 10.0)
        assert ana.rho_hat == 0.0 and math.isnan(ana.eta) and math.isnan(ana.D_p)
        assert ana.eta_0 > 0

    def test_boundary_directions_stay_in_the_box(self):
        # on every instance that has a queue with gamma*_j = 0, the direction does not push it below 0
        for instance in EXACTNESS.values():
            gamma = nominal_policy(instance).multiplier_v1
            _, direction = estimate_polyhedral_rho(instance)
            assert (direction[gamma == 0.0] >= 0.0).all()

    def test_kept_once_per_instance(self):
        # every V reads the instance's one rate, which a fresh instance computes bit for bit
        instance = build_two_queue_example([0.1, 0.4, 0.4, 0.1])
        rhos = {compute_analysis(instance, V).rho_hat.hex() for V in (20.0, 50.0, 100.0, 200.0)}
        assert rhos == {estimate_polyhedral_rho(build_two_queue_example([0.1, 0.4, 0.4, 0.1]))[0].hex()}
        rho, direction = instance.derived["rho"]
        assert rho.hex() in rhos and not direction.flags.writeable

    @pytest.mark.parametrize("channel", [[0.25, 0.25, 0.25, 0.25], [0.1, 0.4, 0.4, 0.1]])
    def test_gamma_star_enters_through_the_ties_only(self, channel):
        # a multiplier one ulp off, as another BLAS kernel's policy LP gives it, leaves rho's bits
        rho, direction = estimate_polyhedral_rho(build_two_queue_example(channel))
        moved = build_two_queue_example(channel)
        policy = nominal_policy(moved)
        policy.multiplier_v1 = np.nextafter(policy.multiplier_v1, np.inf)
        moved_rho, moved_direction = estimate_polyhedral_rho(moved)
        assert moved_rho.hex() == rho.hex() and moved_direction.tobytes() == direction.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(instance=oracle_instances())
    def test_random_instances(self, instance):
        # class tables with folded, pruned and ragged rows, r up to 4; instances without a policy are skipped
        try:
            rho, direction = estimate_polyhedral_rho(instance)
        except InfeasibleInstanceError:
            return
        assert rho >= 0.0 and np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
        assert rho <= sampled_ratios(instance, 1e-2, count=256).min(initial=math.inf) * (1 + 1e-9) + 1e-12


class TestNormals:
    def test_orthogonal_and_signed_minors(self):
        # each normal is orthogonal to its block's rows; expanding det([normal; block]) along its
        # first row gives |normal|^2, and by Cauchy-Binet that is the Gram determinant of the rows
        rng = np.random.default_rng(3)
        for r in (1, 2, 3, 4):
            edges = rng.normal(size=(20, r - 1, r))
            normals = _normals(edges)
            assert np.abs(np.einsum("nkr,nr->nk", edges, normals)).max(initial=0.0) <= 1e-12
            for block, normal in zip(edges, normals):
                length2 = float(normal @ normal)
                assert np.linalg.det(np.vstack([normal, block])) == pytest.approx(length2, rel=1e-9)
                assert np.linalg.det(block @ block.T) == pytest.approx(length2, rel=1e-9)

    def test_dependent_rows_give_a_zero_normal(self):
        edges = np.array([[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        assert _normals(edges).tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


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
        for inst in random_multiplier_instances(seed=11, count=8):
            pi = inst.probabilities
            eta_0 = max_slack(inst, pi)
            sol = primal_oracle(inst, pi)
            v = 37.0
            assert v * sol.multiplier_v1.sum() <= v * inst.f_max / eta_0 + 1e-6

    def test_gamma_scales_linearly_in_v(self, two_queue):
        a1 = compute_analysis(two_queue, 100.0)
        a2 = compute_analysis(two_queue, 400.0)
        assert np.allclose(a2.gamma_star / 400.0, a1.gamma_star / 100.0, atol=1e-9)
