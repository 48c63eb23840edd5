import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olacsim.dual
from olacsim.controllers import ControllerConfig
from olacsim.dual import NoSlackError, primal_oracle
from olacsim.model import InstanceError, NetworkInstance
from olacsim.sim import SimConfig, convergence_time, run, sample_states

from conftest import make_instance, single_state_instance


def fresh_copy(instance):
    """An equal instance that keeps none of ``instance``'s solved LPs or learned paths."""
    return NetworkInstance(instance.r, instance.states)


@pytest.fixture(scope="module")
def gamma_star_100(two_queue):
    return 100.0 * primal_oracle(two_queue, two_queue.probabilities).multiplier_v1


def state_machine_convergence(dist, zeta, window):
    """The per-slot run tracker sim.run once used; reference for convergence_time."""
    t_first = t_sustained = run_start = None
    run_len = 0
    for t, d in enumerate(dist):
        if d <= zeta:
            if t_first is None:
                t_first = t
            if run_start is None:
                run_start = t
                run_len = 0
            run_len += 1
            if run_len >= window and t_sustained is None:
                t_sustained = run_start
        else:
            run_start = None
            run_len = 0
    return t_first, t_sustained


class TestConvergenceTime:
    def test_immediate_hit(self):
        assert convergence_time([0.0], 1.0) == 0

    def test_first_touch_no_sojourn(self):
        assert convergence_time([5.0, 3.0, 1.0, 2.0], 2.0) == 2

    def test_never_within(self):
        assert convergence_time([5.0, 4.0], 2.0) is None

    def test_zeta_must_be_positive(self):
        with pytest.raises(ValueError):
            convergence_time(np.zeros(1), 0.0)

    def test_window_needs_consecutive_slots(self):
        dist = [0.0, 9.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0]
        assert convergence_time(dist, 1.0, window=2) == 2
        assert convergence_time(dist, 1.0, window=3) == 5

    def test_window_run_may_end_at_horizon(self):
        assert convergence_time([9.0, 0.0, 0.0], 1.0, window=2) == 1
        assert convergence_time([9.0, 0.0, 0.0], 1.0, window=3) is None
        assert convergence_time([0.0], 1.0, window=5) is None

    def test_nan_distance_is_not_within(self):
        assert convergence_time([np.nan, 0.0, 0.0], 1.0, window=2) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]), min_size=1, max_size=60),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.integers(min_value=1, max_value=12),
    )
    def test_matches_per_slot_state_machine(self, dist, zeta, window):
        t_first, t_sustained = state_machine_convergence(dist, zeta, window)
        assert convergence_time(dist, zeta) == t_first
        assert convergence_time(dist, zeta, window) == t_sustained


class TestRun:
    def test_single_slot(self, two_queue, gamma_star_100):
        cfg = SimConfig(horizon=1, seed=0, controller=ControllerConfig("Backpressure", 100.0))
        res = run(two_queue, cfg, gamma_star_100)
        assert res.avg_backlog == 0.0
        assert res.avg_cost == 0.0  # empty queues choose the zero-power action

    def test_start_at_gamma_star_gives_t_zero(self, two_queue, gamma_star_100, start_backlog):
        # slot 0's row is the start backlog, already within a tight zeta of gamma*
        start_backlog(gamma_star_100)
        cfg = SimConfig(horizon=5, seed=0, controller=ControllerConfig("Backpressure", 100.0), zeta=10.0)
        res = run(two_queue, cfg, gamma_star_100)
        assert res.queue_trace[0].tolist() == gamma_star_100.tolist()
        assert res.t_zeta_first == 0

    @pytest.mark.parametrize("kind", ["Backpressure", "OLAC", "OLAC2"])
    def test_bit_identical_repeat(self, kind, two_queue, gamma_star_100):
        def once():
            cfg = SimConfig(horizon=1500, seed=42, controller=ControllerConfig(kind, 60.0), zeta=100.0)
            return run(two_queue, cfg, gamma_star_100 * 0.6)

        a, b = once(), once()
        assert a.avg_cost == b.avg_cost
        assert a.avg_backlog == b.avg_backlog
        assert np.array_equal(a.gamma_trace, b.gamma_trace)
        assert np.array_equal(a.queue_trace, b.queue_trace)
        assert np.array_equal(a.dropped, b.dropped)
        assert a.t_zeta_first == b.t_zeta_first
        assert a.delay.mean_delay == b.delay.mean_delay

    def test_state_sampling_matches_distribution_and_is_stable(self, two_queue):
        s1 = sample_states(two_queue, 5000, 7)
        s2 = sample_states(two_queue, 5000, 7)
        assert np.array_equal(s1, s2)
        assert s1.min() >= 0 and s1.max() < 64

    def test_no_draw_lands_on_a_state_of_probability_zero(self, monkeypatch):
        # the probabilities sum to 1 - 4e-10, within PROB_SUM_TOL: a draw in
        # [0.9999999996, 1) lies past the cumulative sum of states 0 and 1
        inst = make_instance(1, [0.3, 0.7 - 4e-10, 0.0], [[(0.0, [0.0], [1.0])]] * 3)

        class Draws:
            def __init__(self, bit_generator):
                pass

            def random(self, size):
                return np.array([0.1, 0.5, 1.0 - 2e-10, np.nextafter(1.0, 0.0)])[:size]

        monkeypatch.setattr(np.random, "Generator", Draws)
        assert sample_states(inst, 4, 0).tolist() == [0, 1, 1, 1]

    def test_olac2_pre_learn_identical_to_lifo_backpressure(self, two_queue, gamma_star_100):
        # before T_l OLAC2 is Backpressure on LIFO queues; totals and costs do
        # not depend on the discipline, so FIFO Backpressure must match
        v = 100.0
        t_l = ControllerConfig("OLAC2", v).learn_slot()
        cfg_o2 = SimConfig(horizon=t_l, seed=3, controller=ControllerConfig("OLAC2", v))
        cfg_bp = SimConfig(horizon=t_l, seed=3, controller=ControllerConfig("Backpressure", v))
        r_o2 = run(two_queue, cfg_o2, gamma_star_100)
        r_bp = run(two_queue, cfg_bp, gamma_star_100)
        assert np.array_equal(r_o2.queue_trace, r_bp.queue_trace)
        assert r_o2.avg_cost == r_bp.avg_cost

    def test_olac2_acts_on_pre_adjustment_backlog_at_learn_slot(self, two_queue, gamma_star_100):
        # at T_l OLAC2 takes Backpressure's action on the backlog before the
        # adjustment; the adjusted backlog is what the slot's metrics record
        v = 100.0
        t_l = ControllerConfig("OLAC2", v).learn_slot()
        for seed in range(3):
            cfg_o2 = SimConfig(horizon=t_l + 1, seed=seed, controller=ControllerConfig("OLAC2", v))
            cfg_bp = SimConfig(horizon=t_l + 1, seed=seed, controller=ControllerConfig("Backpressure", v))
            r_o2 = run(two_queue, cfg_o2, gamma_star_100)
            r_bp = run(two_queue, cfg_bp, gamma_star_100)
            assert r_o2.cost_trace[t_l] == r_bp.cost_trace[t_l]
            assert not np.array_equal(r_o2.queue_trace[t_l], r_bp.queue_trace[t_l])

    def test_olac2_jump_visible_at_learn_slot(self, two_queue, gamma_star_100):
        v = 100.0
        t_l = ControllerConfig("OLAC2", v).learn_slot()
        cfg = SimConfig(horizon=t_l + 3, seed=1, controller=ControllerConfig("OLAC2", v))
        res = run(two_queue, cfg, gamma_star_100)
        assert res.t_learn == t_l == 22
        assert res.queue_trace[t_l].sum() > res.queue_trace[t_l - 1].sum() + 10

    def test_avg_cost_within_bounds(self, two_queue, gamma_star_100):
        cfg = SimConfig(horizon=3000, seed=0, controller=ControllerConfig("Backpressure", 100.0))
        res = run(two_queue, cfg, gamma_star_100)
        assert 0.0 <= res.avg_cost <= two_queue.f_max
        assert res.avg_backlog >= 0.0

    def test_olac_beta_trace_present(self, two_queue, gamma_star_100):
        cfg = SimConfig(horizon=300, seed=0, controller=ControllerConfig("OLAC", 100.0))
        res = run(two_queue, cfg, gamma_star_100)
        assert res.beta_trace is not None and len(res.beta_trace) == 300
        cfg_bp = SimConfig(horizon=300, seed=0, controller=ControllerConfig("Backpressure", 100.0))
        assert run(two_queue, cfg_bp, gamma_star_100).beta_trace is None

    def test_olac_queues_shift_with_theta_clear_of_empty(self, two_queue, gamma_star_100, start_backlog):
        # OLAC weighs q + beta - theta; started at q = theta and never emptied,
        # the queue path minus theta (so the backlog's offset from sum(theta))
        # does not depend on theta
        paths = []
        for theta in (150.0, 300.0):
            th = np.full(two_queue.r, theta)
            start_backlog(th)
            cfg = SimConfig(horizon=5000, seed=0, controller=ControllerConfig("OLAC", 100.0, theta=th))
            res = run(two_queue, cfg, gamma_star_100)
            assert (res.queue_trace > 0).all()
            paths.append((res.queue_trace - th, res.cost_trace))
        np.testing.assert_allclose(paths[0][0], paths[1][0], rtol=0, atol=1e-9)
        np.testing.assert_array_equal(paths[0][1], paths[1][1])

    def test_sustained_requires_run_of_window(self, two_queue, gamma_star_100):
        cfg = SimConfig(
            horizon=400, seed=0, controller=ControllerConfig("Backpressure", 100.0),
            zeta=1000.0,
        )
        res = run(two_queue, cfg, gamma_star_100)
        # zeta larger than any distance: both are slot 0
        assert res.t_zeta_first == 0
        assert res.t_zeta_sustained == 0


class TestRunInputs:
    """The slot kernels trust their inputs; run checks them once, before slot 0."""

    @pytest.mark.parametrize("zeta", [0.0, -1.0, np.nan, np.inf])
    def test_bad_zeta_rejected_by_config(self, zeta):
        with pytest.raises(ValueError, match="zeta must be None or positive and finite"):
            SimConfig(horizon=5, seed=0, controller=ControllerConfig("Backpressure", 10.0), zeta=zeta)

    @pytest.mark.parametrize("arrival, service", [([np.nan], [1.0]), ([0.0], [np.inf])])
    def test_non_finite_table_rejected(self, arrival, service):
        # run trusts its instance: one with such a table is never built
        with pytest.raises(InstanceError, match="state 0 action 1: non-finite (arrival|service) entry"):
            single_state_instance([(0.0, [0.0], [1.0]), (1.0, arrival, service)])

    def test_state_without_actions_rejected(self):
        with pytest.raises(InstanceError, match="state 1: empty action set"):
            make_instance(1, [0.5, 0.5], [[(0.0, [0.0], [1.0])], []])

    @pytest.mark.parametrize("kind, horizon", [
        pytest.param("OLAC", 10, id="OLAC"),
        pytest.param("OLAC2", 10, id="OLAC2"),
        # T_l = 5 falls past the horizon: OLAC2 learns nothing and is still rejected
        pytest.param("OLAC2", 3, id="OLAC2-short"),
    ])
    def test_learner_without_slack_rejected_before_first_slot(self, kind, horizon, monkeypatch):
        # arrivals equal the best service: eta_0 = 0, so the learned multiplier has no box
        import olacsim.sim

        def no_slot(*args):
            raise AssertionError("a slot ran")

        monkeypatch.setattr(olacsim.sim, "apply_slot", no_slot)
        instance = single_state_instance([(0.0, [1.0], [0.0]), (1.0, [1.0], [1.0])])
        cfg = SimConfig(horizon=horizon, seed=0, controller=ControllerConfig(kind, 10.0))
        with pytest.raises(NoSlackError, match=f"^{kind}: .*eta_0 = 0 <= 0"):
            run(instance, cfg, np.zeros(1))

    @pytest.mark.parametrize("kind", ["OLAC", "OLAC2"])
    def test_second_run_solves_no_slack_lp(self, two_queue, gamma_star_100, kind, monkeypatch):
        # the instance keeps the slack LP's eta_0 from its first run: the
        # second solves none and gives the run of an instance that solved it
        ctrl = ControllerConfig(kind, 100.0)
        cfg = SimConfig(horizon=300, seed=4, controller=ctrl)
        solved = run(fresh_copy(two_queue), cfg, gamma_star_100)
        instance = fresh_copy(two_queue)
        run(instance, SimConfig(horizon=300, seed=3, controller=ctrl), gamma_star_100)

        def no_slack_lp(*args):
            raise AssertionError("the slack LP was solved again")

        monkeypatch.setattr(olacsim.dual, "max_slack", no_slack_lp)
        again = run(instance, cfg, gamma_star_100)
        assert (again.avg_cost, again.avg_backlog, again.delay.mean_delay) == (
            solved.avg_cost, solved.avg_backlog, solved.delay.mean_delay,
        )
        assert np.array_equal(again.queue_trace, solved.queue_trace)
        assert again.solver_flagged_slots == solved.solver_flagged_slots

    @pytest.mark.parametrize("kind", ["OLAC", "OLAC2"])
    @pytest.mark.parametrize("eta_0", [0.0, -0.5])
    def test_non_positive_supplied_eta_0_rejected_before_first_slot(self, two_queue, kind, eta_0, monkeypatch):
        # the slack LP supplies eta_0 to the learners; without slack there is no box
        import olacsim.sim

        def no_slot(*args):
            raise AssertionError("a slot ran")

        monkeypatch.setattr(olacsim.sim, "apply_slot", no_slot)
        monkeypatch.setattr(olacsim.dual, "max_slack", lambda instance, dist: eta_0)
        cfg = SimConfig(horizon=10, seed=0, controller=ControllerConfig(kind, 1.0, c=0.5))
        with pytest.raises(NoSlackError, match=f"^{kind}: .*eta_0 = {eta_0:g} <= 0"):
            run(fresh_copy(two_queue), cfg, np.zeros(2))


class TestModuleCalls:
    """The per-slot and per-run calls go through sim's module globals, where a tracer rebinds them."""

    CALLED = ("bp_decide", "olac_decide", "dual_learn", "olac2_step", "adjust_to", "apply_slot")

    @pytest.mark.parametrize("kind, horizon, expected", [
        ("Backpressure", 50, {"bp_decide": 50, "apply_slot": 50}),
        ("OLAC", 50, {"olac_decide": 50, "dual_learn": 1, "apply_slot": 50}),
        # T_l = 22 at V = 100
        ("OLAC2", 50, {"bp_decide": 50, "olac2_step": 1, "adjust_to": 1, "apply_slot": 50}),
        ("OLAC2", 22, {"bp_decide": 22, "apply_slot": 22}),
    ], ids=["Backpressure", "OLAC", "OLAC2", "OLAC2-short"])
    def test_calls_per_kind(self, two_queue, gamma_star_100, kind, horizon, expected, monkeypatch):
        import olacsim.sim

        calls = dict.fromkeys(self.CALLED, 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in self.CALLED:
            monkeypatch.setattr(olacsim.sim, name, counted(name, getattr(olacsim.sim, name)))
        cfg = SimConfig(horizon=horizon, seed=5, controller=ControllerConfig(kind, 100.0))
        run(fresh_copy(two_queue), cfg, gamma_star_100)
        assert calls == {**dict.fromkeys(self.CALLED, 0), **expected}


class TestKeptPath:
    """OLAC's beta path is learned at V = 1 and scaled; the instance keeps the last one, by (seed, horizon)."""

    @pytest.mark.parametrize("V", [20.0, 100.0, 700.0])
    def test_same_seed_at_another_v_reuses_the_kept_path(self, two_queue, gamma_star_100, V, monkeypatch):
        import olacsim.sim

        cfg = SimConfig(horizon=400, seed=2, controller=ControllerConfig("OLAC", V), zeta=30.0)
        learned = run(fresh_copy(two_queue), cfg, gamma_star_100)
        instance = fresh_copy(two_queue)
        run(instance, SimConfig(horizon=400, seed=2, controller=ControllerConfig("OLAC", 50.0)), gamma_star_100)

        def no_learn(*args, **kwargs):
            raise AssertionError("the beta path was learned again")

        monkeypatch.setattr(olacsim.sim, "dual_learn", no_learn)
        shared = run(instance, cfg, gamma_star_100)
        for name in ("avg_cost", "avg_backlog", "t_zeta_first", "solver_flagged_slots"):
            assert getattr(shared, name) == getattr(learned, name)
        assert shared.delay.mean_delay == learned.delay.mean_delay
        for name in ("queue_trace", "gamma_trace", "beta_trace", "cost_trace"):
            assert np.array_equal(getattr(shared, name), getattr(learned, name))

    def test_another_seed_or_horizon_learns_anew(self, two_queue, gamma_star_100, monkeypatch):
        import olacsim.sim

        real_learn, learns = olacsim.sim.dual_learn, []

        def counted(instance, states):
            learns.append(len(states))
            return real_learn(instance, states)

        monkeypatch.setattr(olacsim.sim, "dual_learn", counted)
        instance = fresh_copy(two_queue)
        for horizon, seed in [(200, 0), (200, 1), (300, 1), (300, 1), (200, 1)]:
            run(instance, SimConfig(horizon=horizon, seed=seed, controller=ControllerConfig("OLAC", 20.0)),
                gamma_star_100)
        assert learns == [200, 200, 300, 200]
        assert instance.derived["olac_path"][0] == (1, 200)

    def test_kept_path_is_one_row_per_segment(self, two_queue, gamma_star_100):
        instance = fresh_copy(two_queue)
        H = 20_000
        run(instance, SimConfig(horizon=H, seed=0, controller=ControllerConfig("OLAC", 100.0)), gamma_star_100)
        key, starts, betas, _ = instance.derived["olac_path"]
        assert key == (0, H)
        assert starts[0] == 0 and (np.diff(starts) > 0).all() and starts[-1] < H
        assert len(betas) == len(starts) > 1
        assert not betas.flags.writeable
        assert (betas[1:] != betas[:-1]).any(axis=1).all()
        assert betas.nbytes * 20 < H * instance.r * 8
