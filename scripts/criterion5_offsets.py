"""Where OLAC's backlog sits against sum(theta) on the two-queue uniform instance.

Reproduces the figures behind acceptance criterion 5 (README, "Install and
test"). For each V and per-queue theta it runs OLAC for --horizon slots per
seed and prints, over the second half of each run:

  offset     mean total backlog minus sum(theta), averaged over the seeds
  empty_q1/2 share of slots in which queue 1 / queue 2 is empty
  beta_err   mean |beta - gamma*|

It also prints the summed supergradient of the true dual along
gamma* + delta * (1, 1): the mean drift of the effective backlog
q + beta - theta when it sits delta away from gamma* on the diagonal.

    PYTHONPATH=src python scripts/criterion5_offsets.py --V 400 1600 --theta 150 300 --start-at-theta
    PYTHONPATH=src python scripts/criterion5_offsets.py --V 100 --theta default --seeds 0 1 2 3 4 5 6 7 8 9

A theta of "default" is the controller's (ln V)^2. --start-at-theta starts
both queues at theta instead of empty.
"""
import argparse
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from olacsim.controllers import ControllerConfig
from olacsim.dual import compute_analysis, supergradient
from olacsim.model import build_two_queue_example
from olacsim.sim import SimConfig, run

INSTANCE = build_two_queue_example([0.25, 0.25, 0.25, 0.25])
DELTAS = (-80, -60, -40, -20, -10, -1, 1, 10, 20, 40, 80, 160)


def theta_for(v, spec):
    return math.log(v) ** 2 if spec == "default" else float(spec)


def one_run(args):
    v, theta_spec, seed, horizon, start_at_theta, gamma_star = args
    theta = np.full(INSTANCE.r, theta_for(v, theta_spec))
    cfg = SimConfig(
        horizon=horizon,
        seed=seed,
        controller=ControllerConfig(kind="OLAC", V=v, theta=theta),
        initial_backlog=theta.copy() if start_at_theta else None,
    )
    res = run(INSTANCE, cfg, gamma_star)
    q = res.queue_trace[horizon // 2 :]
    return (
        q.sum(axis=1).mean() - theta.sum(),
        (q <= 0).mean(axis=0),
        res.beta_trace[horizon // 2 :].mean(),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--V", type=float, nargs="+", default=[100.0, 400.0, 1600.0])
    parser.add_argument("--theta", nargs="+", default=["default"], help='per-queue theta values, or "default"')
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--horizon", type=int, default=100_000)
    parser.add_argument("--start-at-theta", action="store_true")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    gamma_stars = {v: compute_analysis(INSTANCE, v).gamma_star for v in args.V}
    print("summed supergradient at gamma* + delta*(1,1):")
    for v in args.V:
        row = "  ".join(
            f"{d:+d}: {supergradient(INSTANCE, INSTANCE.probabilities, gamma_stars[v] + d, v).sum():+.3f}"
            for d in DELTAS
        )
        print(f"  V={v:g}  {row}")

    cells = [(v, t) for v in args.V for t in args.theta]
    jobs = [
        (v, t, seed, args.horizon, args.start_at_theta, gamma_stars[v]) for v, t in cells for seed in args.seeds
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=min(args.workers, len(jobs))) as pool:
            results = list(pool.map(one_run, jobs, chunksize=1))
    else:
        results = [one_run(job) for job in jobs]
    n = len(args.seeds)
    start = "theta" if args.start_at_theta else "empty"
    print(f"second half of {args.horizon} slots, seeds {args.seeds}, queues start {start}:")
    for k, (v, t) in enumerate(cells):
        block = results[k * n : (k + 1) * n]
        offset = np.mean([b[0] for b in block])
        empty = np.mean([b[1] for b in block], axis=0)
        beta_err = np.mean([b[2] for b in block])
        print(
            f"  V={v:g} theta={theta_for(v, t):.1f}: offset {offset:+.1f}  "
            f"empty_q1 {empty[0]:.2%}  empty_q2 {empty[1]:.2%}  beta_err {beta_err:.2f}"
        )


if __name__ == "__main__":
    main()
