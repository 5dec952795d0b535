#!/usr/bin/env python3
"""Closed-form baselines, no learning involved.

Two allocation problems, two exact answers:

* Bandwidth slicing: the utility is a product of concave per-slice scores, so
  the optimum is a water-filling allocation: one common level between each
  slice's floor and its useful top, interpolated between the two kinks of the
  piecewise-linear spend curve around the budget, so the budget is spent to a
  few ulps. We print it for both demand regimes and compare against the naive
  even split.
* Task offloading: with a small joint-action catalog, the per-slot optimum is
  a brute-force scan. We print the best routing for the fixed four-server
  instance.
"""

import numpy as np

from rlalloc.mec import (
    action_catalog,
    brute_force_optimal,
    small_contention_config,
)
from rlalloc.slicing import (
    default_analytic_config,
    score_analytic,
    sra,
    utility,
    water_fill_optimal,
)


def main():
    config = default_analytic_config()
    print("== bandwidth slicing ==")
    print(f"budget {config.total_bandwidth}, floors {config.k_min.tolist()}")
    for label, demands in (
        ("before demand change", np.array([1.0, 1.0, 0.1])),
        ("after demand change", np.array([0.5, 1.5, 0.1])),
    ):
        k_opt = water_fill_optimal(demands, config)
        u_opt = utility(score_analytic(k_opt, demands, config.ideal_scores))
        k_even = sra(config)
        u_even = utility(score_analytic(k_even, demands, config.ideal_scores))
        print(f"\n{label}: demands {demands.tolist()}")
        print(f"  water-filling k = {k_opt.round(6).tolist()}  ->  U = {u_opt:.6f}")
        print(f"  even split    k = {k_even.tolist()}  ->  U = {u_even:.6f}")
        print(f"  improvement ratio = {u_opt / u_even:.4f}")

    print("\n== task offloading (fixed four-server instance) ==")
    mec = small_contention_config()
    sizes = mec.arrivals.draw(np.random.default_rng(0))
    catalog = action_catalog(mec)
    print(f"arrivals {sizes.tolist()}, joint-action catalog size {len(catalog)}")
    action, outcome = brute_force_optimal(mec.topology, sizes)
    print(f"best routing {action} (-1 = core, -2 = nothing to route)")
    print(f"per-server latency {np.round(outcome.latencies, 6).tolist()}")
    print(f"worst-case latency L_max = {outcome.l_max:.6f}")


if __name__ == "__main__":
    main()
