"""Independent references for the benchmark's correctness checks.

Written from the system model, not from the program's code, in plain Python:

* bandwidth slicing: slice ``i`` with allocation ``k`` against demand ``d``
  scores ``(min(k, d) / d) ** 1.1 / c0_i`` and the step utility is the product
  of the scores. Maximising it means maximising ``sum log min(k_i, d_i)``, so
  the optimum gives every slice the same useful level ``nu``:
  ``k_i = clip(min(nu, d_i), k_min_i, k_max_i)`` with the budget spent, unless
  every demand fits inside its cap, in which case the rest stays idle.
  ``water_fill`` finds ``nu`` exactly by walking the sorted breakpoints of
  the piecewise-linear spend curve.
* edge offloading: a server with slot capacity ``tau * C / v`` computes
  locally (``v * S / C``) when its data fits; otherwise its overflow goes to
  the core (``tau + overflow / core_rate``) or to one neighbour ``j``
  (``tau + overflow / R + v * overflow / C_j``). A target takes at most one
  offload, only when it has no overflow of its own and its spare work
  ``tau * C_j - v * S_j`` covers ``v * overflow``; the largest overflow wins,
  ties to the lowest source. Rejected offloads go to the core. The slot
  latency is the worst server's.
"""

from __future__ import annotations

import itertools

SCORE_EXPONENT = 1.1
NOOP = -2
CORE = -1


def demands_at(initial: list[float], changes: dict[int, list[float]], step: int) -> list[float]:
    """Demands in force at 1-based ``step``: a change at ``c`` applies to steps ``> c``."""
    current = initial
    for change_step in sorted(changes):
        if step > change_step:
            current = changes[change_step]
    return current


def water_fill(
    demands: list[float], total: float, k_min: list[float], k_max: list[float]
) -> list[float]:
    """Exact utility-maximising split of ``total`` (no bisection)."""
    n = len(demands)
    saturated = [min(max(d, lo), hi) for d, lo, hi in zip(demands, k_min, k_max)]
    if sum(saturated) <= total:
        return saturated

    def split(nu: float) -> list[float]:
        return [min(max(min(nu, d), lo), hi) for d, lo, hi in zip(demands, k_min, k_max)]

    # spend(nu) is piecewise linear with kinks where nu meets a floor or a
    # useful cap; find the segment where it crosses the budget.
    lower, spent_lo = 0.0, sum(split(0.0))
    for nu in sorted({*k_min, *(min(d, hi) for d, hi in zip(demands, k_max))}):
        if spent_lo >= total:
            return split(lower)
        spent = sum(split(nu))
        if spent >= total:
            return split(lower + (total - spent_lo) * (nu - lower) / (spent - spent_lo))
        lower, spent_lo = nu, spent
    raise AssertionError(f"no water level spends {total} on {n} slices")


def scores(k: list[float], demands: list[float], ideal: list[float]) -> list[float]:
    return [(min(ki, d) / d) ** SCORE_EXPONENT / c0 for ki, d, c0 in zip(k, demands, ideal)]


def utility(k: list[float], demands: list[float], ideal: list[float]) -> float:
    u = 1.0
    for c in scores(k, demands, ideal):
        u *= c
    return u


def _link_rate(topology: dict, source: int, target: int) -> float:
    if "link_rates" in topology:
        return topology["link_rates"][source][target]
    return topology["link_rate"]


def slot(topology: dict, sizes: list[float], requested: list[int]) -> tuple[list[int], list[float]]:
    """Resolve one slot: the executed choices and each server's latency."""
    caps = topology["capacities"]
    tau, v = topology["tau"], topology["cycles_per_bit"]
    overflow = [max(0.0, s - tau * c / v) for s, c in zip(sizes, caps)]
    winners: dict[int, int] = {}
    for target in sorted({c for c in requested if c >= 0}):
        if overflow[target] > 0.0:
            continue
        spare = tau * caps[target] - v * sizes[target]
        best = None
        for i, c in enumerate(requested):
            if c == target and v * overflow[i] <= spare:
                if best is None or overflow[i] > overflow[best]:
                    best = i
        if best is not None:
            winners[target] = best
    effective = [
        CORE if c >= 0 and winners.get(c) != i else c for i, c in enumerate(requested)
    ]
    latencies = []
    for i, (s, c) in enumerate(zip(sizes, effective)):
        if overflow[i] == 0.0:
            latencies.append(v * s / caps[i])
        elif c == CORE:
            latencies.append(tau + overflow[i] / topology["core_rate"])
        else:
            latencies.append(
                tau + overflow[i] / _link_rate(topology, i, c) + v * overflow[i] / caps[c]
            )
    return effective, latencies


def valid_choices(topology: dict, sizes: list[float]) -> list[list[int]]:
    """Per server: ``[NOOP]`` without overflow, else the core and each neighbour."""
    tau, v = topology["tau"], topology["cycles_per_bit"]
    return [
        [CORE, *sorted(ns)] if s > tau * c / v else [NOOP]
        for s, c, ns in zip(sizes, topology["capacities"], topology["neighbors"])
    ]


def optimum(topology: dict, sizes: list[float]) -> tuple[float, tuple[int, ...]]:
    """Exhaustive search over every valid joint action: (least worst latency, action)."""
    best: tuple[float, tuple[int, ...]] | None = None
    for action in itertools.product(*valid_choices(topology, sizes)):
        worst = max(slot(topology, sizes, list(action))[1])
        if best is None or worst < best[0]:
            best = (worst, action)
    assert best is not None
    return best
