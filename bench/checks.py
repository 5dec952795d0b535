"""Correctness checks of one round's metrics records.

Each check compares the program's records with ``reference.py`` or with a
property the method must have, never with a stored copy of earlier output.
``check`` raises ``CheckFailed`` on the first violation and otherwise returns
the part's quality ratio (``None`` for a part without one).
"""

from __future__ import annotations

import math
import random
import statistics

import reference as ref
from workloads import Part

FINAL_WINDOW = 0.2  # share of each TD3 demand regime that scores the policy
MEC_SAMPLE = 50  # slots re-solved by the reference exhaustive search


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, what: str, rel: float = 1e-9) -> None:
    expect(math.isclose(a, b, rel_tol=rel, abs_tol=1e-12), f"{what}: {a!r} != {b!r}")


def check(part: Part, records: list[dict], seed: int) -> float | None:
    expect(len(records) == part.steps, f"{part.name}: {len(records)} records, expected {part.steps}")
    if part.config["scenario"] == "slicing":
        return _check_slicing(part, records)
    return _check_mec(part, records, seed)


def _schedule(env: dict) -> tuple[list[float], dict[int, list[float]]]:
    return env["demands"], {int(s): v for s, v in env.get("demand_changes", {}).items()}


def _check_slicing(part: Part, records: list[dict]) -> float | None:
    env, policy = part.config["env"], part.config["policy"]
    total, k_min, k_max, ideal = env["total_bandwidth"], env["k_min"], env["k_max"], env["ideal_scores"]
    optimal: dict[tuple, tuple[list[float], float]] = {}
    for t, r in enumerate(records, start=1):
        expect(r["step"] == t and r["phase"] == "train", f"{part.name}: record {t} is {r['step']}/{r['phase']}")
        k, c, u = r["k"], r["c"], r["U"]
        expect(
            all(lo - 1e-12 <= x <= hi + 1e-12 for x, lo, hi in zip(k, k_min, k_max)),
            f"{part.name} step {t}: k {k} outside its bounds",
        )
        expect(sum(k) <= total + 1e-9, f"{part.name} step {t}: k {k} spends more than B")
        _close(u, math.prod(c), f"{part.name} step {t}: U against the product of c")
        if policy == "sra":
            expect(all(abs(x - total / len(k)) <= 1e-12 for x in k), f"sra step {t}: k {k} is not B/I")
            expect(all(x > 0 for x in c), f"sra step {t}: non-positive score in {c}")
            continue
        demands = ref.demands_at(*_schedule(env), t)
        key = tuple(demands)
        if key not in optimal:
            k_opt = ref.water_fill(demands, total, k_min, k_max)
            optimal[key] = k_opt, ref.utility(k_opt, demands, ideal)
        k_opt, u_opt = optimal[key]
        _close(u, ref.utility(k, demands, ideal), f"{part.name} step {t}: U against the score product")
        for x, y in zip(c, ref.scores(k, demands, ideal)):
            _close(x, y, f"{part.name} step {t}: c")
        expect(u <= u_opt * (1 + 1e-9), f"{part.name} step {t}: U {u} above the optimum {u_opt}")
        expect(r["U_greedy"] <= u_opt * (1 + 1e-9), f"{part.name} step {t}: U_greedy above the optimum")
        if policy == "optimal":
            expect(
                max(abs(x - y) for x, y in zip(k, k_opt)) <= 1e-6,
                f"waterfill step {t}: k {k} differs from the reference {k_opt}",
            )
        else:
            for name in ("critic_loss", "actor_loss"):
                loss = r[name]
                expect(loss is None or math.isfinite(loss), f"td3 step {t}: {name} {loss}")
    if policy == "sra":
        return None
    if policy == "optimal":
        u_opt = [optimal[tuple(ref.demands_at(*_schedule(env), t))][1] for t in range(1, len(records) + 1)]
        return statistics.fmean(r["U"] for r in records) / statistics.fmean(u_opt)
    expect(records[-1]["critic_loss"] is not None, "td3: the critic never trained")
    return _td3_quality(env, records, optimal)


def _td3_quality(env: dict, records: list[dict], optimal: dict) -> float:
    """Mean over regimes of the final-window greedy utility over that regime's optimum."""
    initial, changes = _schedule(env)
    bounds = [0, *sorted(changes), len(records)]
    ratios = []
    for start, end in zip(bounds, bounds[1:]):
        u_opt = optimal[tuple(ref.demands_at(initial, changes, end))][1]
        window = records[end - max(1, round((end - start) * FINAL_WINDOW)) : end]
        ratios.append(statistics.fmean(r["U_greedy"] for r in window) / u_opt)
    return statistics.fmean(ratios)


def _check_mec(part: Part, records: list[dict], seed: int) -> float:
    env, policy = part.config["env"], part.config["policy"]
    topology, arrivals = env["topology"], env["arrivals"]
    for t, r in enumerate(records, start=1):
        sizes, action = r["arrivals"], r["action"]
        expect(r["slot"] == t, f"{part.name}: record {t} is slot {r['slot']}")
        expect(
            all(lo <= s <= hi for s, lo, hi in zip(sizes, arrivals["low"], arrivals["high"])),
            f"{part.name} slot {t}: arrivals {sizes} outside the arrival model",
        )
        valid = ref.valid_choices(topology, sizes)
        expect(all(a in v for a, v in zip(action, valid)), f"{part.name} slot {t}: invalid action {action}")
        effective, latencies = ref.slot(topology, sizes, action)
        expect(r["effective"] == effective, f"{part.name} slot {t}: effective {r['effective']} != {effective}")
        for x, y in zip(r["L"], latencies):
            _close(x, y, f"{part.name} slot {t}: L")
        expect(r["L_max"] == max(r["L"]), f"{part.name} slot {t}: L_max is not max L")
        if r["phase"] == "eval":
            expect(r["L_opt"] <= r["L_max"] + 1e-12, f"dqn slot {t}: L_opt above L_max")
            expect(r["L_opt"] <= r["L_rra"] + 1e-12, f"dqn slot {t}: L_opt above L_rra")
    if policy == "optimal":
        solved, key = records, "L_max"
    else:
        solved, key = [r for r in records if r["phase"] == "eval"], "L_opt"
        expect(len(solved) == part.config["eval_slots"], "dqn: wrong number of eval slots")
    sample = random.Random(seed).sample(solved, MEC_SAMPLE)
    optima = [ref.optimum(topology, r["arrivals"])[0] for r in sample]
    for r, best in zip(sample, optima):
        _close(r[key], best, f"{part.name} slot {r['slot']}: {key} against the exhaustive search")
    if policy == "optimal":
        return statistics.fmean(optima) / statistics.fmean(r["L_max"] for r in sample)
    return statistics.fmean(r["L_opt"] for r in solved) / statistics.fmean(r["L_max"] for r in solved)


def quality(workload: str, qualities: list[float | None]) -> float:
    """The workload's policy_quality: the mean of its parts' ratios."""
    values = [q for q in qualities if q is not None]
    expect(bool(values), f"{workload}: no part scores a policy")
    return statistics.fmean(values)

