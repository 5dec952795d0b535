"""Bandwidth slicing: environment, score models, and closed-form baselines.

A budget ``B`` is split across ``I`` service slices each step. Actions live in
``[-1, 1]^I`` and are mapped to bandwidths that respect per-slice floors and
caps. Each slice earns a satisfaction score; the step reward is the product of
scores, so starving any slice collapses the objective.

Two score modes:

* ``analytic`` — a slice with allocation ``k`` against demand ``d`` scores
  ``(min(k, d)/d)**1.1 / c0``; demands may switch to a new vector at
  scheduled steps.
* ``emulated`` — scores come from simulated traffic
  (``(r + l0/l)**1.1 / c0 + f`` with per-step completions ``r``, mean latency
  ``l``, and a video-completion flag ``f``).

Baselines: ``water_fill_optimal`` maximizes the product of analytic scores
exactly (a common water level, interpolated between two kinks of the spend
curve, that spends the budget to a few ulps), ``sra`` is the static even split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from rlalloc.exceptions import (
    POSITIVE, POSITIVES, ConfigError, Rule, _vector, check_fields, config_dict, config_from_dict,
    nested, one_of, spec,
)
from rlalloc.traffic import ServiceProfile, SliceTraffic, StepStats

Array = np.ndarray

SCORE_EXPONENT = 1.1
MODES = ("analytic", "emulated")


def _demand_changes(name: str, changes: object) -> dict:
    """``demand_changes`` with integer steps (at least 1) and demand vectors."""
    if not isinstance(changes, dict):
        raise ConfigError(f"{name} must be an object, got {changes!r}", name)
    try:
        steps = [int(step) for step in changes]
    except (TypeError, ValueError):
        raise ConfigError(f"{name} keys must be integer steps, got {list(changes)}", name)
    if not all(step >= 1 for step in steps):
        raise ConfigError(f"{name} steps must be >= 1, got {steps}", name)
    return {step: _vector(f"demand change at step {step}", vec)
            for step, vec in zip(steps, changes.values())}


@dataclass
class SliceConfig:
    """Static description of a slicing scenario; each mode reads its own fields.

    ``demand_changes`` maps a 1-based step index ``c`` to a replacement demand
    vector; steps ``> c`` see the new demands (analytic mode only).
    """

    total_bandwidth: float = spec(POSITIVE)
    k_min: Array = spec(POSITIVES)  # sets the slice count I
    k_max: Array = spec(POSITIVES)
    ideal_scores: Array = spec(POSITIVES)
    demands: Array | None = spec(POSITIVES, None, reads="analytic")
    demand_changes: dict[int, Array] = spec(Rule(convert=_demand_changes), factory=dict,
                                            reads="analytic")
    mode: str = spec(one_of(MODES), "analytic")
    services: list[ServiceProfile] | None = spec(nested(ServiceProfile, many="service"), None,
                                                 reads="emulated")
    latency_weights: Array | None = spec(POSITIVES, None, reads="emulated")
    step_duration: float = spec(POSITIVE, 1.0, reads="emulated")

    @property
    def num_slices(self) -> int:
        return self.k_min.shape[0]

    def validate(self) -> None:
        """Check each field's rule, then the rules across fields."""
        i = check_fields(self, "mode")
        if not np.all((self.k_min <= self.k_max) & (self.k_max <= self.total_bandwidth + 1e-12)):
            raise ValueError("need k_min <= k_max <= total_bandwidth")
        if self.k_min.sum() > self.total_bandwidth + 1e-12:
            raise ValueError("sum of k_min exceeds the total_bandwidth: infeasible")
        regimes = {"demands": self.demands} if self.mode == "analytic" else {}
        regimes.update((f"demand change at step {s}", v) for s, v in self.demand_changes.items())
        for name, vec in regimes.items():
            if vec.shape != (i,) or not POSITIVES.test(vec):
                raise ValueError(f"{name} must be {i} positive values")
            # Every split's utility lies between these two.
            low, high = (math.prod(score_analytic(k, vec, self.ideal_scores))
                         for k in (self.k_min, self.k_max))
            if not 0 < low <= high < math.inf:
                raise ValueError(f"{name}, k_min, k_max and ideal_scores give a utility "
                                 f"outside (0, inf): from {low} to {high}")
        if self.mode == "emulated":  # an idle slice's score; a completion scores >= 1 / c0 > 0
            try:
                top = score_emulated([StepStats(0, self.step_duration, 0, 0.0, 0.0)] * i, self)
            except OverflowError:
                top = [math.inf]
            if not all([0.0 < v < math.inf for v in top]):  # NaN fails both comparisons
                raise ValueError("latency_weights, step_duration and ideal_scores give a latency "
                                 f"term (w / step_duration) ** 1.1 / c0 outside (0, inf): {top}")
            low = math.prod([min(v, 1.0 / c) for v, c in zip(top, self.ideal_scores.tolist())])
            if not low > 0.0:  # each slice's lowest score: every step's utility is >= low
                raise ValueError("latency_weights, step_duration and ideal_scores give a utility "
                                 f"that underflows: the product of min(term, 1 / c0) is {low}")

    __post_init__ = validate

    def demands_at(self, step: int) -> Array:
        """Demand vector in force at 1-based step ``step`` (analytic mode)."""
        if self.demands is None:
            raise ValueError("no demand vector: config is not in analytic mode")
        latest = None  # the largest change step before ``step``
        for change_step in self.demand_changes:
            if change_step < step and (latest is None or change_step > latest):
                latest = change_step
        return self.demands if latest is None else self.demand_changes[latest]

    to_dict = config_dict
    from_dict = classmethod(config_from_dict)


def default_analytic_config() -> SliceConfig:
    """Three-slice benchmark: B=1.5, floors 0.05*B, demand shift at step 4000."""
    return SliceConfig(
        total_bandwidth=1.5,
        k_min=np.full(3, 0.075),
        k_max=np.full(3, 1.5),
        ideal_scores=np.array([0.5, 0.5, 1.0]),
        demands=np.array([1.0, 1.0, 0.1]),
        demand_changes={4000: np.array([0.5, 1.5, 0.1])},
        mode="analytic",
    )


def default_emulated_config() -> SliceConfig:
    """Three-slice emulated demo: video / voice / chat services."""
    return SliceConfig(
        total_bandwidth=1.5,
        k_min=np.full(3, 0.075),
        k_max=np.full(3, 1.5),
        ideal_scores=np.array([2.0, 2.0, 2.0]),
        mode="emulated",
        services=[
            ServiceProfile.video(file_size=4.0, cycle_length=10, chunk_count=4),
            ServiceProfile.voice(packet_size=0.3),
            ServiceProfile.chat(mean_arrivals=2.0, size_min=0.05, size_max=0.15),
        ],
        latency_weights=np.array([2.0, 1.0, 1.0]),
    )


def map_action(action: Array, config: SliceConfig) -> Array:
    """Map an action in ``[-1, 1]^I`` to a bandwidth split.

    Each slice gets its floor plus a share of the residual budget proportional
    to ``action_i + 1``, capped at ``k_max``. When every component is -1 the
    residual is split evenly. Capping may leave budget unallocated; there is
    no redistribution pass.
    """
    a = np.asarray(action, dtype=float)
    i = config.num_slices
    if a.shape != (i,):
        raise ValueError(f"action must have shape ({i},), got {a.shape}")
    if not np.all(np.abs(a) <= 1.0 + 1e-9):  # NaN fails this too
        raise ValueError(f"action components must lie in [-1, 1], got {a}")
    a = np.clip(a, -1.0, 1.0)
    residual = config.total_bandwidth - config.k_min.sum()
    weights = a + 1.0
    denom = weights.sum()
    if denom <= 0.0:
        shares = np.full(i, residual / i)
    else:
        shares = residual * weights / denom
    return np.minimum(config.k_max, config.k_min + shares)


def score_analytic(allocation: Array, demands: Array, ideal_scores: Array) -> list[float]:
    """Demand-satisfaction scores ``(min(k, d)/d)**1.1 / c0``, on Python floats (libm ``pow``)."""
    k = np.asarray(allocation, dtype=float)
    d = np.asarray(demands, dtype=float)
    c0 = np.asarray(ideal_scores, dtype=float)
    if k.shape != d.shape or k.shape != c0.shape:
        raise ValueError(
            f"shape mismatch: allocation {k.shape}, demands {d.shape}, ideal {c0.shape}"
        )
    k, d, c0 = k.tolist(), d.tolist(), c0.tolist()
    if not all([0.0 < v < math.inf for v in d]):  # NaN fails both comparisons
        raise ValueError("demands must be positive and finite")
    if not all([v >= 0.0 for v in k]):  # lists: cheaper than generators at this length
        raise ValueError("allocations must be non-negative")
    return [(min(x, y) / y) ** SCORE_EXPONENT / c for x, y, c in zip(k, d, c0)]


def score_emulated(stats: list[StepStats], config: SliceConfig) -> list[float]:
    """Scores ``(r + w/l)**1.1 / c0 + f`` from a step's ``StepStats``, on Python floats."""
    if config.latency_weights is None:
        raise ValueError("config has no latency_weights: not an emulated-mode config")
    return [(s.completed + w / s.mean_latency) ** SCORE_EXPONENT / c + s.video_flag
            for s, w, c in zip(stats, config.latency_weights.tolist(),
                               config.ideal_scores.tolist(), strict=True)]


def utility(scores: Array) -> float:
    """Product of per-slice scores (the step reward), left to right on Python floats."""
    c = list(map(float, scores))
    if any(v <= 0.0 for v in c):
        warnings.warn("non-positive slice score: utility loses its product meaning")
    product = 1.0
    for v in c:
        product *= v
    return product


def water_fill_optimal(demands: Array, config: SliceConfig) -> Array:
    """Allocation maximizing the product of analytic scores.

    Every slice gets a common level ``nu`` clipped to its floor and its useful top
    ``clip(d_i, k_min_i, k_max_i)``; tops that fit in the budget are returned as they
    are. Otherwise the spend, piecewise linear in ``nu`` with kinks at the floors and
    tops (Boyd & Vandenberghe §5.5.3), is evaluated at every kink, and ``nu`` is
    interpolated between the two kinks around ``B``: the split spends ``B`` to a few ulps.
    """
    d = np.asarray(demands, dtype=float)
    i = config.num_slices
    if d.shape != (i,):
        raise ValueError(f"demands must have shape ({i},), got {d.shape}")
    if not POSITIVES.test(d):
        raise ValueError("demands must be positive and finite")
    b = config.total_bandwidth
    top = np.clip(d, config.k_min, config.k_max)
    if top.sum() <= b:
        return top
    kinks = np.concatenate((config.k_min, top))
    spend = np.clip(kinks[:, None], config.k_min, top).sum(axis=1)
    reach = spend >= b
    if reach.all():  # the floors alone spend B
        return config.k_min.copy()
    # No kink lies between these two, so the spend is linear from one to the other.
    lo, hi = kinks[~reach].max(), kinks[reach].min()
    s_lo, s_hi = spend[~reach].max(), spend[reach].min()
    nu = lo + (b - s_lo) * (hi - lo) / (s_hi - s_lo)
    return np.clip(nu, config.k_min, top)


def sra(config: SliceConfig) -> Array:
    """Static even split ``B/I`` per slice; rejects configs where that violates a bound."""
    share = config.total_bandwidth / config.num_slices
    k = np.full(config.num_slices, share)
    if np.any(k < config.k_min - 1e-12) or np.any(k > config.k_max + 1e-12):
        raise ConfigError(f"even share {share} of total_bandwidth violates per-slice bounds "
                          "k_min/k_max")
    return k


class SlicingEnv:
    """Step-by-step slicing environment over either score mode.

    Observations are flat vectors of per-slice triples ``(o, l, d)``:
    previous allocation over ``B``, normalized mean latency (0 in analytic
    mode), and normalized demand. Steps are 1-based.
    """

    def __init__(self, config: SliceConfig, rng: np.random.Generator | int | None = None):
        config.validate()
        self.config = config
        self._rng = np.random.default_rng(rng)
        self._step_count: int | None = None  # None until reset()
        self._traffic: list[SliceTraffic] | None = None

    @property
    def num_slices(self) -> int:
        return self.config.num_slices

    @property
    def observation_dim(self) -> int:
        return 3 * self.config.num_slices

    def _observation(
        self, split: list[float], latencies: list[float], demand_obs: list[float]
    ) -> Array:
        obs = [0.0] * (3 * self.config.num_slices)  # per-slice (o, l, d) triples
        b = self.config.total_bandwidth
        obs[0::3] = [k / b for k in split]
        obs[1::3] = latencies
        obs[2::3] = demand_obs
        return np.array(obs)

    def reset(self) -> Array:
        cfg = self.config
        i = cfg.num_slices
        b = cfg.total_bandwidth
        self._step_count = 0
        if cfg.mode == "emulated":
            self._traffic = [SliceTraffic(p, cfg.step_duration) for p in cfg.services]
            latencies = [cfg.step_duration / w for w in cfg.latency_weights.tolist()]
            demand_obs = [0.0] * i
        else:
            self._traffic = None
            latencies = [0.0] * i
            demand_obs = [d / b for d in cfg.demands_at(1).tolist()]
        return self._observation([b / i] * i, latencies, demand_obs)

    def step(self, action: Array) -> tuple[Array, float, dict]:
        """Apply an action in ``[-1, 1]^I``; returns (obs, utility, info)."""
        return self.step_allocation(map_action(action, self.config))

    def step_allocation(self, allocation: Array) -> tuple[Array, float, dict]:
        """Apply a bandwidth split directly (used by the closed-form baselines).

        The scores come from ``score_analytic`` or ``score_emulated`` and the reward from
        ``utility``. The step reads the split, the demands and the traffic measurements
        as Python floats, which costs less than a NumPy call on a vector this short.
        """
        if self._step_count is None:
            raise RuntimeError("call reset() before stepping the environment")
        cfg = self.config
        k = np.asarray(allocation, dtype=float)
        if k.shape != (cfg.num_slices,):
            raise ValueError(f"allocation must have shape ({cfg.num_slices},), got {k.shape}")
        split = k.tolist()
        if not all(0.0 <= x < math.inf for x in split):  # NaN fails both comparisons
            raise ValueError("allocations must be non-negative and finite")
        b = cfg.total_bandwidth
        t = self._step_count + 1
        if cfg.mode == "analytic":
            scores = score_analytic(k, cfg.demands_at(t), cfg.ideal_scores)
            latencies = [0.0] * cfg.num_slices
            demand_obs = [d / b for d in cfg.demands_at(t + 1).tolist()]
            info = {"k": k, "scores": scores}
        else:
            stats = [tr.advance(t - 1, x, self._rng) for tr, x in zip(self._traffic, split)]
            scores = score_emulated(stats, cfg)
            latencies = [s.mean_latency / w for s, w in zip(stats, cfg.latency_weights.tolist())]
            scale = b * cfg.step_duration
            demand_obs = [s.arrived / scale for s in stats]
            info = {"k": k, "scores": scores, "stats": stats}
        reward = utility(scores)
        self._step_count = t
        return self._observation(split, latencies, demand_obs), reward, info
