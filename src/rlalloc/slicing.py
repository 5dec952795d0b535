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
from dataclasses import dataclass, field

import numpy as np

from rlalloc.exceptions import ConfigError, _vector, config_dict, is_real
from rlalloc.traffic import ServiceProfile, SliceTraffic

Array = np.ndarray

# Scores raise an ndarray to this power, never a Python float: NumPy's SIMD ``power`` and
# float ``**`` round differently on about 5 % of float64 inputs, and the outputs keep
# NumPy's bits.
SCORE_EXPONENT = 1.1
MODES = ("analytic", "emulated")


def _positive(values: Array) -> bool:
    """Whether every entry is positive and finite (NaN is neither)."""
    return bool(np.all((values > 0) & (values < np.inf)))


@dataclass
class SliceConfig:
    """Static description of a slicing scenario.

    ``demand_changes`` maps a 1-based step index ``c`` to a replacement demand
    vector; steps ``> c`` see the new demands (analytic mode only).
    """

    total_bandwidth: float
    k_min: Array
    k_max: Array
    ideal_scores: Array
    demands: Array | None = None
    demand_changes: dict[int, Array] = field(default_factory=dict)
    mode: str = "analytic"
    services: list[ServiceProfile] | None = None
    latency_weights: Array | None = None
    step_duration: float = 1.0

    def __post_init__(self) -> None:
        self.k_min = _vector("k_min", self.k_min)
        self.k_max = _vector("k_max", self.k_max)
        self.ideal_scores = _vector("ideal_scores", self.ideal_scores)
        if self.demands is not None:
            self.demands = _vector("demands", self.demands)
        if not isinstance(self.demand_changes, dict):
            raise ValueError(f"demand_changes must be an object, got {self.demand_changes!r}")
        try:
            steps = [int(step) for step in self.demand_changes]
        except (TypeError, ValueError):
            keys = list(self.demand_changes)
            raise ValueError(f"demand_changes keys must be integer steps, got {keys}")
        self.demand_changes = {
            step: _vector(f"demand change at step {step}", vec)
            for step, vec in zip(steps, self.demand_changes.values())
        }
        if self.latency_weights is not None:
            self.latency_weights = _vector("latency_weights", self.latency_weights)

    @property
    def num_slices(self) -> int:
        return self.k_min.shape[0]

    def validate(self) -> None:
        # Written as "not (good)" so that NaN, which fails every comparison, fails too.
        i = self.num_slices
        if i < 1:
            raise ValueError("need at least one slice")
        if not (is_real(self.total_bandwidth) and 0 < self.total_bandwidth < np.inf):
            raise ValueError(f"total_bandwidth must be positive, got {self.total_bandwidth!r}")
        for name, arr in (("k_max", self.k_max), ("ideal_scores", self.ideal_scores)):
            if arr.shape != (i,):
                raise ValueError(f"{name} must have shape ({i},), got {arr.shape}")
        if not np.all(self.k_min > 0):
            raise ValueError("k_min entries must be positive")
        if not np.all(self.k_min <= self.k_max):
            raise ValueError("k_min must not exceed k_max")
        if not np.all(self.k_max <= self.total_bandwidth + 1e-12):
            raise ValueError("k_max must not exceed the total bandwidth")
        if self.k_min.sum() > self.total_bandwidth + 1e-12:
            raise ValueError("sum of k_min exceeds the total bandwidth: infeasible")
        if not _positive(self.ideal_scores):
            raise ValueError("ideal_scores must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (is_real(self.step_duration) and 0 < self.step_duration < np.inf):
            raise ValueError(f"step_duration must be positive, got {self.step_duration!r}")
        if self.mode == "analytic":
            if self.demands is None or self.demands.shape != (i,):
                raise ValueError(f"analytic mode needs a demand vector of shape ({i},)")
            if not _positive(self.demands):
                raise ValueError("demands must be positive and finite")
            for step, vec in self.demand_changes.items():
                if step < 1:
                    raise ValueError(f"demand-change step must be >= 1, got {step}")
                if vec.shape != (i,) or not _positive(vec):
                    raise ValueError(f"demand change at step {step} must be {i} positive values")
            unread = {
                "services": self.services is not None,
                "latency_weights": self.latency_weights is not None,
                "step_duration": self.step_duration != 1.0,
            }
        else:
            if self.services is None or len(self.services) != i:
                raise ValueError(f"emulated mode needs one service profile per slice ({i})")
            if self.latency_weights is None or self.latency_weights.shape != (i,):
                raise ValueError(f"emulated mode needs latency_weights of shape ({i},)")
            if not _positive(self.latency_weights):
                raise ValueError("latency_weights must be positive and finite")
            unread = {"demands": self.demands is not None, "demand_changes": self.demand_changes}
        for name, given in unread.items():
            if given:
                raise ValueError(f"{self.mode} mode does not read {name!r}; remove it")

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

    @classmethod
    def from_dict(cls, payload: dict) -> "SliceConfig":
        fields = dict(payload)
        services = fields.get("services")
        if services is not None:
            if not (isinstance(services, list) and all(isinstance(s, dict) for s in services)):
                raise ValueError(f"services must be a list of service objects, got {services!r}")
            fields["services"] = [ServiceProfile.from_dict(s) for s in services]
        config = cls(**fields)
        config.validate()
        return config


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


def score_analytic(allocation: Array, demands: Array, ideal_scores: Array) -> Array:
    """Demand-satisfaction scores ``(min(k, d)/d)**1.1 / c0``."""
    k = np.asarray(allocation, dtype=float)
    d = np.asarray(demands, dtype=float)
    c0 = np.asarray(ideal_scores, dtype=float)
    if k.shape != d.shape or k.shape != c0.shape:
        raise ValueError(
            f"shape mismatch: allocation {k.shape}, demands {d.shape}, ideal {c0.shape}"
        )
    if not _positive(d):
        raise ValueError("demands must be positive and finite")
    if not (k >= 0).all():  # NaN fails this comparison too
        raise ValueError("allocations must be non-negative")
    return (np.minimum(k, d) / d) ** SCORE_EXPONENT / c0


def score_emulated(completed: Array, latency: Array, video_flag: Array, config: SliceConfig) -> Array:
    """Traffic-driven scores ``(r + l0/l)**1.1 / c0 + f`` from per-slice measurements."""
    r = np.asarray(completed, dtype=float)
    l = np.asarray(latency, dtype=float)
    f = np.asarray(video_flag, dtype=float)
    if config.latency_weights is None:
        raise ValueError("config has no latency_weights: not an emulated-mode config")
    if (r < 0).any():
        raise ValueError("completion counts must be non-negative")
    if (l <= 0).any():
        raise ValueError("latencies must be positive")
    return (r + config.latency_weights / l) ** SCORE_EXPONENT / config.ideal_scores + f


def utility(scores: Array) -> float:
    """Product of per-slice scores (the step reward).

    Fewer than eight scores are multiplied left to right as Python floats, which gives
    ``np.prod``'s bits without its per-call cost; longer vectors go to ``np.prod``.
    """
    c = np.asarray(scores, dtype=float).ravel().tolist()
    if any(v <= 0.0 for v in c):
        warnings.warn("non-positive slice score: utility loses its product meaning")
    if len(c) >= 8:
        return float(np.prod(c))
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
    if not _positive(d):
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
        raise ConfigError(f"even share {share} violates per-slice bounds")
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
        self._step_count = 0
        self._prev_allocation: list[float] | None = None
        self._traffic: list[SliceTraffic] | None = None
        self._last_obs: Array | None = None

    @property
    def num_slices(self) -> int:
        return self.config.num_slices

    @property
    def observation_dim(self) -> int:
        return 3 * self.config.num_slices

    @property
    def step_count(self) -> int:
        return self._step_count

    def _observation(self, latencies: list[float], demand_obs: list[float]) -> Array:
        obs = [0.0] * (3 * self.config.num_slices)  # per-slice (o, l, d) triples
        b = self.config.total_bandwidth
        obs[0::3] = [k / b for k in self._prev_allocation]
        obs[1::3] = latencies
        obs[2::3] = demand_obs
        return np.array(obs)

    def reset(self) -> Array:
        cfg = self.config
        i = cfg.num_slices
        b = cfg.total_bandwidth
        self._step_count = 0
        self._prev_allocation = [b / i] * i
        if cfg.mode == "emulated":
            self._traffic = [SliceTraffic(p, cfg.step_duration) for p in cfg.services]
            latencies = [cfg.step_duration / w for w in cfg.latency_weights.tolist()]
            demand_obs = [0.0] * i
        else:
            self._traffic = None
            latencies = [0.0] * i
            demand_obs = [d / b for d in cfg.demands_at(1).tolist()]
        self._last_obs = self._observation(latencies, demand_obs)
        return self._last_obs

    def step(self, action: Array) -> tuple[Array, float, dict]:
        """Apply an action in ``[-1, 1]^I``; returns (obs, utility, info)."""
        return self.step_allocation(map_action(action, self.config))

    def step_allocation(self, allocation: Array) -> tuple[Array, float, dict]:
        """Apply a bandwidth split directly (used by the closed-form baselines).

        The scores and the reward are those of ``score_analytic`` or ``score_emulated``
        and ``utility``, bit for bit. Everything but the power reads the split, the
        demands and the traffic measurements as Python floats, which costs less than a
        NumPy call on a vector this short; the power stays an ndarray operation (see
        ``SCORE_EXPONENT``).
        """
        if self._last_obs is None:
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
            demands_now = cfg.demands_at(t)
            served = [min(x, d) / d for x, d in zip(split, demands_now.tolist())]
            scores = np.array(served) ** SCORE_EXPONENT / cfg.ideal_scores
            latencies = [0.0] * cfg.num_slices
            demand_obs = [d / b for d in cfg.demands_at(t + 1).tolist()]
            info = {"k": k, "scores": scores, "demands": demands_now}
        else:
            stats = [tr.advance(x, self._rng) for tr, x in zip(self._traffic, split)]
            weights = cfg.latency_weights.tolist()
            base = [s.completed + w / s.mean_latency for s, w in zip(stats, weights)]
            # Float flags: adding ints would cast through NumPy's 64 KiB buffer, a peak-RSS cost.
            flags = np.array([s.video_flag for s in stats], dtype=float)
            scores = np.array(base) ** SCORE_EXPONENT / cfg.ideal_scores + flags
            latencies = [s.mean_latency / w for s, w in zip(stats, weights)]
            scale = b * cfg.step_duration
            demand_obs = [s.arrived / scale for s in stats]
            info = {"k": k, "scores": scores, "stats": stats}
        reward = utility(scores)
        self._prev_allocation = split
        self._step_count = t
        self._last_obs = obs = self._observation(latencies, demand_obs)
        return obs, reward, info
