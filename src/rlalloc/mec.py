"""Edge task offloading: environment, latency models, and baselines.

Each slot, server ``i`` receives ``S_i`` units of task data. Within a slot of
length ``tau`` it can process ``tau * C_i / v`` units locally (``C_i`` cycles
per second, ``v`` cycles per unit of data); the remainder is *overflow* that
must go either to the operator core or to one neighboring edge server.

Per-server latency for the slot:

* no overflow — ``v * S_i / C_i`` (pure local compute);
* overflow to core — ``tau + overflow / core_rate``;
* overflow to neighbor ``j`` — ``tau + overflow / R_ij + v * overflow / C_j``.

A target accepts at most one offload per slot, only if it has no overflow of
its own and can finish the extra work within the slot
(``v * overflow <= tau * C_j - v * S_j``); among competing feasible requests
the largest overflow wins, ties break toward the lowest source index. Rejected
requests fall back to the core. The system metric is ``L(t) = max_i L_i``.

Baselines: ``brute_force_optimal`` scans every valid joint action for one
slot; ``random_routing`` picks uniformly among each server's valid choices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

NOOP = -2  # no overflow this slot: nothing to decide
CORE = -1  # send overflow to the operator core

ENUMERATION_CEILING = 1_000_000


def latency_local(size: float, capacity: float, cycles_per_bit: float) -> float:
    """Compute-only latency when everything fits locally."""
    if size < 0:
        raise ValueError(f"task size must be non-negative, got {size}")
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    return cycles_per_bit * size / capacity


def latency_core(overflow: float, tau: float, core_rate: float) -> float:
    """Latency when overflow is shipped to the core."""
    if overflow < 0:
        raise ValueError(f"overflow must be non-negative, got {overflow}")
    if core_rate <= 0:
        raise ValueError(f"core_rate must be positive, got {core_rate}")
    return tau + overflow / core_rate


def latency_offload(
    overflow: float, tau: float, link_rate: float, target_capacity: float, cycles_per_bit: float
) -> float:
    """Latency when overflow is shipped to a neighboring server."""
    if overflow < 0:
        raise ValueError(f"overflow must be non-negative, got {overflow}")
    if link_rate <= 0:
        raise ValueError(f"link_rate must be positive, got {link_rate}")
    return tau + overflow / link_rate + cycles_per_bit * overflow / target_capacity


@dataclass
class EdgeTopology:
    """Servers, adjacency, and rate constants for one deployment."""

    capacities: Array
    neighbors: tuple[tuple[int, ...], ...]
    link_rates: Array  # (I, I); entry (i, j) used when i offloads to j
    core_rate: float
    tau: float
    cycles_per_bit: float

    def __post_init__(self) -> None:
        self.capacities = np.asarray(self.capacities, dtype=float)
        self.neighbors = tuple(tuple(sorted(int(j) for j in ns)) for ns in self.neighbors)
        self.link_rates = np.asarray(self.link_rates, dtype=float)

    @property
    def num_servers(self) -> int:
        return self.capacities.shape[0]

    def validate(self) -> None:
        i = self.num_servers
        if i < 1:
            raise ValueError("need at least one server")
        if np.any(self.capacities <= 0):
            raise ValueError("capacities must be positive")
        if len(self.neighbors) != i:
            raise ValueError(f"need one neighbor list per server ({i})")
        if self.link_rates.shape != (i, i):
            raise ValueError(f"link_rates must have shape ({i}, {i})")
        if not (self.core_rate > 0 and self.tau > 0 and self.cycles_per_bit > 0):
            raise ValueError("core_rate, tau, and cycles_per_bit must be positive")
        for a, ns in enumerate(self.neighbors):
            for b in ns:
                if not 0 <= b < i:
                    raise ValueError(f"server {a} lists unknown neighbor {b}")
                if b == a:
                    raise ValueError(f"server {a} lists itself as a neighbor")
                if a not in self.neighbors[b]:
                    raise ValueError(f"adjacency is not symmetric: {a}->{b}")
                if self.link_rates[a, b] <= 0:
                    raise ValueError(f"link rate for neighbors {a}->{b} must be positive")

    def slot_capacity(self) -> Array:
        """Data each server can process within one slot."""
        return self.tau * self.capacities / self.cycles_per_bit

    def to_dict(self) -> dict:
        return {
            "capacities": self.capacities.tolist(),
            "neighbors": [list(ns) for ns in self.neighbors],
            "link_rates": self.link_rates.tolist(),
            "core_rate": self.core_rate,
            "tau": self.tau,
            "cycles_per_bit": self.cycles_per_bit,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EdgeTopology":
        neighbors = tuple(tuple(ns) for ns in payload["neighbors"])
        if "link_rates" in payload:
            link_rates = np.asarray(payload["link_rates"], dtype=float)
        else:
            rate = float(payload["link_rate"])
            n = len(payload["capacities"])
            link_rates = np.zeros((n, n))
            for a, ns in enumerate(neighbors):
                for b in ns:
                    link_rates[a, b] = rate
        topo = cls(
            capacities=payload["capacities"],
            neighbors=neighbors,
            link_rates=link_rates,
            core_rate=payload["core_rate"],
            tau=payload["tau"],
            cycles_per_bit=payload["cycles_per_bit"],
        )
        topo.validate()
        return topo


@dataclass
class ArrivalModel:
    """Per-slot task-data arrivals: fixed vector or independent uniform draws."""

    kind: str
    sizes: Array | None = None  # fixed
    low: Array | None = None  # uniform
    high: Array | None = None  # uniform

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform"):
            raise ValueError(f"arrival kind must be 'fixed' or 'uniform', got {self.kind!r}")
        if self.kind == "fixed":
            if self.sizes is None:
                raise ValueError("fixed arrivals need a sizes vector")
            self.sizes = np.asarray(self.sizes, dtype=float)
            if np.any(self.sizes < 0):
                raise ValueError("arrival sizes must be non-negative")
        else:
            if self.low is None or self.high is None:
                raise ValueError("uniform arrivals need low and high vectors")
            self.low = np.asarray(self.low, dtype=float)
            self.high = np.asarray(self.high, dtype=float)
            if self.low.shape != self.high.shape:
                raise ValueError("low and high must have matching shapes")
            if np.any(self.low < 0) or np.any(self.high < self.low):
                raise ValueError("need 0 <= low <= high")

    @property
    def num_servers(self) -> int:
        return (self.sizes if self.kind == "fixed" else self.low).shape[0]

    def draw(self, rng: np.random.Generator) -> Array:
        if self.kind == "fixed":
            return self.sizes.copy()
        return rng.uniform(self.low, self.high)

    def max_sizes(self) -> Array:
        """Upper bound of the arrival support, per server."""
        return self.sizes.copy() if self.kind == "fixed" else self.high.copy()

    def to_dict(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "sizes": self.sizes.tolist()}
        return {"kind": "uniform", "low": self.low.tolist(), "high": self.high.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ArrivalModel":
        if payload["kind"] == "fixed":
            return cls("fixed", sizes=payload["sizes"])
        return cls("uniform", low=payload["low"], high=payload["high"])


@dataclass
class MecConfig:
    """Topology plus arrival process (and an optional latency normalizer)."""

    topology: EdgeTopology
    arrivals: ArrivalModel
    latency_ref: float | None = None

    def validate(self) -> None:
        self.topology.validate()
        if self.arrivals.num_servers != self.topology.num_servers:
            raise ValueError(
                f"arrival model covers {self.arrivals.num_servers} servers, "
                f"topology has {self.topology.num_servers}"
            )
        if self.latency_ref is not None and self.latency_ref <= 0:
            raise ValueError("latency_ref must be positive")

    def resolved_latency_ref(self) -> float:
        """Normalizer for latency observations: an upper bound on any L_i."""
        if self.latency_ref is not None:
            return self.latency_ref
        topo = self.topology
        rates = [topo.core_rate]
        for a, ns in enumerate(topo.neighbors):
            rates.extend(topo.link_rates[a, b] for b in ns)
        max_s = float(self.arrivals.max_sizes().max())
        return 2.0 * topo.tau + max_s / min(rates)

    def to_dict(self) -> dict:
        payload = {"topology": self.topology.to_dict(), "arrivals": self.arrivals.to_dict()}
        if self.latency_ref is not None:
            payload["latency_ref"] = self.latency_ref
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MecConfig":
        config = cls(
            topology=EdgeTopology.from_dict(payload["topology"]),
            arrivals=ArrivalModel.from_dict(payload["arrivals"]),
            latency_ref=payload.get("latency_ref"),
        )
        config.validate()
        return config


def default_mec_config() -> MecConfig:
    """Seven-server two-area deployment.

    Area A (servers 0, 2, 3, 6) sees heavy arrivals U[8, 30]; area B (servers
    1, 4, 5) light arrivals U[2, 10]. Low-power servers (C=1000) sit at
    indices 0, 1, 3, 5; high-power ones (C=3000) at 2, 4, 6. Each area is a
    complete graph and servers 2 and 4 bridge the areas, so server 2 has four
    neighbors. All link rates and the core rate are 150.
    """
    neighbors = (
        (2, 3, 6),
        (4, 5),
        (0, 3, 4, 6),
        (0, 2, 6),
        (1, 2, 5),
        (1, 4),
        (0, 2, 3),
    )
    n = 7
    link_rates = np.zeros((n, n))
    for a, ns in enumerate(neighbors):
        for b in ns:
            link_rates[a, b] = 150.0
    topology = EdgeTopology(
        capacities=np.array([1000.0, 1000.0, 3000.0, 1000.0, 3000.0, 1000.0, 3000.0]),
        neighbors=neighbors,
        link_rates=link_rates,
        core_rate=150.0,
        tau=0.1,
        cycles_per_bit=10.0,
    )
    arrivals = ArrivalModel(
        "uniform",
        low=np.array([8.0, 2.0, 8.0, 8.0, 2.0, 2.0, 8.0]),
        high=np.array([30.0, 10.0, 30.0, 30.0, 10.0, 10.0, 30.0]),
    )
    return MecConfig(topology=topology, arrivals=arrivals)


def small_contention_config() -> MecConfig:
    """Four-server instance with fixed arrivals where offloading pays off.

    Servers 0 and 1 overflow every slot (arrivals 24 and 18 against slot
    capacities 10); server 2 (C=2000) can absorb server 1's overflow, server 3
    (C=3000) can absorb either but only one per slot. Fast inter-server links
    (500) against a slow core (100) make routing decisions matter.
    """
    n = 4
    neighbors = tuple(tuple(j for j in range(n) if j != i) for i in range(n))
    link_rates = np.full((n, n), 500.0)
    np.fill_diagonal(link_rates, 0.0)
    topology = EdgeTopology(
        capacities=np.array([1000.0, 1000.0, 2000.0, 3000.0]),
        neighbors=neighbors,
        link_rates=link_rates,
        core_rate=100.0,
        tau=0.1,
        cycles_per_bit=10.0,
    )
    arrivals = ArrivalModel("fixed", sizes=np.array([24.0, 18.0, 8.0, 6.0]))
    return MecConfig(topology=topology, arrivals=arrivals)


@dataclass
class SlotOutcome:
    """What actually happened in one slot."""

    latencies: Array
    effective: tuple[int, ...]  # post-contention choices actually executed
    requested: tuple[int, ...]  # choices as submitted (after no-op coercion)
    accepted: dict[int, int]  # target -> accepted source
    overflow: Array

    @property
    def l_max(self) -> float:
        return float(self.latencies.max())


def evaluate_action(
    topology: EdgeTopology, arrival_sizes: Array, choices: tuple[int, ...] | list[int]
) -> SlotOutcome:
    """Resolve one slot: validity, contention, and per-server latencies.

    ``choices[i]`` is ``NOOP``, ``CORE``, or a neighbor id. Servers without
    overflow are coerced to ``NOOP`` whatever was submitted; servers with
    overflow must submit ``CORE`` or one of their neighbors.
    """
    n = topology.num_servers
    sizes = np.asarray(arrival_sizes, dtype=float)
    if sizes.shape != (n,):
        raise ValueError(f"arrival_sizes must have shape ({n},), got {sizes.shape}")
    if len(choices) != n:
        raise ValueError(f"need one choice per server ({n}), got {len(choices)}")
    slot_cap = topology.slot_capacity()
    overflow = np.maximum(0.0, sizes - slot_cap)

    requested: list[int] = []
    for i, raw in enumerate(choices):
        c = int(raw)
        if overflow[i] == 0.0:
            requested.append(NOOP)
            continue
        if c == NOOP:
            raise ValueError(f"server {i} has overflow; no-op is not a valid choice")
        if c != CORE and c not in topology.neighbors[i]:
            raise ValueError(f"server {i} cannot offload to {c}: not core or a neighbor")
        requested.append(c)

    # Contention: a target accepts at most one request per slot, only when it
    # has no overflow of its own and can finish the extra work inside the slot.
    accepted: dict[int, int] = {}
    by_target: dict[int, list[int]] = {}
    for i, c in enumerate(requested):
        if c >= 0:
            by_target.setdefault(c, []).append(i)
    for target, sources in by_target.items():
        if overflow[target] > 0.0:
            continue
        spare = topology.tau * topology.capacities[target] - topology.cycles_per_bit * sizes[target]
        feasible = [
            i for i in sources if topology.cycles_per_bit * overflow[i] <= spare + 1e-12
        ]
        if not feasible:
            continue
        winner = max(feasible, key=lambda i: (overflow[i], -i))
        accepted[target] = winner

    effective: list[int] = []
    for i, c in enumerate(requested):
        if c >= 0 and accepted.get(c) != i:
            effective.append(CORE)
        else:
            effective.append(c)

    latencies = np.empty(n)
    for i in range(n):
        if overflow[i] == 0.0:
            latencies[i] = latency_local(sizes[i], topology.capacities[i], topology.cycles_per_bit)
        elif effective[i] == CORE:
            latencies[i] = latency_core(overflow[i], topology.tau, topology.core_rate)
        else:
            j = effective[i]
            latencies[i] = latency_offload(
                overflow[i],
                topology.tau,
                topology.link_rates[i, j],
                topology.capacities[j],
                topology.cycles_per_bit,
            )
    return SlotOutcome(
        latencies=latencies,
        effective=tuple(effective),
        requested=tuple(requested),
        accepted=accepted,
        overflow=overflow,
    )


def _per_server_options(
    topology: EdgeTopology, overflowing: np.ndarray | list[bool]
) -> list[list[int]]:
    options: list[list[int]] = []
    for i, over in enumerate(overflowing):
        if over:
            options.append([CORE] + list(topology.neighbors[i]))
        else:
            options.append([NOOP])
    return options


def _checked_product(options: list[list[int]]) -> list[tuple[int, ...]]:
    count = math.prod(len(o) for o in options)
    if count > ENUMERATION_CEILING:
        raise ValueError(
            f"joint action space has {count} entries (> {ENUMERATION_CEILING}); "
            "this instance is too large to enumerate — reduce servers or neighbors"
        )
    return list(itertools.product(*options))


def enumerate_valid_actions(
    topology: EdgeTopology, arrival_sizes: Array
) -> list[tuple[int, ...]]:
    """All valid joint choices for one slot, in lexicographic order."""
    slot_cap = topology.slot_capacity()
    sizes = np.asarray(arrival_sizes, dtype=float)
    return _checked_product(_per_server_options(topology, sizes > slot_cap))


def action_catalog(config: MecConfig) -> list[tuple[int, ...]]:
    """Static joint-action list covering every arrival the model can produce.

    Servers whose arrival support can exceed the slot capacity contribute
    ``[CORE] + neighbors``; the rest are pinned to ``NOOP``. Every per-slot
    valid action appears in this catalog (no-op coercion bridges the gap when
    a can-overflow server happens to be idle).
    """
    config.validate()
    slot_cap = config.topology.slot_capacity()
    can_overflow = config.arrivals.max_sizes() > slot_cap
    return _checked_product(_per_server_options(config.topology, can_overflow))


def brute_force_optimal(
    topology: EdgeTopology, arrival_sizes: Array
) -> tuple[tuple[int, ...], SlotOutcome]:
    """Exhaustive search for the joint choice minimizing the worst latency.

    Ties resolve to the lexicographically first action.
    """
    best_action: tuple[int, ...] | None = None
    best: SlotOutcome | None = None
    for action in enumerate_valid_actions(topology, arrival_sizes):
        outcome = evaluate_action(topology, arrival_sizes, action)
        if best is None or outcome.l_max < best.l_max:
            best_action, best = action, outcome
    assert best_action is not None and best is not None
    return best_action, best


def random_routing(
    topology: EdgeTopology, arrival_sizes: Array, rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniform random valid choice per server (the random baseline)."""
    slot_cap = topology.slot_capacity()
    sizes = np.asarray(arrival_sizes, dtype=float)
    options = _per_server_options(topology, sizes > slot_cap)
    return tuple(opts[rng.integers(0, len(opts))] for opts in options)


class MecEnv:
    """Slot-by-slot offloading environment.

    Observations concatenate, per server, the previous slot's latency (scaled
    by the latency normalizer, clipped to [0, 1]) and a one-hot of the
    previous *effective* choice over ``[CORE] + neighbors + [NOOP]``. Slots
    are 1-based.
    """

    def __init__(self, config: MecConfig, rng: np.random.Generator | int | None = None):
        config.validate()
        self.config = config
        self.topology = config.topology
        self._rng = np.random.default_rng(rng)
        self._latency_ref = config.resolved_latency_ref()
        self._slot_count = 0
        self._arrivals: Array | None = None
        self._prev_latencies: Array | None = None
        self._prev_effective: tuple[int, ...] | None = None
        slots = []
        offset = 0
        for i in range(self.topology.num_servers):
            width = 1 + (2 + len(self.topology.neighbors[i]))
            slots.append(offset)
            offset += width
        self._obs_dim = offset

    @property
    def num_servers(self) -> int:
        return self.topology.num_servers

    @property
    def observation_dim(self) -> int:
        return self._obs_dim

    @property
    def slot_count(self) -> int:
        return self._slot_count

    @property
    def current_arrivals(self) -> Array:
        if self._arrivals is None:
            raise RuntimeError("call reset() before reading arrivals")
        return self._arrivals

    def _choice_onehot(self, server: int, choice: int) -> Array:
        slots = [CORE] + list(self.topology.neighbors[server]) + [NOOP]
        vec = np.zeros(len(slots))
        vec[slots.index(choice)] = 1.0
        return vec

    def _observation(self) -> Array:
        parts = []
        for i in range(self.num_servers):
            lat = np.clip(self._prev_latencies[i] / self._latency_ref, 0.0, 1.0)
            parts.append(np.concatenate([[lat], self._choice_onehot(i, self._prev_effective[i])]))
        return np.concatenate(parts)

    def reset(self) -> Array:
        self._slot_count = 0
        self._prev_latencies = np.zeros(self.num_servers)
        self._prev_effective = tuple(NOOP for _ in range(self.num_servers))
        self._arrivals = self.config.arrivals.draw(self._rng)
        return self._observation()

    def step(self, choices: tuple[int, ...] | list[int]) -> tuple[Array, Array, float, dict]:
        """Execute one slot; returns (obs, per-server latencies, L_max, info)."""
        if self._arrivals is None:
            raise RuntimeError("call reset() before stepping the environment")
        outcome = evaluate_action(self.topology, self._arrivals, choices)
        self._slot_count += 1
        info = {
            "arrivals": self._arrivals.copy(),
            "requested": outcome.requested,
            "effective": outcome.effective,
            "accepted": dict(outcome.accepted),
            "overflow": outcome.overflow.copy(),
        }
        self._prev_latencies = outcome.latencies
        self._prev_effective = outcome.effective
        self._arrivals = self.config.arrivals.draw(self._rng)
        return self._observation(), outcome.latencies, outcome.l_max, info
