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

One slot table, built once per slot, is the only code that applies this
rule: each server's overflow, its local or core latency, and the latency of
every offload a target could accept. ``evaluate_action`` resolves a joint
choice against it. Baselines: ``brute_force_optimal`` scores every valid joint
action from the same table, so that an action costs a max rather than an
``evaluate_action``; ``random_routing`` picks uniformly among each server's
valid choices.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from rlalloc.exceptions import _vector, is_real

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
    # Derived from neighbors, not a constructor argument: (CORE, *neighbors) per server.
    routing_choices: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.capacities = _vector("capacities", self.capacities)
        try:  # operator.index takes integers only: a neighbor id of 1.9 is an error, not 1.
            self.neighbors = tuple(tuple(sorted(map(operator.index, ns))) for ns in self.neighbors)
        except TypeError:
            raise ValueError(f"neighbors must be lists of server ids, got {self.neighbors!r}")
        self.link_rates = _vector("link_rates", self.link_rates, ndim=2)
        self.routing_choices = tuple((CORE, *ns) for ns in self.neighbors)

    @property
    def num_servers(self) -> int:
        return self.capacities.shape[0]

    def validate(self) -> None:
        # Written as "not (good)" so that NaN, which fails every comparison, fails too.
        i = self.num_servers
        if i < 1:
            raise ValueError("need at least one server")
        if not np.all((self.capacities > 0) & (self.capacities < np.inf)):
            raise ValueError("capacities must be positive and finite")
        if len(self.neighbors) != i:
            raise ValueError(f"need one neighbor list per server ({i})")
        if self.link_rates.shape != (i, i):
            raise ValueError(f"link_rates must have shape ({i}, {i})")
        for name in ("core_rate", "tau", "cycles_per_bit"):
            value = getattr(self, name)
            if not (is_real(value) and 0 < value < np.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for a, ns in enumerate(self.neighbors):
            for b in ns:
                if not 0 <= b < i:
                    raise ValueError(f"server {a} lists unknown neighbor {b}")
                if b == a:
                    raise ValueError(f"server {a} lists itself as a neighbor")
                if a not in self.neighbors[b]:
                    raise ValueError(f"adjacency is not symmetric: {a}->{b}")
                if not 0 < self.link_rates[a, b] < np.inf:
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
        fields = dict(payload)
        if "link_rate" not in fields:
            return cls(**fields)
        # Shorthand: the same rate on every link. The constructor converts
        # capacities and neighbors before the matrix is built from them.
        if "link_rates" in fields:
            raise ValueError("give link_rate or link_rates, not both")
        rate = fields.pop("link_rate")
        if not is_real(rate):
            raise ValueError(f"link_rate must be a number, got {rate!r}")
        topology = cls(link_rates=[[]], **fields)
        n = topology.num_servers
        topology.link_rates = np.zeros((n, n))
        for a, ns in enumerate(topology.neighbors[:n]):  # validate() names ids out of range
            topology.link_rates[a, [b for b in ns if b < n]] = rate
        return topology


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
            if self.sizes is None or self.low is not None or self.high is not None:
                raise ValueError("fixed arrivals take a sizes vector only")
            self.sizes = _vector("sizes", self.sizes)
            if not np.all((self.sizes >= 0) & (self.sizes < np.inf)):
                raise ValueError("arrival sizes must be non-negative and finite")
        else:
            if self.low is None or self.high is None or self.sizes is not None:
                raise ValueError("uniform arrivals take low and high vectors only")
            self.low, self.high = _vector("low", self.low), _vector("high", self.high)
            if self.low.shape != self.high.shape:
                raise ValueError("low and high must have matching shapes")
            if not np.all((0 <= self.low) & (self.low <= self.high) & (self.high < np.inf)):
                raise ValueError("need 0 <= low <= high < inf")

    @property
    def num_servers(self) -> int:
        return (self.sizes if self.kind == "fixed" else self.low).shape[0]

    def draw(self, rng: np.random.Generator) -> Array:
        if self.kind == "fixed":
            return self.sizes.copy()
        # Bit for bit rng.uniform(low, high), which also draws low + (high - low) * U[0, 1).
        return self.low + (self.high - self.low) * rng.random(self.low.shape[0])

    def max_sizes(self) -> Array:
        """Upper bound of the arrival support, per server."""
        return self.sizes.copy() if self.kind == "fixed" else self.high.copy()

    def to_dict(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "sizes": self.sizes.tolist()}
        return {"kind": "uniform", "low": self.low.tolist(), "high": self.high.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ArrivalModel":
        return cls(**payload)


@dataclass
class MecConfig:
    """Topology plus arrival process."""

    topology: EdgeTopology
    arrivals: ArrivalModel

    def validate(self) -> None:
        self.topology.validate()
        if self.arrivals.num_servers != self.topology.num_servers:
            raise ValueError(
                f"arrival model covers {self.arrivals.num_servers} servers, "
                f"topology has {self.topology.num_servers}"
            )

    def resolved_latency_ref(self) -> float:
        """Normalizer for latency observations: an upper bound on any L_i."""
        topo = self.topology
        rates = [topo.core_rate]
        for a, ns in enumerate(topo.neighbors):
            rates.extend(topo.link_rates[a, b] for b in ns)
        max_s = float(self.arrivals.max_sizes().max())
        return 2.0 * topo.tau + max_s / min(rates)

    def to_dict(self) -> dict:
        return {"topology": self.topology.to_dict(), "arrivals": self.arrivals.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "MecConfig":
        fields = dict(payload)
        for key, part in (("topology", EdgeTopology), ("arrivals", ArrivalModel)):
            if not isinstance(fields[key], dict):
                raise ValueError(f"{key} must be an object, got {fields[key]!r}")
            fields[key] = part.from_dict(fields[key])
        config = cls(**fields)
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
    return MecConfig.from_dict({
        "topology": {
            "capacities": [1000.0, 1000.0, 3000.0, 1000.0, 3000.0, 1000.0, 3000.0],
            "neighbors": [[2, 3, 6], [4, 5], [0, 3, 4, 6], [0, 2, 6], [1, 2, 5], [1, 4], [0, 2, 3]],
            "link_rate": 150.0,
            "core_rate": 150.0,
            "tau": 0.1,
            "cycles_per_bit": 10.0,
        },
        "arrivals": {
            "kind": "uniform",
            "low": [8.0, 2.0, 8.0, 8.0, 2.0, 2.0, 8.0],
            "high": [30.0, 10.0, 30.0, 30.0, 10.0, 10.0, 30.0],
        },
    })


def small_contention_config() -> MecConfig:
    """Four-server instance with fixed arrivals where offloading pays off.

    Servers 0 and 1 overflow every slot (arrivals 24 and 18 against slot
    capacities 10); server 2 (C=2000) can absorb server 1's overflow, server 3
    (C=3000) can absorb either but only one per slot. Fast inter-server links
    (500) against a slow core (100) make routing decisions matter.
    """
    return MecConfig.from_dict({
        "topology": {
            "capacities": [1000.0, 1000.0, 2000.0, 3000.0],
            "neighbors": [[j for j in range(4) if j != i] for i in range(4)],
            "link_rate": 500.0,
            "core_rate": 100.0,
            "tau": 0.1,
            "cycles_per_bit": 10.0,
        },
        "arrivals": {"kind": "fixed", "sizes": [24.0, 18.0, 8.0, 6.0]},
    })


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


def _slot_table(topology: EdgeTopology, arrival_sizes: Array) -> tuple[list, list, dict]:
    """The offload rule for one slot's arrivals, applied once.

    Returns each server's overflow; its latency with that overflow, if any,
    sent to the core; and the latency of every ``(source, target)`` offload
    the target could accept: the target has no overflow of its own and can
    finish the source's overflow inside the slot.
    """
    n = topology.num_servers
    sizes = np.asarray(arrival_sizes, dtype=float)
    if sizes.shape != (n,):
        raise ValueError(f"arrival_sizes must have shape ({n},), got {sizes.shape}")
    # The table is built from Python floats: the same doubles, without NumPy's per-call cost.
    over = np.maximum(0.0, sizes - topology.slot_capacity()).tolist()
    size, cap = sizes.tolist(), topology.capacities.tolist()
    tau, cpb = topology.tau, topology.cycles_per_bit
    base = [
        latency_local(s, c, cpb) if o == 0.0 else latency_core(o, tau, topology.core_rate)
        for o, s, c in zip(over, size, cap)
    ]
    offload = {
        (i, j): latency_offload(over[i], tau, topology.link_rates[i, j], cap[j], cpb)
        for i in range(n) if over[i] > 0.0 for j in topology.neighbors[i]
        if over[j] == 0.0 and cpb * over[i] <= tau * cap[j] - cpb * size[j] + 1e-12
    }
    return over, base, offload


def _resolve(topology: EdgeTopology, table: tuple, choices) -> SlotOutcome:
    """Validity, contention and latencies of ``choices`` against one slot's table."""
    over, base, offload = table
    if len(choices) != len(over):
        raise ValueError(f"need one choice per server ({len(over)}), got {len(choices)}")
    requested: list[int] = []
    for i, raw in enumerate(choices):
        c = int(raw)
        if over[i] != 0.0 and c not in topology.routing_choices[i]:
            raise ValueError(f"server {i} overflows: {c} is not in {topology.routing_choices[i]}")
        requested.append(NOOP if over[i] == 0.0 else c)
    # A target accepts one acceptable request: the largest overflow, ties to the lowest source.
    accepted: dict[int, int] = {}
    for i, c in enumerate(requested):
        if (i, c) in offload and (c not in accepted or over[i] > over[accepted[c]]):
            accepted[c] = i
    effective = [CORE if c >= 0 and accepted.get(c) != i else c for i, c in enumerate(requested)]
    return SlotOutcome(
        latencies=np.array([offload.get((i, c), base[i]) for i, c in enumerate(effective)]),
        effective=tuple(effective),
        requested=tuple(requested),
        accepted=accepted,
        overflow=np.array(over),
    )


def evaluate_action(
    topology: EdgeTopology, arrival_sizes: Array, choices: tuple[int, ...] | list[int]
) -> SlotOutcome:
    """Resolve one slot: validity, contention, and per-server latencies.

    ``choices[i]`` is ``NOOP``, ``CORE``, or a neighbor id. Servers without
    overflow are coerced to ``NOOP`` whatever was submitted; servers with
    overflow must submit ``CORE`` or one of their neighbors.
    """
    return _resolve(topology, _slot_table(topology, arrival_sizes), choices)


def _joint_actions(topology: EdgeTopology, overflowing: Array) -> list[tuple[int, ...]]:
    """Every joint choice: an overflowing server's routing choices, else ``NOOP``."""
    options = [r if over else (NOOP,) for r, over in zip(topology.routing_choices, overflowing)]
    count = math.prod(len(o) for o in options)
    if count > ENUMERATION_CEILING:
        raise ValueError(
            f"joint action space has {count} entries (> {ENUMERATION_CEILING}); "
            "this instance is too large to enumerate — reduce servers or neighbors"
        )
    return list(itertools.product(*options))


def action_catalog(config: MecConfig) -> list[tuple[int, ...]]:
    """Static joint-action list covering every arrival the model can produce.

    Servers whose arrival support can exceed the slot capacity contribute
    ``[CORE] + neighbors``; the rest are pinned to ``NOOP``. Every per-slot
    valid action appears in this catalog (no-op coercion bridges the gap when
    a can-overflow server happens to be idle).
    """
    slot_cap = config.topology.slot_capacity()
    can_overflow = config.arrivals.max_sizes() > slot_cap
    return _joint_actions(config.topology, can_overflow)


def brute_force_optimal(
    topology: EdgeTopology, arrival_sizes: Array
) -> tuple[tuple[int, ...], SlotOutcome]:
    """Exhaustive search for the joint choice minimizing the worst latency.

    Every joint action is scored from the slot table: a request the table
    holds reads its offload latency, any other server its local or core
    latency. Ties go to the lexicographically first action, so an action in
    which contention rejects a request is skipped: with that request sent to
    the core it is an earlier action with the same latencies. The chosen
    action is resolved against the same table.
    """
    table = _slot_table(topology, arrival_sizes)
    over, base, offload = table
    sources = [i for i, o in enumerate(over) if o > 0.0]
    local = [base[i] for i, o in enumerate(over) if o == 0.0]

    def l_max(action: tuple[int, ...]) -> float:
        targets = [action[i] for i in sources if (i, action[i]) in offload]
        if len(set(targets)) < len(targets):
            return math.inf  # contention rejects one of the requests
        return max(local + [offload.get((i, action[i]), base[i]) for i in sources])

    overflowing = [o > 0.0 for o in over]
    best = min(_joint_actions(topology, overflowing), key=l_max)  # min keeps the first
    return best, _resolve(topology, table, best)


def random_routing(
    topology: EdgeTopology, arrival_sizes: Array, rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniform random valid choice per server (the random baseline)."""
    slot_cap = topology.slot_capacity()
    sizes = np.asarray(arrival_sizes, dtype=float)
    # Only overflowing servers draw; a one-entry draw, integers(0, 1), would consume nothing.
    return tuple(
        routes[rng.integers(0, len(routes))] if over else NOOP
        for routes, over in zip(topology.routing_choices, sizes > slot_cap)
    )


class MecEnv:
    """Slot-by-slot offloading environment.

    The observation holds one block per server, in server order: the previous
    slot's latency over the latency normalizer, clipped to [0, 1], then a
    one-hot of the previous *effective* choice over ``[CORE] + neighbors +
    [NOOP]`` (neighbors ascending). A server with ``n`` neighbors takes
    ``n + 3`` entries. After ``reset`` every latency is 0 and every choice NOOP.
    """

    def __init__(self, config: MecConfig, rng: np.random.Generator | int | None = None):
        config.validate()
        self.config = config
        self.topology = config.topology
        self._rng = np.random.default_rng(rng)
        self._latency_ref = config.resolved_latency_ref()
        self._arrivals: Array | None = None
        self._prev_latencies: Array | None = None
        self._prev_effective: tuple[int, ...] | None = None
        # Observation position of each (server, choice) one-hot entry; choice None is the latency.
        routes = self.topology.routing_choices
        keys = [(i, c) for i, rs in enumerate(routes) for c in (None, *rs, NOOP)]
        self._pos = {key: pos for pos, key in enumerate(keys)}
        self._latency_pos = np.array([self._pos[i, None] for i in range(self.num_servers)])
        self._obs_dim = len(keys)

    @property
    def num_servers(self) -> int:
        return self.topology.num_servers

    @property
    def observation_dim(self) -> int:
        return self._obs_dim

    @property
    def current_arrivals(self) -> Array:
        if self._arrivals is None:
            raise RuntimeError("call reset() before reading arrivals")
        return self._arrivals

    def _observation(self) -> Array:
        obs = np.zeros(self._obs_dim)
        obs[self._latency_pos] = np.clip(self._prev_latencies / self._latency_ref, 0.0, 1.0)
        obs[[self._pos[key] for key in enumerate(self._prev_effective)]] = 1.0
        return obs

    def reset(self) -> Array:
        self._prev_latencies = np.zeros(self.num_servers)
        self._prev_effective = tuple(NOOP for _ in range(self.num_servers))
        self._arrivals = self.config.arrivals.draw(self._rng)
        return self._observation()

    def step(self, choices: tuple[int, ...] | list[int]) -> tuple[Array, Array, float, dict]:
        """Execute one slot; returns (obs, per-server latencies, L_max, info)."""
        if self._arrivals is None:
            raise RuntimeError("call reset() before stepping the environment")
        outcome = evaluate_action(self.topology, self._arrivals, choices)
        info = {  # every value is new this slot and never mutated afterwards: no copies
            "arrivals": self._arrivals,
            "requested": outcome.requested,
            "effective": outcome.effective,
            "accepted": outcome.accepted,
        }
        self._prev_latencies = outcome.latencies
        self._prev_effective = outcome.effective
        self._arrivals = self.config.arrivals.draw(self._rng)
        return self._observation(), outcome.latencies, outcome.l_max, info
