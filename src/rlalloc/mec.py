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
rule: each server's overflow, its local or core latency, and the offloads a
target could accept; an offload's latency is computed where it is read.
``evaluate_action`` resolves a joint choice against it. Baselines:
``brute_force_optimal`` scores joint actions from the same table, each at the
cost of a running max rather than an ``evaluate_action``, and skips the
requests the table rejects, which cannot be the first minimum;
``random_routing`` picks uniformly among each server's valid choices.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from rlalloc.exceptions import (
    FINITE, MATRIX, NON_NEGATIVES, POSITIVES, ConfigError, Rule, check_fields,
    config_dict, config_from_dict, is_real, nested, one_of, spec,
)

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


def _server_ids(name: str, neighbors: object) -> tuple[tuple[int, ...], ...]:
    try:  # operator.index takes integers only: a neighbor id of 1.9 is an error, not 1.
        return tuple(tuple(sorted(map(operator.index, ns))) for ns in neighbors)
    except TypeError:
        raise ConfigError(f"{name} must be lists of server ids, got {neighbors!r}", name)


@dataclass
class EdgeTopology:
    """Servers, adjacency, and rate constants for one deployment."""

    capacities: Array = spec(POSITIVES)  # sets the server count I
    neighbors: tuple[tuple[int, ...], ...] = spec(Rule(per=1, convert=_server_ids))
    link_rates: Array = spec(MATRIX)  # (I, I); entry (i, j) used when i offloads to j
    core_rate: float = spec(FINITE)
    tau: float = spec(FINITE)
    cycles_per_bit: float = spec(FINITE)
    # Derived from neighbors, not a constructor argument: (CORE, *neighbors) per server.
    routing_choices: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    @property
    def num_servers(self) -> int:
        return self.capacities.shape[0]

    def validate(self) -> None:
        """Check each field's rule, then the neighbor lists and the rates of their links."""
        i = check_fields(self)
        self.routing_choices = tuple((CORE, *ns) for ns in self.neighbors)
        for a, ns in enumerate(self.neighbors):
            for b in ns:
                if not 0 <= b < i or b == a or a not in self.neighbors[b]:
                    raise ValueError(f"neighbors of server {a} list {b}: need another server "
                                     f"that lists {a} back")
                if not 0 < self.link_rates[a, b] < np.inf:
                    raise ValueError(f"link_rates for neighbors {a}->{b} must be positive")

    __post_init__ = validate

    def slot_capacity(self) -> Array:
        """Data each server can process within one slot."""
        return self.tau * self.capacities / self.cycles_per_bit

    to_dict = config_dict

    @classmethod
    def from_dict(cls, payload: dict) -> "EdgeTopology":
        fields = dict(payload)
        if "link_rate" in fields:  # shorthand: the same rate on every listed link
            if "link_rates" in fields:
                raise ValueError("give link_rate or link_rates, not both")
            rate = fields.pop("link_rate")
            if not is_real(rate):
                raise ValueError(f"link_rate must be a number, got {rate!r}")
            ids = _server_ids("neighbors", fields.get("neighbors"))  # one list per server
            fields["link_rates"] = np.zeros((len(ids), len(ids)))
            for a, ns in enumerate(ids):  # validate() names the ids out of range
                fields["link_rates"][a, [b for b in ns if 0 <= b < len(ids)]] = rate
        return config_from_dict(cls, fields)


@dataclass
class ArrivalModel:
    """Per-slot task-data arrivals: a fixed vector, or independent uniform draws."""

    kind: str = spec(one_of(("fixed", "uniform")))
    sizes: Array | None = spec(NON_NEGATIVES, None, reads="fixed")
    low: Array | None = spec(NON_NEGATIVES, None, reads="uniform")
    high: Array | None = spec(NON_NEGATIVES, None, reads="uniform")

    def validate(self, servers: int | None = None) -> None:
        check_fields(self, "kind", servers)
        if self.kind == "uniform" and not np.all(self.low <= self.high):
            raise ValueError("need low <= high")

    __post_init__ = validate

    def draw(self, rng: np.random.Generator) -> Array:
        if self.kind == "fixed":
            return self.sizes.copy()
        # Bit for bit rng.uniform(low, high), which also draws low + (high - low) * U[0, 1).
        return self.low + (self.high - self.low) * rng.random(self.low.shape[0])

    def max_sizes(self) -> Array:
        """Upper bound of the arrival support, per server."""
        return self.sizes.copy() if self.kind == "fixed" else self.high.copy()

    to_dict = config_dict
    from_dict = classmethod(config_from_dict)


@dataclass
class MecConfig:
    """Topology plus arrival process."""

    topology: EdgeTopology = spec(nested(EdgeTopology))
    arrivals: ArrivalModel = spec(nested(ArrivalModel))

    def validate(self) -> None:
        """Check both parts, that they count the same servers, and that latencies stay finite."""
        check_fields(self)
        topo = self.topology
        topo.validate()
        self.arrivals.validate(topo.num_servers)  # one entry per server
        with np.errstate(over="ignore"):  # an overflow is the error reported here
            if not np.all(np.isfinite([*topo.slot_capacity(), self.resolved_latency_ref()])):
                raise ValueError("tau, capacities and cycles_per_bit, or core_rate, link_rates and "
                                 "the arrival sizes, overflow the slot capacity or latency bound")

    __post_init__ = validate

    def resolved_latency_ref(self) -> float:
        """Normalizer for latency observations: an upper bound on any L_i."""
        topo = self.topology
        rates = [topo.core_rate]
        for a, ns in enumerate(topo.neighbors):
            rates.extend(topo.link_rates[a, b] for b in ns)
        max_s = float(self.arrivals.max_sizes().max())
        return 2.0 * topo.tau + max_s / min(rates)

    to_dict = config_dict
    from_dict = classmethod(config_from_dict)


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


def _slot_table(topology: EdgeTopology, arrival_sizes: Array) -> tuple[list, list, set]:
    """The offload rule for one slot's arrivals, applied once.

    Returns each server's overflow; its latency with that overflow, if any,
    sent to the core; and every ``(source, target)`` offload the target could
    accept: the target has no overflow of its own and can finish the source's
    overflow inside the slot.
    """
    n = topology.num_servers
    sizes = np.asarray(arrival_sizes, dtype=float)
    if sizes.shape != (n,):
        raise ValueError(f"arrival_sizes must have shape ({n},), got {sizes.shape}")
    # Python floats: the doubles slot_capacity() and np.maximum give, without NumPy's per-call cost.
    size, cap = sizes.tolist(), topology.capacities.tolist()
    tau, cpb = topology.tau, topology.cycles_per_bit
    over = [max(s - tau * c / cpb, 0.0) for s, c in zip(size, cap)]
    base = [
        latency_local(s, c, cpb) if o == 0.0 else latency_core(o, tau, topology.core_rate)
        for o, s, c in zip(over, size, cap)
    ]
    acceptable = {
        (i, j) for i in range(n) if over[i] > 0.0 for j in topology.neighbors[i]
        if over[j] == 0.0 and cpb * over[i] <= tau * cap[j] - cpb * size[j] + 1e-12
    }
    return over, base, acceptable


def _offload_latency(topology: EdgeTopology, over: list, i: int, j: int) -> float:
    rate, cap = topology.link_rates.item(i, j), topology.capacities.item(j)  # Python floats
    return latency_offload(over[i], topology.tau, rate, cap, topology.cycles_per_bit)


def _resolve(topology: EdgeTopology, table: tuple, choices) -> SlotOutcome:
    """Validity, contention and latencies of ``choices`` against one slot's table."""
    over, base, acceptable = table
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
        if (i, c) in acceptable and (c not in accepted or over[i] > over[accepted[c]]):
            accepted[c] = i
    effective = [CORE if c >= 0 and accepted.get(c) != i else c for i, c in enumerate(requested)]
    return SlotOutcome(
        latencies=np.array([_offload_latency(topology, over, i, c) if c >= 0 else base[i]
                            for i, c in enumerate(effective)]),
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


def _check_enumerable(options: list) -> None:
    """Reject joint actions over ``options``, one list of choices per server, above the ceiling."""
    count = math.prod(len(o) for o in options)
    if count > ENUMERATION_CEILING:
        raise ConfigError(
            f"joint action space has {count} entries (> {ENUMERATION_CEILING}); "
            "this instance is too large to enumerate — reduce servers or neighbors"
        )


def action_catalog(config: MecConfig) -> list[tuple[int, ...]]:
    """Static joint-action list covering every arrival the model can produce.

    Servers whose arrival support can exceed the slot capacity contribute
    ``[CORE] + neighbors``; the rest are pinned to ``NOOP``. Every per-slot
    valid action appears in this catalog (no-op coercion bridges the gap when
    a can-overflow server happens to be idle).
    """
    slot_cap = config.topology.slot_capacity()
    can_overflow = config.arrivals.max_sizes() > slot_cap
    routes = config.topology.routing_choices
    options = [r if over else (NOOP,) for r, over in zip(routes, can_overflow)]
    _check_enumerable(options)
    return list(itertools.product(*options))


def brute_force_optimal(
    topology: EdgeTopology, arrival_sizes: Array
) -> tuple[tuple[int, ...], SlotOutcome]:
    """Exhaustive search for the joint choice minimizing the worst latency.

    Once per slot, each overflowing server gets a list of options from the slot
    table: ``(choice, latency, target bit)``. ``CORE`` comes first, with the
    core latency and bit 0; then, in routing order, each neighbor that could
    accept the overflow, with its offload latency and ``1 << neighbor``. A
    request the table does not hold would go to the core: it costs what ``CORE``
    costs, comes later, and so is never the first minimum; it is left out.
    A joint action is one option per overflowing server, ``NOOP`` for the rest.
    Its cost is a running max over its options, seeded with the largest local
    latency. An action in which two requests ask one target is skipped:
    contention sends one of them to the core, which makes it an earlier action
    with the same latencies. Ties go to the lexicographically first action (the
    first strict minimum), and the chosen action is resolved against the same
    table.
    """
    table = _slot_table(topology, arrival_sizes)
    over, base, acceptable = table
    sources = [i for i, o in enumerate(over) if o > 0.0]
    _check_enumerable([topology.routing_choices[i] for i in sources])
    options = [
        [(CORE, base[i], 0)] + [(j, _offload_latency(topology, over, i, j), 1 << j)
                                for j in topology.neighbors[i] if (i, j) in acceptable]
        for i in sources
    ]
    local = [base[i] for i, o in enumerate(over) if o == 0.0]
    floor = max(local) if local else -math.inf
    best, best_latency = None, math.inf
    for joint in itertools.product(*options):
        worst, taken = floor, 0
        for _, latency, target in joint:
            if taken & target:
                break  # contention
            taken |= target
            if latency > worst:
                worst = latency
        else:
            if best is None or worst < best_latency:
                best, best_latency = joint, worst
    action = [NOOP] * len(over)
    for i, (choice, _, _) in zip(sources, best):
        action[i] = choice
    return tuple(action), _resolve(topology, table, action)


def random_routing(
    topology: EdgeTopology, arrival_sizes: Array, rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniform random valid choice per server (the random baseline)."""
    over, _, _ = _slot_table(topology, arrival_sizes)
    # Only overflowing servers draw; a one-entry draw, integers(0, 1), would consume nothing.
    return tuple(
        routes[rng.integers(0, len(routes))] if o > 0.0 else NOOP
        for routes, o in zip(topology.routing_choices, over)
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
        # Observation position of each (server, choice) one-hot entry; choice None is the latency.
        routes = self.topology.routing_choices
        keys = [(i, c) for i, rs in enumerate(routes) for c in (None, *rs, NOOP)]
        self._pos = {key: pos for pos, key in enumerate(keys)}
        self._latency_pos = [self._pos[i, None] for i in range(self.num_servers)]
        self.one_hot_positions = [pos for (_, c), pos in self._pos.items() if c is not None]
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

    def _observation(self, latencies: list[float], effective: tuple[int, ...]) -> Array:
        obs = [0.0] * self._obs_dim
        ref = self._latency_ref
        for pos, latency in zip(self._latency_pos, latencies):
            obs[pos] = min(max(latency / ref, 0.0), 1.0)  # np.clip's bits, NaN included
        for key in enumerate(effective):
            obs[self._pos[key]] = 1.0
        return np.array(obs)

    def reset(self) -> Array:
        self._arrivals = self.config.arrivals.draw(self._rng)
        return self._observation([0.0] * self.num_servers, (NOOP,) * self.num_servers)

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
        self._arrivals = self.config.arrivals.draw(self._rng)
        obs = self._observation(outcome.latencies.tolist(), outcome.effective)
        return obs, outcome.latencies, outcome.l_max, info
