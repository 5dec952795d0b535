"""Unit tests for the edge-offloading model: latencies, contention, baselines."""

import itertools

import numpy as np
import pytest

from rlalloc import mec as mec_mod
from rlalloc.harness import ExperimentConfig, run_experiment
from rlalloc.mec import (
    CORE,
    NOOP,
    ArrivalModel,
    EdgeTopology,
    MecConfig,
    MecEnv,
    action_catalog,
    brute_force_optimal,
    default_mec_config,
    evaluate_action,
    latency_core,
    latency_local,
    latency_offload,
    random_routing,
    small_contention_config,
)


# ---------------------------------------------------------------------------
# Latency formulas


def test_latency_formulas():
    assert latency_local(10.0, 1000.0, 10.0) == pytest.approx(0.1)
    assert latency_core(14.0, 0.1, 100.0) == pytest.approx(0.1 + 0.14)
    # Offload: slot + transfer + remote compute on the full remote capacity.
    assert latency_offload(14.0, 0.1, 500.0, 3000.0, 10.0) == pytest.approx(
        0.1 + 14.0 / 500.0 + 140.0 / 3000.0
    )


def test_latency_validation():
    with pytest.raises(ValueError):
        latency_local(1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        latency_core(1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        latency_offload(1.0, 0.1, 0.0, 100.0, 10.0)


# ---------------------------------------------------------------------------
# Topology / config plumbing


def test_topology_round_trip():
    for config in (default_mec_config(), small_contention_config()):
        clone = MecConfig.from_dict(config.to_dict())
        np.testing.assert_array_equal(
            clone.topology.capacities, config.topology.capacities
        )
        assert clone.topology.neighbors == config.topology.neighbors
        np.testing.assert_array_equal(
            clone.topology.link_rates, config.topology.link_rates
        )
        assert clone.arrivals.to_dict() == config.arrivals.to_dict()
        clone.validate()


def test_topology_validation():
    with pytest.raises(ValueError):
        EdgeTopology(
            capacities=np.array([1000.0, 1000.0]),
            neighbors=((1,), ()),  # asymmetric adjacency
            link_rates=np.full((2, 2), 150.0),
            core_rate=100.0,
            tau=0.1,
            cycles_per_bit=10.0,
        ).validate()
    with pytest.raises(ValueError):
        EdgeTopology(
            capacities=np.array([1000.0, 1000.0]),
            neighbors=((0, 1), (0,)),  # self-loop
            link_rates=np.full((2, 2), 150.0),
            core_rate=100.0,
            tau=0.1,
            cycles_per_bit=10.0,
        ).validate()


def test_arrival_model_fixed_and_uniform():
    fixed = ArrivalModel(kind="fixed", sizes=np.array([24.0, 18.0]))
    np.testing.assert_array_equal(fixed.draw(np.random.default_rng(0)), [24.0, 18.0])
    np.testing.assert_array_equal(fixed.max_sizes(), [24.0, 18.0])
    uniform = ArrivalModel(kind="uniform", low=np.array([8.0, 2.0]), high=np.array([30.0, 10.0]))
    rng = np.random.default_rng(0)
    draws = np.array([uniform.draw(rng) for _ in range(200)])
    assert np.all(draws[:, 0] >= 8.0) and np.all(draws[:, 0] <= 30.0)
    assert np.all(draws[:, 1] >= 2.0) and np.all(draws[:, 1] <= 10.0)
    np.testing.assert_array_equal(uniform.max_sizes(), [30.0, 10.0])


def test_default_config_shape():
    config = default_mec_config()
    topo = config.topology
    assert topo.num_servers == 7
    np.testing.assert_array_equal(
        topo.capacities, [1000.0, 1000.0, 3000.0, 1000.0, 3000.0, 1000.0, 3000.0]
    )
    # Two cliques bridged by 2 <-> 4.
    assert 4 in topo.neighbors[2] and 2 in topo.neighbors[4]
    assert set(topo.neighbors[0]) == {2, 3, 6}
    assert set(topo.neighbors[1]) == {4, 5}


def test_preset_link_matrices_by_value():
    neighbors = [[2, 3, 6], [4, 5], [0, 3, 4, 6], [0, 2, 6], [1, 2, 5], [1, 4], [0, 2, 3]]
    seven = np.zeros((7, 7))
    for a, ns in enumerate(neighbors):
        seven[a, ns] = 150.0
    assert np.count_nonzero(seven) == 20
    np.testing.assert_array_equal(default_mec_config().topology.link_rates, seven)
    np.testing.assert_array_equal(
        small_contention_config().topology.link_rates, 500.0 * (1.0 - np.eye(4))
    )


# ---------------------------------------------------------------------------
# Slot evaluation and contention


def test_reference_slot_small_config():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    np.testing.assert_array_equal(sizes, [24.0, 18.0, 8.0, 6.0])
    out = evaluate_action(config.topology, sizes, (3, 2, NOOP, NOOP))
    np.testing.assert_allclose(out.overflow, [14.0, 8.0, 0.0, 0.0])
    assert out.effective == (3, 2, NOOP, NOOP)
    assert out.accepted == {3: 0, 2: 1}
    np.testing.assert_allclose(
        out.latencies,
        [
            0.1 + 14.0 / 500.0 + 140.0 / 3000.0,  # offload to server 3
            0.1 + 8.0 / 500.0 + 80.0 / 2000.0,  # offload to server 2
            80.0 / 2000.0,  # local only
            60.0 / 3000.0,  # local only
        ],
    )
    assert out.l_max == pytest.approx(0.174667, abs=1e-6)


def test_core_latency_in_small_config():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    out = evaluate_action(config.topology, sizes, (CORE, CORE, NOOP, NOOP))
    assert out.latencies[0] == pytest.approx(0.1 + 14.0 / 100.0)
    assert out.latencies[1] == pytest.approx(0.1 + 8.0 / 100.0)
    assert out.accepted == {}


def test_contention_larger_overflow_wins():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    # Both overflowing servers target server 3; server 0 carries more overflow.
    out = evaluate_action(config.topology, sizes, (3, 3, NOOP, NOOP))
    assert out.accepted == {3: 0}
    assert out.effective == (3, CORE, NOOP, NOOP)
    assert out.latencies[1] == pytest.approx(0.1 + 8.0 / 100.0)


def test_contention_tie_breaks_to_lowest_source():
    topo = EdgeTopology(
        capacities=np.array([1000.0, 1000.0, 3000.0]),
        neighbors=((2,), (2,), (0, 1)),
        link_rates=np.full((3, 3), 500.0),
        core_rate=100.0,
        tau=0.1,
        cycles_per_bit=10.0,
    )
    sizes = np.array([20.0, 20.0, 5.0])  # equal overflow of 10 each
    out = evaluate_action(topo, sizes, (2, 2, NOOP))
    assert out.accepted == {2: 0}
    assert out.effective == (2, CORE, NOOP)


def test_offload_accepted_when_headroom_matches_up_to_rounding():
    topo = EdgeTopology(
        capacities=np.array([1000.0, 3000.0]),
        neighbors=((1,), (0,)),
        link_rates=np.full((2, 2), 500.0),
        core_rate=100.0,
        tau=0.1,
        cycles_per_bit=10.0,
    )
    sizes = np.array([10.05, 29.95])
    # Server 0's 0.05 overflow needs 0.5 cycles, exactly server 1's spare 0.5; in
    # floating point the need comes out 0.5000000000000071.
    assert 10.0 * (sizes[0] - topo.slot_capacity()[0]) > 0.1 * 3000.0 - 10.0 * sizes[1]
    assert evaluate_action(topo, sizes, (1, NOOP)).accepted == {1: 0}


def test_offload_to_overflowing_target_is_rejected():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    # Server 1 overflows itself, so it cannot accept server 0's task.
    out = evaluate_action(config.topology, sizes, (1, CORE, NOOP, NOOP))
    assert out.effective[0] == CORE
    assert out.accepted == {}


def test_offload_without_compute_headroom_is_rejected():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    # Server 2 has headroom for server 1's 80 cycles but not server 0's 140.
    out = evaluate_action(config.topology, sizes, (2, CORE, NOOP, NOOP))
    assert out.effective[0] == CORE
    out = evaluate_action(config.topology, sizes, (CORE, 2, NOOP, NOOP))
    assert out.effective[1] == 2


def test_noop_is_coerced_and_rejected_appropriately():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    # A non-overflowing server with a routing choice is coerced to NOOP.
    out = evaluate_action(config.topology, sizes, (CORE, CORE, 3, CORE))
    assert out.requested[2] == NOOP and out.requested[3] == NOOP
    # An overflowing server cannot opt out.
    with pytest.raises(ValueError):
        evaluate_action(config.topology, sizes, (NOOP, CORE, NOOP, NOOP))


def test_invalid_targets_raise():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    with pytest.raises(ValueError):
        evaluate_action(config.topology, sizes, (0, CORE, NOOP, NOOP))  # self
    with pytest.raises(ValueError):
        evaluate_action(config.topology, sizes, (7, CORE, NOOP, NOOP))  # not a server
    with pytest.raises(ValueError):
        evaluate_action(config.topology, sizes, (CORE, CORE, NOOP))  # wrong length
    # Servers 0 and 1 overflow; a choice that is not an integer is an error, not truncated.
    for choices, server in (((3.9, 2.2, NOOP, NOOP), 0), ((3, "2", NOOP, NOOP), 1),
                            ((3, 2, NOOP, 0.5), 3)):
        with pytest.raises(ValueError, match=f"server {server}: choice"):
            evaluate_action(config.topology, sizes, choices)
    numpy_ints = evaluate_action(config.topology, sizes, tuple(np.int64([3, 2, NOOP, NOOP])))
    assert numpy_ints.requested == (3, 2, NOOP, NOOP)
    assert all(type(c) is int for c in numpy_ints.requested + numpy_ints.effective)


# ---------------------------------------------------------------------------
# Action catalogs and baselines


def exhaustive_optimum(topology, sizes):
    """First strict minimum of L_max over every joint choice, each resolved by evaluate_action."""
    overflowing = sizes > topology.slot_capacity()
    options = [r if over else (NOOP,) for r, over in zip(topology.routing_choices, overflowing)]
    best = None
    for action in itertools.product(*options):
        outcome = evaluate_action(topology, sizes, action)
        if best is None or outcome.l_max < best[1].l_max:
            best = action, outcome
    return best


def random_fast_link_slots(count, rng):
    """Symmetric topologies with links faster than the core and arrivals on a coarse grid,
    so that neighbors win and equal overflows contend for one target."""
    for _ in range(count):
        n = int(rng.integers(3, 6))
        adjacent = np.triu(rng.random((n, n)) < 0.6, 1)
        adjacent |= adjacent.T
        topology = EdgeTopology.from_dict({
            "capacities": rng.choice([1000.0, 2000.0], n).tolist(),
            "neighbors": [np.flatnonzero(row).tolist() for row in adjacent],
            "link_rates": np.where(adjacent, rng.choice([300.0, 500.0], (n, n)), 0.0),
            "core_rate": float(rng.choice([50.0, 100.0])),
            "tau": 0.1,
            "cycles_per_bit": 10.0,
        })
        yield topology, rng.choice([0.0, 6.0, 12.0, 18.0, 24.0], n)


def slots(name):
    rng = np.random.default_rng(11)
    if name == "mec-small":
        config = small_contention_config()
        return [(config.topology, config.arrivals.draw(rng))]
    if name == "mec-seven":
        config = default_mec_config()
        return [(config.topology, config.arrivals.draw(rng)) for _ in range(200)]
    return list(random_fast_link_slots(300, rng))


@pytest.mark.parametrize("name", ["mec-small", "mec-seven", "fast-links"])
def test_brute_force_matches_exhaustive_search(name):
    neighbor_wins = ties = 0
    for topology, sizes in slots(name):
        action, outcome = brute_force_optimal(topology, sizes)
        expected_action, expected = exhaustive_optimum(topology, sizes)
        assert action == expected_action
        assert outcome.l_max.hex() == expected.l_max.hex()
        assert np.array_equal(outcome.latencies, expected.latencies)
        assert outcome.effective == expected.effective
        neighbor_wins += any(c >= 0 for c in outcome.effective)
        over = outcome.overflow
        ties += any(  # two equal overflows that can ask one free neighbor
            0 < over[a] == over[b] and any(over[j] == 0 for j in set(ns_a) & set(ns_b))
            for (a, ns_a), (b, ns_b) in itertools.combinations(enumerate(topology.neighbors), 2)
        )
    if name == "mec-small":
        assert action == (3, 2, NOOP, NOOP)
    if name == "fast-links":  # the search must be exercised where the core is not the answer
        assert neighbor_wins > 100 and ties > 20


def test_action_catalog_matches_support():
    assert len(action_catalog(small_contention_config())) == 16
    catalog = action_catalog(default_mec_config())
    assert len(catalog) == 16
    # Only servers 0 and 3 can ever overflow on the default topology.
    for a in catalog:
        assert a[0] in (CORE, 2, 3, 6)
        assert a[3] in (CORE, 0, 2, 6)
        for i in (1, 2, 4, 5, 6):
            assert a[i] == NOOP


def test_brute_force_optimal_small_config():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    action, outcome = brute_force_optimal(config.topology, sizes)
    assert action == (3, 2, NOOP, NOOP)
    assert outcome.l_max == pytest.approx(0.174667, abs=1e-6)
    # No catalog entry does better.
    for candidate in action_catalog(config):
        assert evaluate_action(config.topology, sizes, candidate).l_max >= (
            outcome.l_max - 1e-12
        )


def test_brute_force_reads_its_slot_table_without_evaluate_action(monkeypatch, tmp_path):
    evaluate_calls = []  # the env looks evaluate_action up by its module-level name

    def counted(*args):
        evaluate_calls.append(args)
        return evaluate_action(*args)

    monkeypatch.setattr(mec_mod, "evaluate_action", counted)
    config = default_mec_config()
    rng = np.random.default_rng(3)
    for _ in range(20):
        brute_force_optimal(config.topology, config.arrivals.draw(rng))
    assert evaluate_calls == []
    payload = {"scenario": "mec", "policy": "optimal", "seed": 1, "env": "mec-seven",
               "total_steps": 30}
    run_experiment(ExperimentConfig.from_dict(payload), tmp_path / "m.jsonl")
    assert len(evaluate_calls) == 30  # one per slot: the env's own step


def test_brute_force_rejects_wrong_length_arrivals():
    topology, seven = small_contention_config().topology, default_mec_config().topology
    rng = np.random.default_rng(0)
    # Random routing reads the same slot table: one entry must not broadcast to all servers.
    for baseline in (brute_force_optimal, lambda topo, sizes: random_routing(topo, sizes, rng)):
        with pytest.raises(ValueError, match=r"arrival_sizes must have shape \(4,\), got \(3,\)"):
            baseline(topology, [24.0, 18.0, 8.0])
        for sizes in (np.array([20.0]), np.full(8, 20.0)):
            with pytest.raises(ValueError, match=rf"must have shape \(7,\), got \({sizes.size},\)"):
                baseline(seven, sizes)


def test_random_routing_is_valid_and_varied():
    config = default_mec_config()
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(100):
        sizes = config.arrivals.draw(rng)
        choices = random_routing(config.topology, sizes, rng)
        out = evaluate_action(config.topology, sizes, choices)  # must not raise
        assert np.all(np.isfinite(out.latencies))
        seen.add(out.requested)
    assert len(seen) > 1


def test_conservation_and_single_acceptance_random_slots():
    config = default_mec_config()
    topo = config.topology
    rng = np.random.default_rng(6)
    catalog = action_catalog(config)
    for _ in range(1000):
        sizes = config.arrivals.draw(rng)
        choices = catalog[rng.integers(0, len(catalog))]
        out = evaluate_action(topo, sizes, choices)
        # Each target accepts at most one task (dict keys are unique by
        # construction); accepted sources must actually point at the target.
        for target, source in out.accepted.items():
            assert out.effective[source] == target
            assert target in topo.neighbors[source]
        assert len(set(out.accepted.values())) == len(out.accepted)
        # Every server's latency covers exactly its local share plus its
        # overflow through whichever path it effectively used.
        local = np.minimum(sizes, topo.slot_capacity())
        for i in range(topo.num_servers):
            eff = out.effective[i]
            if out.overflow[i] == 0.0:
                assert eff == NOOP
                assert out.latencies[i] == pytest.approx(
                    latency_local(local[i], topo.capacities[i], topo.cycles_per_bit)
                )
            elif eff == CORE:
                assert out.latencies[i] == pytest.approx(
                    latency_core(out.overflow[i], topo.tau, topo.core_rate)
                )
            else:
                assert out.latencies[i] == pytest.approx(
                    latency_offload(
                        out.overflow[i],
                        topo.tau,
                        topo.link_rates[i, eff],
                        topo.capacities[eff],
                        topo.cycles_per_bit,
                    )
                )


def reference_outcome(topology, sizes, choices):
    """evaluate_action's latencies and overflow, as a per-server loop over NumPy arrays."""
    cpb = topology.cycles_per_bit
    overflow = np.maximum(0.0, sizes - topology.slot_capacity())
    requested = [NOOP if overflow[i] == 0.0 else int(c) for i, c in enumerate(choices)]
    accepted = {}
    for target in {c for c in requested if c >= 0}:
        spare = topology.tau * topology.capacities[target] - cpb * sizes[target]
        feasible = [
            i for i, c in enumerate(requested) if c == target and cpb * overflow[i] <= spare + 1e-12
        ]
        if overflow[target] == 0.0 and feasible:
            accepted[target] = max(feasible, key=lambda i: (overflow[i], -i))
    latencies = np.empty(len(sizes))
    for i, c in enumerate(requested):
        if overflow[i] == 0.0:
            latencies[i] = latency_local(sizes[i], topology.capacities[i], cpb)
        elif accepted.get(c) != i:
            latencies[i] = latency_core(overflow[i], topology.tau, topology.core_rate)
        else:
            latencies[i] = latency_offload(
                overflow[i], topology.tau, topology.link_rates[i, c], topology.capacities[c], cpb
            )
    return latencies, overflow


def test_evaluate_action_equals_per_server_numpy_reference():
    rng = np.random.default_rng(24)
    config = default_mec_config()
    cases = [(config.topology, config.arrivals.draw(rng)) for _ in range(300)]
    cases += random_fast_link_slots(300, rng)
    offloaded = 0
    for topology, sizes in cases:
        choices = [routes[rng.integers(len(routes))] for routes in topology.routing_choices]
        outcome = evaluate_action(topology, sizes, choices)
        latencies, overflow = reference_outcome(topology, sizes, choices)
        assert outcome.latencies.dtype == outcome.overflow.dtype == np.float64
        assert np.array_equal(outcome.latencies, latencies)
        assert np.array_equal(outcome.overflow, overflow)
        offloaded += any(c >= 0 for c in outcome.effective)
    assert offloaded > 100


def test_uniform_draw_equals_rng_uniform_and_keeps_the_stream_position():
    model = default_mec_config().arrivals
    ours, theirs = np.random.default_rng(25), np.random.default_rng(25)
    for _ in range(10_000):
        assert np.array_equal(model.draw(ours), theirs.uniform(model.low, model.high))
    assert ours.random() == theirs.random()


# ---------------------------------------------------------------------------
# Environment


def test_env_observation_layout():
    env = MecEnv(default_mec_config(), rng=np.random.default_rng(0))
    assert env.observation_dim == 41
    obs = env.reset()
    assert obs.shape == (41,)
    assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
    # Each per-server block is [latency, one-hot choice]: one-hots sum to 7.
    assert obs.sum() == pytest.approx(7.0)  # initial latencies are zero


def test_env_observation_matches_per_server_reference():
    # Per server, written out one at a time: the clipped scaled latency, then a
    # one-hot of the effective choice over [CORE] + neighbors + [NOOP].
    for config in (default_mec_config(), small_contention_config()):
        topo, ref = config.topology, config.resolved_latency_ref()
        env = MecEnv(config, rng=np.random.default_rng(11))
        rng = np.random.default_rng(12)
        obs = env.reset()
        latencies, effective = np.zeros(topo.num_servers), (NOOP,) * topo.num_servers
        seen = set()
        for _ in range(60):
            expected = []
            for i, ns in enumerate(topo.neighbors):
                slots = [CORE, *ns, NOOP]
                onehot = [0.0] * len(slots)
                onehot[slots.index(effective[i])] = 1.0
                expected += [min(max(latencies[i] / ref, 0.0), 1.0), *onehot]
            assert np.array_equal(obs, expected)
            choices = random_routing(topo, env.current_arrivals, rng)
            obs, latencies, _, info = env.step(choices)
            effective = info["effective"]
            seen.update(effective)
        assert {CORE, NOOP} <= seen and any(c >= 0 for c in seen)


def test_env_small_config_observation_dim():
    env = MecEnv(small_contention_config(), rng=np.random.default_rng(0))
    # 4 servers x (1 latency + 1 core + 3 neighbors + 1 noop) = 24.
    assert env.observation_dim == 24


def test_env_step_round_trip():
    config = small_contention_config()
    env = MecEnv(config, rng=np.random.default_rng(0))
    env.reset()
    sizes = env.current_arrivals
    np.testing.assert_array_equal(sizes, [24.0, 18.0, 8.0, 6.0])
    obs, latencies, l_max, info = env.step((3, 2, NOOP, NOOP))
    assert l_max == pytest.approx(0.174667, abs=1e-6)
    assert info["effective"] == (3, 2, NOOP, NOOP)
    assert obs.shape == (24,)
    # Fixed arrivals: next slot sees the same sizes.
    np.testing.assert_array_equal(env.current_arrivals, [24.0, 18.0, 8.0, 6.0])


def test_env_requires_reset():
    env = MecEnv(small_contention_config())
    with pytest.raises(RuntimeError):
        env.step((CORE, CORE, NOOP, NOOP))


def test_env_arrivals_deterministic_per_seed():
    def draws(seed):
        env = MecEnv(default_mec_config(), rng=np.random.default_rng(seed))
        env.reset()
        out = [env.current_arrivals.copy()]
        for _ in range(5):
            env.step(action_catalog(default_mec_config())[0])
            out.append(env.current_arrivals.copy())
        return np.array(out)

    np.testing.assert_array_equal(draws(3), draws(3))
    assert not np.array_equal(draws(3), draws(4))
