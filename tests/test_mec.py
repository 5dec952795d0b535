"""Unit tests for the edge-offloading model: latencies, contention, baselines."""

import numpy as np
import pytest

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
    enumerate_valid_actions,
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


# ---------------------------------------------------------------------------
# Action catalogs and baselines


def test_enumerate_valid_actions_is_lexicographic():
    config = small_contention_config()
    sizes = config.arrivals.draw(np.random.default_rng(0))
    actions = enumerate_valid_actions(config.topology, sizes)
    assert len(actions) == 16
    assert actions == sorted(actions)
    assert all(len(a) == 4 for a in actions)
    # Overflowing servers choose CORE or a neighbor; the rest are NOOP.
    for a in actions:
        assert a[0] in (CORE, 1, 2, 3)
        assert a[1] in (CORE, 0, 2, 3)
        assert a[2] == NOOP and a[3] == NOOP


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
    assert env.slot_count == 1
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
