"""Unit tests for service profiles, the fluid FIFO queue, and slice traffic."""

import numpy as np
import pytest

from rlalloc.traffic import (
    FluidQueue,
    ServiceProfile,
    SliceTraffic,
    _mean,
)


# ---------------------------------------------------------------------------
# ServiceProfile


def test_profile_constructors_and_round_trip():
    for profile in (
        ServiceProfile.video(file_size=4.0, cycle_length=10, chunk_count=4),
        ServiceProfile.voice(packet_size=0.3),
        ServiceProfile.chat(mean_arrivals=2.0, size_min=0.05, size_max=0.15),
    ):
        clone = ServiceProfile.from_dict(profile.to_dict())
        assert clone == profile


def test_profile_validation():
    with pytest.raises(ValueError):
        ServiceProfile.video(file_size=-1.0)
    with pytest.raises(ValueError):
        ServiceProfile.video(file_size=4.0, cycle_length=3, chunk_count=4)
    with pytest.raises(ValueError):
        ServiceProfile.voice(packet_size=0.0)
    with pytest.raises(ValueError):
        ServiceProfile.chat(mean_arrivals=1.0, size_min=0.2, size_max=0.1)


# ---------------------------------------------------------------------------
# FluidQueue


def test_fifo_order_with_partial_head():
    q = FluidQueue()
    q.add(step=0, size=3.0)
    q.add(step=1, size=2.0)
    done, served = q.serve(4.0)
    assert served == 4.0
    assert done == [0]
    assert q.backlog == pytest.approx(1.0)
    done, served = q.serve(10.0)
    assert served == pytest.approx(1.0)
    assert done == [1]
    assert q.backlog == 0.0
    assert len(q) == 0


def test_zero_budget_serves_nothing():
    q = FluidQueue()
    q.add(0, 1.0)
    done, served = q.serve(0.0)
    assert done == [] and served == 0.0
    assert q.backlog == 1.0


def test_queue_validates_inputs():
    q = FluidQueue()
    with pytest.raises(ValueError):
        q.add(0, 0.0)
    with pytest.raises(ValueError):
        q.serve(-1.0)


# ---------------------------------------------------------------------------
# SliceTraffic


def test_voice_arrives_every_step():
    tr = SliceTraffic(ServiceProfile.voice(packet_size=0.3), step_duration=0.5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        stats = tr.advance(bandwidth=1.0, rng=rng)
        assert stats.arrived == pytest.approx(0.3)
        assert stats.completed == 1
        # Served within the arrival step: latency is one step.
        assert stats.mean_latency == pytest.approx(0.5)


def test_video_cycle_chunks_and_completion_flag():
    # 4 chunks of 1.0 arrive on steps 0-3 of each 10-step cycle.
    tr = SliceTraffic(ServiceProfile.video(4.0, cycle_length=10, chunk_count=4))
    rng = np.random.default_rng(0)
    flags, arrived = [], []
    for _ in range(20):
        stats = tr.advance(bandwidth=1.0, rng=rng)
        flags.append(stats.video_flag)
        arrived.append(stats.arrived)
    # Chunk arrivals: steps 0-3 and 10-13.
    assert arrived[:5] == [1.0, 1.0, 1.0, 1.0, 0.0]
    assert arrived[10:15] == [1.0, 1.0, 1.0, 1.0, 0.0]
    # At bandwidth 1.0 the last chunk drains on step 3; the flag then holds
    # until the next cycle resets it.
    assert flags[:4] == [0, 0, 0, 1]
    assert flags[4:10] == [1] * 6
    assert flags[10:14] == [0, 0, 0, 1]


def test_video_flag_stays_zero_when_starved():
    tr = SliceTraffic(ServiceProfile.video(4.0, cycle_length=10, chunk_count=4))
    rng = np.random.default_rng(0)
    for _ in range(10):
        stats = tr.advance(bandwidth=0.05, rng=rng)
        assert stats.video_flag == 0


def test_video_flag_ignores_an_earlier_files_last_chunk():
    # 4 chunks of 0.5 per 10-step cycle at 0.15 per step: file 0 drains over
    # 14 steps, so its last chunk finishes on step 13, during file 1's cycle.
    tr = SliceTraffic(ServiceProfile.video(2.0, cycle_length=10, chunk_count=4))
    rng = np.random.default_rng(0)
    stats = [tr.advance(bandwidth=0.15, rng=rng) for _ in range(20)]
    finished = [t for t, s in enumerate(stats) if s.completed]
    assert finished[3] == 13
    assert [s.video_flag for s in stats] == [0] * 20


def test_latency_counts_queueing_steps():
    # One chunk per cycle, tiny bandwidth: the chunk of size 2 drains over
    # 4 steps at 0.5/step, finishing on step 3 -> latency (3 - 0 + 1) = 4.
    tr = SliceTraffic(ServiceProfile.video(2.0, cycle_length=10, chunk_count=1))
    rng = np.random.default_rng(0)
    latencies = []
    for _ in range(4):
        stats = tr.advance(bandwidth=0.5, rng=rng)
        if stats.completed:
            latencies.append(stats.mean_latency)
    assert latencies == [4.0]


def test_conservation_arrived_equals_served_plus_backlog():
    profile = ServiceProfile.chat(mean_arrivals=3.0, size_min=0.05, size_max=0.15)
    tr = SliceTraffic(profile, step_duration=0.5)
    rng = np.random.default_rng(1)
    backlog_prev = 0.0
    total_in, total_out = 0.0, 0.0
    for _ in range(500):
        stats = tr.advance(bandwidth=rng.uniform(0.0, 0.8), rng=rng)
        assert stats.arrived - stats.served == pytest.approx(
            stats.backlog - backlog_prev, abs=1e-9
        )
        assert stats.backlog >= 0.0
        assert stats.mean_latency >= 0.5
        backlog_prev = stats.backlog
        total_in += stats.arrived
        total_out += stats.served
    assert total_in == pytest.approx(total_out + backlog_prev, abs=1e-9)


def test_chat_arrival_statistics():
    profile = ServiceProfile.chat(mean_arrivals=2.0, size_min=0.05, size_max=0.15)
    tr = SliceTraffic(profile)
    rng = np.random.default_rng(2)
    arrived = [tr.advance(bandwidth=100.0, rng=rng).arrived for _ in range(4000)]
    per_step = np.array(arrived)
    # Mean data per step ~= mean_arrivals * mean_size = 2 * 0.1.
    assert np.mean(per_step) == pytest.approx(0.2, rel=0.05)


def test_step_duration_must_be_positive():
    with pytest.raises(ValueError):
        SliceTraffic(ServiceProfile.voice(0.3), step_duration=0.0)


def test_advance_rejects_negative_bandwidth():
    tr = SliceTraffic(ServiceProfile.voice(0.3))
    with pytest.raises(ValueError):
        tr.advance(bandwidth=-1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="^bandwidth must be non-negative, got nan$"):
        tr.advance(bandwidth=float("nan"), rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="^service budget must be non-negative, got nan$"):
        FluidQueue().serve(float("nan"))


def test_short_mean_equals_numpy_mean_bit_for_bit():
    # Magnitudes spread over six decades, so that the order of summation shows in the last bit.
    rng = np.random.default_rng(21)
    for n in range(1, 13):
        for _ in range(2000):
            values = (rng.random(n) * 10.0 ** rng.integers(-3, 4, n)).tolist()
            assert _mean(values).hex() == float(np.mean(values)).hex()
