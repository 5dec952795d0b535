"""Per-slice traffic generation and a FIFO fluid queue.

Three service shapes drive the emulated slicing mode:

* ``video`` — a fixed-size file arrives once per cycle, split into equal
  chunks delivered on the first ``chunk_count`` steps of the cycle; a
  completion flag, derived from the step and the queue, is up from the step
  the whole file finishes draining to the end of the cycle;
* ``voice`` — one fixed-size packet every step;
* ``chat`` — a Poisson number of packets per step with uniform random sizes.

Queued work drains first-in-first-out at the allocated bandwidth; a request's
latency counts whole steps, inclusive of both the arrival and the completion
step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from rlalloc.exceptions import (
    POSITIVE, ConfigError, check_fields, config_from_dict, count, is_real, one_of, real, spec,
)

SERVICE_KINDS = ("video", "voice", "chat")
ARRIVALS_CEILING = 10**6  # a chat slice's mean packets per step; see harness.SIZE_CEILING


@dataclass(frozen=True)
class ServiceProfile:
    """Arrival-process parameters for one slice's service; each kind reads its own fields."""

    kind: str = spec(one_of(SERVICE_KINDS))
    file_size: float = spec(POSITIVE, 0.0, reads="video")  # whole file per cycle
    cycle_length: int = spec(count(2), 10, reads="video")  # steps per cycle
    chunk_count: int = spec(count(1), 4, reads="video")  # chunks at the start of each cycle
    packet_size: float = spec(POSITIVE, 0.0, reads="voice")
    mean_arrivals: float = spec(  # Poisson mean per step
        real(lambda v: 0 <= v <= ARRIVALS_CEILING, f"lie in [0, {ARRIVALS_CEILING}]"), 0.0,
        reads="chat")
    size_min: float = spec(default=0.0, reads="chat")  # both sizes: see __post_init__
    size_max: float = spec(default=0.0, reads="chat")

    def __post_init__(self) -> None:
        check_fields(self, "kind")
        if self.kind == "video" and self.chunk_count > self.cycle_length:
            raise ValueError("chunk_count must lie in [1, cycle_length]")
        sizes = (self.size_min, self.size_max)
        if self.kind == "chat" and not (all(map(is_real, sizes)) and 0 < sizes[0] <= sizes[1]
                                        < math.inf):
            raise ValueError(f"chat sizes need 0 < size_min <= size_max, got {sizes}")

    @classmethod
    def video(cls, file_size: float, cycle_length: int = 10, chunk_count: int = 4) -> "ServiceProfile":
        return cls("video", file_size=file_size, cycle_length=cycle_length, chunk_count=chunk_count)

    @classmethod
    def voice(cls, packet_size: float) -> "ServiceProfile":
        return cls("voice", packet_size=packet_size)

    @classmethod
    def chat(cls, mean_arrivals: float, size_min: float, size_max: float) -> "ServiceProfile":
        return cls("chat", mean_arrivals=mean_arrivals, size_min=size_min, size_max=size_max)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata["reads"] is None or self.kind in f.metadata["reads"]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceProfile":
        """A service from its dict, whose keys are only the fields its kind reads."""
        profile = config_from_dict(cls, payload)
        unread = set(payload) - set(profile.to_dict())
        if unread:
            raise ConfigError(f"unknown key(s) {sorted(unread)} for kind {profile.kind!r}")
        return profile


class FluidQueue:
    """FIFO queue of divisible ``[arrival_step, remaining]`` requests drained per step."""

    def __init__(self) -> None:
        self._pending: deque[list] = deque()
        self.backlog = 0.0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, step: int, size: float) -> None:
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        self._pending.append([step, float(size)])
        self.backlog += float(size)

    def serve(self, budget: float) -> list[int]:
        """Drain up to ``budget``; returns the finished requests' arrival steps."""
        if not budget >= 0:  # NaN fails this comparison too
            raise ValueError(f"service budget must be non-negative, got {budget}")
        served = 0.0
        done: list[int] = []
        remaining_budget = float(budget)
        while self._pending and remaining_budget > 0.0:
            head = self._pending[0]
            if head[1] <= remaining_budget:
                remaining_budget -= head[1]
                served += head[1]
                done.append(head[0])
                self._pending.popleft()
            else:
                head[1] -= remaining_budget
                served += remaining_budget
                remaining_budget = 0.0
        self.backlog -= served
        if not self._pending:
            self.backlog = 0.0
        return done


def _mean(values: list[float]) -> float:
    """``float(np.mean(values))`` bit for bit: NumPy sums fewer than eight values left to
    right from 0.0 (not as the built-in ``sum``, compensated on 3.12+), then pairwise."""
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


@dataclass
class StepStats:
    """Per-step service measurements for one slice."""

    completed: int  # requests finished this step
    mean_latency: float  # average completion latency (time units); one step if none finished
    video_flag: int  # 1 once the cycle's whole file has drained
    arrived: float  # data enqueued this step
    backlog: float  # data still queued after this step


class SliceTraffic:
    """One slice's arrival process plus its queue, its only state: the caller passes the step."""

    def __init__(self, profile: ServiceProfile, step_duration: float = 1.0):
        if step_duration <= 0:
            raise ValueError(f"step_duration must be positive, got {step_duration}")
        self.profile = profile
        self.step_duration = float(step_duration)
        self.queue = FluidQueue()

    def _arrivals(self, step: int, rng: np.random.Generator) -> list[float]:
        p = self.profile
        if p.kind == "video":
            return [p.file_size / p.chunk_count] if step % p.cycle_length < p.chunk_count else []
        if p.kind == "voice":
            return [p.packet_size]
        count = int(rng.poisson(p.mean_arrivals))
        if count == 0:
            return []
        return rng.uniform(p.size_min, p.size_max, size=count).tolist()

    def advance(self, step: int, bandwidth: float, rng: np.random.Generator) -> StepStats:
        """Generate the arrivals of 0-based step ``step``, then drain at ``bandwidth``."""
        if not bandwidth >= 0:  # NaN fails this comparison too
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth}")
        arrived = 0.0
        for size in self._arrivals(step, rng):
            self.queue.add(step, size)
            arrived += size
        done = self.queue.serve(bandwidth * self.step_duration)
        # A slice queues only its own service, nothing arrives after a file's last chunk in its
        # cycle, and the queue is FIFO: once that chunk has come, it has drained iff none is left.
        p = self.profile
        flag = int(p.kind == "video" and step % p.cycle_length >= p.chunk_count - 1
                   and not self.queue)
        if done:
            mean_latency = _mean([(step - arrival + 1) * self.step_duration for arrival in done])
        else:
            mean_latency = self.step_duration
        # Positional: half the cost of keywords, on every step of every slice.
        return StepStats(len(done), mean_latency, flag, arrived, self.queue.backlog)
