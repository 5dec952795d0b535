"""Per-slice traffic generation and a FIFO fluid queue.

Three service shapes drive the emulated slicing mode:

* ``video`` — a fixed-size file arrives once per cycle, split into equal
  chunks delivered on the first ``chunk_count`` steps of the cycle; a
  completion flag is raised on the step the whole file finishes draining and
  cleared at the next cycle start;
* ``voice`` — one fixed-size packet every step;
* ``chat`` — a Poisson number of packets per step with uniform random sizes.

Queued work drains first-in-first-out at the allocated bandwidth; a request's
latency counts whole steps, inclusive of both the arrival and the completion
step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from rlalloc.exceptions import is_count, is_real

# The fields each service kind reads; the others keep their defaults.
_KIND_FIELDS = {
    "video": ("file_size", "cycle_length", "chunk_count"),
    "voice": ("packet_size",),
    "chat": ("mean_arrivals", "size_min", "size_max"),
}
SERVICE_KINDS = tuple(_KIND_FIELDS)
ARRIVALS_CEILING = 10**6  # a chat slice's mean packets per step; see harness.SIZE_CEILING


@dataclass(frozen=True)
class ServiceProfile:
    """Arrival-process parameters for one slice's service."""

    kind: str
    file_size: float = 0.0  # video: whole file per cycle
    cycle_length: int = 10  # video: steps per cycle
    chunk_count: int = 4  # video: chunks at the start of each cycle
    packet_size: float = 0.0  # voice
    mean_arrivals: float = 0.0  # chat: Poisson mean per step
    size_min: float = 0.0  # chat
    size_max: float = 0.0  # chat

    def __post_init__(self) -> None:
        # Chained comparisons against inf reject NaN and infinities alike.
        if self.kind not in SERVICE_KINDS:
            raise ValueError(f"kind must be one of {SERVICE_KINDS}, got {self.kind!r}")
        if self.kind == "video":
            if not (is_real(self.file_size) and 0 < self.file_size < math.inf):
                raise ValueError(f"video file_size must be positive, got {self.file_size!r}")
            for name, minimum in (("cycle_length", 2), ("chunk_count", 1)):
                value = getattr(self, name)
                if not is_count(value, minimum):
                    raise ValueError(f"video {name} must be an integer >= {minimum}, got {value!r}")
            if self.chunk_count > self.cycle_length:
                raise ValueError("chunk_count must lie in [1, cycle_length]")
        elif self.kind == "voice":
            if not (is_real(self.packet_size) and 0 < self.packet_size < math.inf):
                raise ValueError(f"voice packet_size must be positive, got {self.packet_size!r}")
        else:
            mean, sizes = self.mean_arrivals, (self.size_min, self.size_max)
            if not (is_real(mean) and 0 <= mean <= ARRIVALS_CEILING):
                raise ValueError(
                    f"chat mean_arrivals must lie in [0, {ARRIVALS_CEILING}], got {mean!r}"
                )
            if not (all(map(is_real, sizes)) and 0 < self.size_min <= self.size_max < math.inf):
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
        return {"kind": self.kind, **{f: getattr(self, f) for f in _KIND_FIELDS[self.kind]}}

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceProfile":
        kind = payload["kind"]
        unknown = set(payload) - {"kind", *_KIND_FIELDS.get(kind, ())}
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)} for a {kind!r} service")
        return cls(**payload)


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

    def serve(self, budget: float) -> tuple[list[int], float]:
        """Drain up to ``budget``; returns the finished requests' arrival steps and the amount."""
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
        return done, served


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
    served: float  # data drained this step
    backlog: float  # data still queued after this step


class SliceTraffic:
    """One slice's arrival process plus its queue, advanced step by step."""

    def __init__(self, profile: ServiceProfile, step_duration: float = 1.0):
        if step_duration <= 0:
            raise ValueError(f"step_duration must be positive, got {step_duration}")
        self.profile = profile
        self.step_duration = float(step_duration)
        self.queue = FluidQueue()
        self._step = 0
        self._last_chunk_step = -1  # arrival step of the current file's last chunk
        self._video_flag = 0

    def _arrivals(self, rng: np.random.Generator) -> list[float]:
        p = self.profile
        if p.kind == "video":
            pos = self._step % p.cycle_length
            if pos == 0:
                self._last_chunk_step = self._step + p.chunk_count - 1
                self._video_flag = 0
            return [p.file_size / p.chunk_count] if pos < p.chunk_count else []
        if p.kind == "voice":
            return [p.packet_size]
        count = int(rng.poisson(p.mean_arrivals))
        if count == 0:
            return []
        return rng.uniform(p.size_min, p.size_max, size=count).tolist()

    def advance(self, bandwidth: float, rng: np.random.Generator) -> StepStats:
        """Generate this step's arrivals, then drain at ``bandwidth``."""
        if not bandwidth >= 0:  # NaN fails this comparison too
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth}")
        step = self._step
        arrived = 0.0
        for size in self._arrivals(rng):
            self.queue.add(step, size)
            arrived += size
        done, served = self.queue.serve(bandwidth * self.step_duration)
        # A slice queues only its own service, so the current file's last
        # chunk is the one request that arrived on its step.
        if self._last_chunk_step in done:
            self._video_flag = 1
        if done:
            mean_latency = _mean([(step - arrival + 1) * self.step_duration for arrival in done])
        else:
            mean_latency = self.step_duration
        self._step += 1
        # Positional: half the cost of keywords, on every step of every slice.
        return StepStats(len(done), mean_latency, self._video_flag, arrived, served, self.queue.backlog)
