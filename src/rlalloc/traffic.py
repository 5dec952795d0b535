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
from typing import NamedTuple

import numpy as np

from rlalloc.exceptions import is_count, is_real

# The fields each service kind reads; the others keep their defaults.
_KIND_FIELDS = {
    "video": ("file_size", "cycle_length", "chunk_count"),
    "voice": ("packet_size",),
    "chat": ("mean_arrivals", "size_min", "size_max"),
}
SERVICE_KINDS = tuple(_KIND_FIELDS)


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
            if not (is_real(mean) and 0 <= mean < math.inf):
                raise ValueError(f"chat mean_arrivals must be non-negative, got {mean!r}")
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


class Arrival(NamedTuple):
    size: float
    tag: tuple | None  # video: (file_id, chunk_index)


class Completion(NamedTuple):
    arrival_step: int
    tag: tuple | None


class _Pending:
    __slots__ = ("arrival_step", "remaining", "tag")

    def __init__(self, arrival_step: int, remaining: float, tag: tuple | None):
        self.arrival_step = arrival_step
        self.remaining = remaining
        self.tag = tag


class FluidQueue:
    """FIFO queue of divisible requests drained at a per-step budget."""

    def __init__(self) -> None:
        self._pending: deque[_Pending] = deque()
        self.backlog = 0.0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, step: int, size: float, tag: tuple | None = None) -> None:
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        self._pending.append(_Pending(step, float(size), tag))
        self.backlog += float(size)

    def serve(self, budget: float) -> tuple[list[Completion], float]:
        """Drain up to ``budget`` of work; returns completions and the drained amount."""
        if budget < 0:
            raise ValueError(f"service budget must be non-negative, got {budget}")
        served = 0.0
        done: list[Completion] = []
        remaining_budget = float(budget)
        while self._pending and remaining_budget > 0.0:
            head = self._pending[0]
            if head.remaining <= remaining_budget:
                remaining_budget -= head.remaining
                served += head.remaining
                done.append(Completion(head.arrival_step, head.tag))
                self._pending.popleft()
            else:
                head.remaining -= remaining_budget
                served += remaining_budget
                remaining_budget = 0.0
        self.backlog -= served
        if not self._pending:
            self.backlog = 0.0
        return done, served


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
        self._file_id = -1
        self._video_flag = 0

    def _arrivals(self, rng: np.random.Generator) -> list[Arrival]:
        p = self.profile
        if p.kind == "video":
            pos = self._step % p.cycle_length
            if pos == 0:
                self._file_id += 1
                self._video_flag = 0
            if pos < p.chunk_count:
                chunk = p.file_size / p.chunk_count
                return [Arrival(chunk, (self._file_id, pos))]
            return []
        if p.kind == "voice":
            return [Arrival(p.packet_size, None)]
        count = int(rng.poisson(p.mean_arrivals))
        if count == 0:
            return []
        sizes = rng.uniform(p.size_min, p.size_max, size=count)
        return [Arrival(float(s), None) for s in sizes]

    def advance(self, bandwidth: float, rng: np.random.Generator) -> StepStats:
        """Generate this step's arrivals, then drain at ``bandwidth``."""
        if bandwidth < 0:
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth}")
        step = self._step
        arrivals = self._arrivals(rng)
        arrived = 0.0
        for a in arrivals:
            self.queue.add(step, a.size, a.tag)
            arrived += a.size
        completions, served = self.queue.serve(bandwidth * self.step_duration)
        if self.profile.kind == "video":
            last_chunk = self.profile.chunk_count - 1
            for c in completions:
                if c.tag is not None and c.tag == (self._file_id, last_chunk):
                    self._video_flag = 1
        if completions:
            latencies = [(step - c.arrival_step + 1) * self.step_duration for c in completions]
            mean_latency = float(np.mean(latencies))
        else:
            mean_latency = self.step_duration
        self._step += 1
        return StepStats(
            completed=len(completions),
            mean_latency=mean_latency,
            video_flag=self._video_flag,
            arrived=arrived,
            served=served,
            backlog=self.queue.backlog,
        )
