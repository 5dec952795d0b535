"""Spans around the program's layer boundaries, recorded from outside.

``install`` wraps each public function at every place it is looked up: a
function is replaced in every loaded ``rlalloc`` module that holds it (``td3``
and ``dqn`` import ``adam_step`` and ``mlp_forward`` by name, so patching
``rlalloc.numerics`` alone would record nothing), and a method is replaced
on its class. Spans stay in memory with a link to the span that was open
when they started; ``summary`` turns them into per-layer calls, busy time and
self time (busy time minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, class or None for a module function, attribute), in
# layer order. SlicingEnv.step calls step_allocation: both map to one span
# name, and a span never opens inside another of its own name.
BOUNDARIES = (
    ("numerics.mlp_forward", "rlalloc.numerics", None, "mlp_forward"),
    ("numerics.mlp_gradients", "rlalloc.numerics", None, "mlp_gradients"),
    ("numerics.adam_step", "rlalloc.numerics", None, "adam_step"),
    ("numerics.soft_update", "rlalloc.numerics", None, "soft_update"),
    ("replay.push", "rlalloc.replay", "ReplayBuffer", "push"),
    ("replay.sample", "rlalloc.replay", "ReplayBuffer", "sample"),
    ("td3.select_action", "rlalloc.td3", "Td3Agent", "select_action"),
    ("td3.train_step", "rlalloc.td3", "Td3Agent", "train_step"),
    ("dqn.select_action", "rlalloc.dqn", "DqnAgent", "select_action"),
    ("dqn.train_step", "rlalloc.dqn", "DqnAgent", "train_step"),
    ("dqn.sync_target", "rlalloc.dqn", "DqnAgent", "sync_target"),
    ("slicing.demands_at", "rlalloc.slicing", "SliceConfig", "demands_at"),
    ("slicing.water_fill_optimal", "rlalloc.slicing", None, "water_fill_optimal"),
    ("slicing.env_step", "rlalloc.slicing", "SlicingEnv", "step"),
    ("slicing.env_step", "rlalloc.slicing", "SlicingEnv", "step_allocation"),
    ("traffic.advance", "rlalloc.traffic", "SliceTraffic", "advance"),
    ("mec.evaluate_action", "rlalloc.mec", None, "evaluate_action"),
    ("mec.brute_force_optimal", "rlalloc.mec", None, "brute_force_optimal"),
    ("mec.random_routing", "rlalloc.mec", None, "random_routing"),
    ("mec.env_step", "rlalloc.mec", "MecEnv", "step"),
    ("harness.run_experiment", "rlalloc.harness", None, "run_experiment"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))
# Spans whose self time is reported; every span reports calls and busy time.
SELF_TIMED = ("td3.train_step", "dqn.train_step", "slicing.env_step",
              "mec.brute_force_optimal", "mec.env_step")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.params = 0  # parameter elements passed through adam_step
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index][1:3] = start, end

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``s`` (busy) and ``self_s`` (busy minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered
        return out


def install() -> Tracer:
    """Wrap every traced boundary of the loaded program; returns the recorder."""
    tracer = Tracer()
    loaded = [m for n, m in sys.modules.items() if n == "rlalloc" or n.startswith("rlalloc.")]
    for name, module_name, cls_name, attr in BOUNDARIES:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            cls = getattr(module, cls_name)
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(name, original)
        if attr == "adam_step":
            traced = _counting_params(tracer, traced)
        for holder in loaded:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
    return tracer


def _counting_params(tracer: Tracer, traced):
    @functools.wraps(traced)
    def counted(mlp, *args, **kwargs):
        result = traced(mlp, *args, **kwargs)
        tracer.params += mlp.parameter_count()
        return result

    return counted
