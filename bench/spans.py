"""In-memory span recorder for the traced benchmark run.

Every public function of the package's layer modules is wrapped under each
name it is bound to: its own module and every consumer that imported it
(`sweeps.evolve`, `metrics.battery_density`, `magbattery.evolve`, ...).  A
call through any of those names records one span (function, parent span,
start, end).  Spans stay in memory until the run ends; a span's self time is
its duration minus that of its child spans, so the self times of all spans sum
to the duration of the outermost one.

Spans nest only on one thread: a wrapped call from any other thread raises, so
the traced run must evaluate serially.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("model", "propagator", "states", "metrics", "sweeps", "cli")
# cli functions that resolve the configuration: reported as cli.config_s, so
# cli.self_s is what remains of the CLI (formatting, writing, sidecar)
CONFIG_FUNCTIONS = frozenset(("parse_config_file", "parse_overrides", "build_params", "build_vary"))
# functions whose arguments and result are kept for counters computed after the run
PROBED = frozenset(("matrix_exponential", "evolve", "oracle_integrate"))

# one complex 4x4 matrix-vector product: 16 complex multiply-adds of 8 real flops
FLOPS_PER_STEP = 128
# classical RK4 substep bound of oracle_integrate's default max_step
ORACLE_MAX_STEP = 1e-3


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []  # "layer:function" per name id
        self.spans: list[list] = []  # [name id, parent index, start ns, end ns, probe]
        self._stack = [-1]
        self._owner = threading.get_ident()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, owner = self.spans, self._stack, self._owner
        clock, get_ident = time.perf_counter_ns, threading.get_ident
        probed = name.split(":", 1)[1] in PROBED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != owner:
                raise RuntimeError(f"{name} called off the traced thread; run serially")
            rec = [name_id, stack[-1], 0, 0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if probed:
                rec[4] = (args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap the layer functions of `package` under every bound name, then restore."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        consumers = modules + [package]
        undo = []
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                kind = "cli.config" if layer == "cli" and attr in CONFIG_FUNCTIONS else layer
                traced = self.wrap(f"{kind}:{attr}", fn)
                for consumer in consumers:
                    for bound, value in list(vars(consumer).items()):
                        if value is fn:
                            undo.append((consumer, bound, fn))
                            setattr(consumer, bound, traced)
        try:
            yield self
        finally:
            for consumer, bound, fn in reversed(undo):
                setattr(consumer, bound, fn)

    def summary(self) -> dict:
        """Per-layer self seconds, per-function calls and the computed counters."""
        child_ns = [0] * len(self.spans)
        for name_id, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layer_self: dict[str, float] = {}
        fn_calls: dict[str, int] = {}
        fn_self: dict[str, float] = {}
        fn_total: dict[str, float] = {}
        counters = {"steps": 0, "expm_squarings": 0, "oracle_substeps": 0, "traj_bytes": 0,
                    "sweep_cells": 0}
        for i, (name_id, parent, start, end, probe) in enumerate(self.spans):
            name = self.names[name_id]
            layer, fn = name.split(":", 1)
            own = (end - start - child_ns[i]) * 1e-9
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_self[name] = fn_self.get(name, 0.0) + own
            fn_total[name] = fn_total.get(name, 0.0) + (end - start) * 1e-9
            if probe is not None:
                _count(fn, probe, counters)
                if fn == "evolve" and parent >= 0:
                    if self.names[self.spans[parent][0]].startswith("sweeps:"):
                        counters["sweep_cells"] += 1
        roots = [end - start for _, parent, start, end, _ in self.spans if parent < 0]
        return {
            "layer_self_s": layer_self,
            "calls": fn_calls,
            "self_s": fn_self,
            "total_s": fn_total,
            "counters": counters,
            "root_s": sum(roots) * 1e-9,
        }


def _count(fn: str, probe, counters: dict) -> None:
    args, kwargs, result = probe
    if fn == "matrix_exponential":
        norm = float(np.linalg.norm(np.asarray(args[0]), np.inf))
        if norm > 0.5:
            counters["expm_squarings"] += int(math.ceil(math.log2(norm) + 1.0))
    elif fn == "evolve":
        counters["steps"] += max(len(result.times) - 1, 0)
        # the rotated-frame z and the C-frame amplitudes exist together
        counters["traj_bytes"] = max(counters["traj_bytes"], 2 * result.amplitudes.nbytes)
    elif fn == "oracle_integrate":
        max_step = kwargs.get("max_step", ORACLE_MAX_STEP)
        t = np.concatenate(([0.0], np.asarray(result.times, dtype=float)))
        spans = np.diff(t)
        counters["oracle_substeps"] += int(np.ceil(spans[spans > 0] / max_step).sum())
