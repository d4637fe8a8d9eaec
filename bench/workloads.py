"""Seeded inputs for the four benchmark workloads.

A workload spec is a plain JSON-able dict.  The CLI workloads carry a complete
flat config (every key the CLI has a default for is written out, so the
resolved configuration equals the file and its digest can be recomputed
without the package); the library workload carries its parameter draws.  The
program under test only ever sees these generated inputs.

Sizes are the shipped configs scaled down so that one run takes about half a
second, keeping each workload's ratio of cells to time points.
"""

from __future__ import annotations

import hashlib
import os
import random

NAMES = ("panel", "contour", "opt_time", "oracle")

# The CLI's own defaults, repeated here on purpose: the benchmark states its
# inputs in full instead of inheriting whatever a later version defaults to.
CLI_DEFAULTS = {
    "omega_a": "1",
    "omega_b": "1",
    "omega_m": "1",
    "omega_q": "1",
    "g_a": "1",
    "g_b": "1",
    "lambda": "1",
    "kappa_a": "0",
    "kappa_b": "0",
    "kappa_m": "0",
    "gamma": "0",
    "t_max": "20",
    "dt": "0.01",
    "mode": "paper",
}
UNIT_DETUNINGS = {"delta_1": "1", "delta_2": "1", "delta_3": "1"}

# configs/sweep_gamma.cfg has 8 curves x 2001 points; 4 x 1001 keeps the ratio.
PANEL_CURVES = 4
PANEL_T_MAX = 10.0
# configs/contour_coupling_plane.cfg is 30x30 cells x 2001 points; 12x12 x 321.
CONTOUR_SIDE = 12
CONTOUR_T_MAX = 3.2
# configs/opt_time_gb_saturation.cfg horizon, with many more g_b values.
OPT_TIME_VALUES = 400
OPT_TIME_T_MAX = 2.0
# Acceptance criterion 1: lossy draws compared on linspace(0, 10, 21).
ORACLE_DRAWS = 1
ORACLE_T_MAX = 10.0
ORACLE_POINTS = 21

DT = 0.01


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _points(t_max: float, dt: float = DT) -> int:
    return int(round(t_max / dt)) + 1


def _sorted_draws(rng: random.Random, count: int, low: float, high: float) -> str:
    return ", ".join(f"{v:.6f}" for v in sorted(rng.uniform(low, high) for _ in range(count)))


def _cli_spec(name, command, config, cells, time_points, rows, extra=()):
    full = dict(CLI_DEFAULTS)
    full.update(config)
    return {
        "name": name,
        "kind": "cli",
        "command": command,
        "config": full,
        "extra_args": list(extra),
        "cells": cells,
        "time_points": time_points,
        "rows": rows,
    }


def make(name: str, seed: int) -> dict:
    """The spec of workload `name` for `seed`; equal seeds give equal specs."""
    rng = random.Random(f"{name}/{seed}")
    if name == "panel":
        t = _points(PANEL_T_MAX)
        config = dict(UNIT_DETUNINGS, t_max=f"{PANEL_T_MAX:g}", dt=f"{DT:g}", vary="gamma",
                      vary_values=_sorted_draws(rng, PANEL_CURVES, 0.0, 0.5))
        return _cli_spec(name, "sweep", config, PANEL_CURVES, t, PANEL_CURVES * t)
    if name == "contour":
        t = _points(CONTOUR_T_MAX)
        config = dict(UNIT_DETUNINGS, t_max=f"{CONTOUR_T_MAX:g}", dt=f"{DT:g}")
        for axis, coupling in (("vary", "g_a"), ("vary2", "g_b")):
            config[axis] = coupling
            config[f"{axis}_min"] = f"{0.1 + rng.uniform(-0.05, 0.05):.6f}"
            config[f"{axis}_max"] = f"{3.0 + rng.uniform(-0.1, 0.1):.6f}"
            config[f"{axis}_count"] = str(CONTOUR_SIDE)
        cells = CONTOUR_SIDE * CONTOUR_SIDE
        return _cli_spec(name, "contour", config, cells, t, cells, ("--threads", str(nproc())))
    if name == "opt_time":
        config = dict(UNIT_DETUNINGS, t_max=f"{OPT_TIME_T_MAX:g}", dt=f"{DT:g}", vary="g_b",
                      vary_values=_sorted_draws(rng, OPT_TIME_VALUES, 0.5, 8.0))
        return _cli_spec(name, "opt-time", config, OPT_TIME_VALUES, _points(OPT_TIME_T_MAX),
                         OPT_TIME_VALUES)
    if name == "oracle":
        # detunings, couplings and decay rates, all uniform in [0, 2]
        draws = [[rng.uniform(0.0, 2.0) for _ in range(10)] for _ in range(ORACLE_DRAWS)]
        return {
            "name": name,
            "kind": "oracle",
            "draws": draws,
            "t_max": ORACLE_T_MAX,
            "cells": ORACLE_DRAWS,
            "time_points": ORACLE_POINTS,
            "rows": ORACLE_DRAWS,
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


def config_text(config: dict) -> str:
    return "".join(f"{key} = {config[key]}\n" for key in sorted(config))


def config_digest(config: dict) -> str:
    """sha256 over the sorted `key=value` lines of a fully resolved config."""
    canonical = "\n".join(f"{key}={config[key]}" for key in sorted(config))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
