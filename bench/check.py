"""Output checks for the benchmark, run outside the timed region.

`check_output` validates one run's files against the workload spec: exact
header and row count, finite values, physical bounds, per-curve norm decay and
the contour sidecar digest.  `recompute` re-derives a few seeded cells from
`oracle_integrate` amplitudes with the closed-form metrics below, which share
no code with the package's metric layer.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from workloads import config_digest

HEADERS = {
    "sweep": "param_name,param_value,t,coherence,energy,ergotropy,purity,norm",
    "contour": "x_name,x,y_name,y,max_ergotropy",
    "opt-time": "param_name,param_value,tau,e_max",
    "oracle": "draw,max_abs_diff",
}
# Slack for bounds checked on values printed to 12 significant digits.
BOUND_SLACK = 1e-10
NORM_SLACK = 1e-9
# Per-step norm increase tolerated: the 12th printed digit of a norm near 1.
DECAY_SLACK = 1e-11
# evolve versus the RK4 oracle (acceptance criterion 1), and printed metrics
# versus their recomputation from oracle amplitudes.
ORACLE_TOL = 1e-6
RECOMPUTED_CELLS = 2


def closed_form(c: np.ndarray, omega_q: float = 1.0, mode: str = "paper") -> dict:
    """All five metrics from (..., 4) amplitudes through the populations |C_n|^2.

    The battery state has spectrum {g', 2|C4|^2, 0, 0}, with g' the ground
    population (paper) or 1 - 2|C4|^2 (trace repaired); ergotropy is then
    omega_q * max(0, 2|C4|^2 - g') and purity g'^2 + 4|C4|^4.
    """
    pop = np.abs(np.asarray(c)) ** 2
    field = pop[..., 0] + pop[..., 1] + pop[..., 2]
    shared = pop[..., 3]
    if mode == "paper":
        ground, energy = field, omega_q * (1.0 - field)
    elif mode in ("repaired", "trace_repaired"):
        ground, energy = 1.0 - 2.0 * shared, 2.0 * omega_q * shared
    else:
        raise ValueError(f"unknown mode {mode!r}")
    a = np.abs(np.asarray(c))
    return {
        "coherence": 2.0 * (a[..., 0] * a[..., 1] + a[..., 0] * a[..., 2] + a[..., 1] * a[..., 2]),
        "energy": energy,
        "ergotropy": omega_q * np.maximum(0.0, 2.0 * shared - ground),
        "purity": ground**2 + 4.0 * shared**2,
        "norm": field + 2.0 * shared,
    }


def read_csv(path: str) -> tuple[str, list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def _numbers(rows, columns, problems) -> np.ndarray:
    try:
        values = np.array([[float(row[c]) for c in columns] for row in rows], dtype=float)
    except (ValueError, IndexError) as exc:
        problems.append(f"unparseable row: {exc}")
        return np.empty((0, len(columns)))
    if not np.all(np.isfinite(values)):
        problems.append("non-finite value in output")
    return values


def check_output(spec: dict) -> list[str]:
    """Problems found in the files of one run; an empty list means it passed."""
    problems: list[str] = []
    kind = spec["command"] if spec["kind"] == "cli" else "oracle"
    try:
        header, rows = read_csv(spec["out"])
    except (OSError, ValueError) as exc:
        return [f"cannot read output: {exc}"]
    if header != HEADERS[kind]:
        problems.append(f"header {header!r} != {HEADERS[kind]!r}")
    if len(rows) != spec["rows"]:
        problems.append(f"{len(rows)} rows, expected {spec['rows']}")
    width = HEADERS[kind].count(",") + 1
    if any(len(row) != width for row in rows):
        return problems + [f"row without {width} fields"]
    if problems:
        return problems
    if kind != "oracle":
        cfg = spec["config"]
        names = {row[0] for row in rows} | {row[2] for row in rows if kind == "contour"}
        if names != {cfg["vary"], cfg.get("vary2", cfg["vary"])}:
            problems.append(f"swept parameter names {sorted(names)} differ from the inputs")
    if kind == "sweep":
        v = _numbers(rows, range(1, 8), problems)
        if problems:
            return problems
        grid = np.arange(spec["time_points"]) * float(spec["config"]["dt"])
        if np.any(np.abs(v[:, 1].reshape(spec["cells"], -1) - grid) > BOUND_SLACK):
            problems.append("time column differs from the grid")
        energy, ergotropy, norm = v[:, 3], v[:, 4], v[:, 6]
        if np.any(ergotropy < 0.0) or np.any(ergotropy > energy + BOUND_SLACK):
            problems.append("ergotropy outside [0, energy]")
        if np.any(norm > 1.0 + NORM_SLACK):
            problems.append("norm above 1")
        curves = norm.reshape(spec["cells"], spec["time_points"])
        if np.any(np.diff(curves, axis=1) > DECAY_SLACK):
            problems.append("norm increases within a curve")
        values = [float(x) for x in spec["config"]["vary_values"].split(",")]
        if not np.array_equal(v[:: spec["time_points"], 0], values):
            problems.append("curve parameter values differ from the inputs")
    elif kind == "contour":
        v = _numbers(rows, (1, 3, 4), problems)
        if problems:
            return problems
        omega_q = float(spec["config"]["omega_q"])
        if np.any(v[:, 2] < 0.0) or np.any(v[:, 2] > omega_q + BOUND_SLACK):
            problems.append("max_ergotropy outside [0, omega_q]")
        problems += _check_sidecar(spec)
    elif kind == "opt-time":
        v = _numbers(rows, (1, 2, 3), problems)
        if problems:
            return problems
        t_max = float(spec["config"]["t_max"])
        omega_q = float(spec["config"]["omega_q"])
        if np.any(v[:, 1] < 0.0) or np.any(v[:, 1] > t_max + BOUND_SLACK):
            problems.append("tau outside the time grid")
        if np.any(v[:, 2] < 0.0) or np.any(v[:, 2] > omega_q + BOUND_SLACK):
            problems.append("e_max outside [0, omega_q]")
    else:
        v = _numbers(rows, (1,), problems)
        if not problems and np.any(v[:, 0] > ORACLE_TOL):
            problems.append(f"evolve differs from oracle_integrate by {v[:, 0].max():.3g}")
    return problems


def _check_sidecar(spec: dict) -> list[str]:
    try:
        with open(spec["out"] + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read sidecar: {exc}"]
    problems = []
    if meta.get("config_sha256") != config_digest(spec["config"]):
        problems.append("sidecar config_sha256 differs from the digest of the inputs")
    if meta.get("time_points") != spec["time_points"]:
        problems.append("sidecar time_points differs from the inputs")
    return problems


def _params(config: dict, **swept: float):
    """SystemParams of a generated config with the swept parameters substituted."""
    from magbattery import SystemParams

    keys = ("delta_1", "delta_2", "delta_3", "omega_q", "g_a", "g_b", "lambda",
            "kappa_a", "kappa_b", "kappa_m", "gamma")
    v = {key: float(config[key]) for key in keys}
    v.update(swept)
    return SystemParams.from_detunings(
        v["delta_1"], v["delta_2"], v["delta_3"], omega_q=v["omega_q"], g_a=v["g_a"],
        g_b=v["g_b"], lam=v["lambda"], kappa_a=v["kappa_a"], kappa_b=v["kappa_b"],
        kappa_m=v["kappa_m"], gamma=v["gamma"],
    )


def recompute(spec: dict, seed: int) -> list[str]:
    """Re-derive RECOMPUTED_CELLS seeded cells of a CLI output from the RK4 oracle."""
    from magbattery import oracle_integrate

    if spec["kind"] != "cli":
        return []
    cfg = spec["config"]
    omega_q, dt, mode = float(cfg["omega_q"]), float(cfg["dt"]), cfg["mode"]
    grid = np.arange(spec["time_points"]) * dt
    _, rows = read_csv(spec["out"])
    rng = random.Random(f"recompute/{spec['name']}/{seed}")
    problems = []
    for index in rng.sample(range(len(rows)), RECOMPUTED_CELLS):
        row = rows[index]
        if spec["command"] == "sweep":
            p = _params(cfg, **{row[0]: float(row[1])})
            k = index % spec["time_points"]
            c = oracle_integrate(p, grid[: k + 1]).amplitudes[-1]
            ref = closed_form(c, omega_q, mode)
            got = dict(zip(("coherence", "energy", "ergotropy", "purity", "norm"), map(float, row[3:])))
            if abs(float(row[2]) - grid[k]) > 1e-9:
                problems.append(f"row {index}: time {row[2]} is not grid point {k}")
        elif spec["command"] == "contour":
            p = _params(cfg, **{row[0]: float(row[1]), row[2]: float(row[3])})
            c = oracle_integrate(p, grid).amplitudes
            ref = {"max_ergotropy": float(closed_form(c, omega_q, mode)["ergotropy"].max())}
            got = {"max_ergotropy": float(row[4])}
        else:
            p = _params(cfg, **{row[0]: float(row[1])})
            e = closed_form(oracle_integrate(p, grid).amplitudes, omega_q, mode)["energy"]
            tau_index = int(round(float(row[2]) / dt))
            ref = {"e_max": float(e.max()), "e_at_tau": float(e.max())}
            got = {"e_max": float(row[3]), "e_at_tau": float(e[tau_index])}
        for key, want in ref.items():
            if not math.isclose(got[key], want, rel_tol=0.0, abs_tol=ORACLE_TOL):
                problems.append(f"row {index}: {key} {got[key]!r} differs from oracle {want!r}")
    return problems
