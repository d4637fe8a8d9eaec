"""Command-line driver.

Subcommands: dynamics, sweep, contour, opt-time.  Configuration comes from a
flat key=value file (``#`` comments) plus ``--key value`` overrides; direct
detunings win over omegas when both are given.  Output is CSV with numbers
rendered to 12 significant digits, a pure function of the config: repeated
runs are byte-identical.  ``--threads`` is accepted for compatibility and has
no effect: every subcommand evaluates serially.

Exit codes: 0 success, 2 config/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .metrics import METRIC_NAMES
from .model import SystemParams, derive_detunings
from .states import AccountingMode
from .sweeps import (
    VarySpec,
    max_ergotropy_grid,
    optimal_time_sweep,
    panel_sweep,
    time_grid,
    time_series,
)

__all__ = ["main"]

_PARAM_KEYS = (
    "omega_a",
    "omega_b",
    "omega_m",
    "omega_q",
    "delta_1",
    "delta_2",
    "delta_3",
    "g_a",
    "g_b",
    "lambda",
    "kappa_a",
    "kappa_b",
    "kappa_m",
    "gamma",
)
_TIME_KEYS = ("t_max", "dt")
_SWEEP_KEYS = (
    "vary",
    "vary_values",
    "vary_min",
    "vary_max",
    "vary_count",
    "vary2",
    "vary2_values",
    "vary2_min",
    "vary2_max",
    "vary2_count",
)
_ALL_KEYS = frozenset(_PARAM_KEYS + _TIME_KEYS + _SWEEP_KEYS + ("mode",))

_DELTA_KEYS = ("delta_1", "delta_2", "delta_3")

_DEFAULTS = {
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

_MODES = {
    "paper": AccountingMode.PAPER,
    "repaired": AccountingMode.TRACE_REPAIRED,
    "trace_repaired": AccountingMode.TRACE_REPAIRED,
}

_DYNAMICS_HEADER = ",".join(("t",) + METRIC_NAMES)


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; `#` starts a comment; unknown keys are errors."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _ALL_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if not value:
                raise ValueError(f"{path}:{lineno}: empty value for {key!r}")
            entries[key] = value
    return entries


def parse_overrides(tokens: list[str]) -> dict[str, str]:
    """Turn leftover `--key value` (or `--key=value`) pairs into config entries."""
    out: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ValueError(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ValueError(f"missing value for --{key}")
            value = tokens[i + 1]
            i += 2
        if key not in _ALL_KEYS:
            raise ValueError(f"unknown config key --{key}")
        out[key] = value
    return out


def _as_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ValueError(f"config key {key!r}: not a number: {cfg[key]!r}") from None


def _as_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ValueError(f"config key {key!r}: not an integer: {cfg[key]!r}") from None


def build_params(cfg: dict[str, str]) -> SystemParams:
    """SystemParams from resolved config; direct detunings beat the omegas."""
    rates = {
        "g_a": _as_float(cfg, "g_a"),
        "g_b": _as_float(cfg, "g_b"),
        "lam": _as_float(cfg, "lambda"),
        "kappa_a": _as_float(cfg, "kappa_a"),
        "kappa_b": _as_float(cfg, "kappa_b"),
        "kappa_m": _as_float(cfg, "kappa_m"),
        "gamma": _as_float(cfg, "gamma"),
    }
    from_omegas = SystemParams(
        omega_a=_as_float(cfg, "omega_a"),
        omega_b=_as_float(cfg, "omega_b"),
        omega_m=_as_float(cfg, "omega_m"),
        omega_q=_as_float(cfg, "omega_q"),
        **rates,
    )
    if not any(key in cfg for key in _DELTA_KEYS):
        return from_omegas
    derived = derive_detunings(from_omegas)
    deltas = {
        key: (_as_float(cfg, key) if key in cfg else getattr(derived, key))
        for key in _DELTA_KEYS
    }
    return SystemParams.from_detunings(
        deltas["delta_1"],
        deltas["delta_2"],
        deltas["delta_3"],
        omega_q=from_omegas.omega_q,
        **rates,
    )


def build_vary(cfg: dict[str, str], prefix: str) -> VarySpec | None:
    """VarySpec from `<prefix>` + `<prefix>_values` or `<prefix>_min/_max/_count`."""
    spec_keys = [f"{prefix}_{suffix}" for suffix in ("values", "min", "max", "count")]
    if prefix not in cfg:
        given = [k for k in spec_keys if k in cfg]
        if given:
            raise ValueError(f"{given[0]} given without {prefix}")
        return None
    name = cfg[prefix]
    values_key, min_key, max_key, count_key = spec_keys
    has_values = values_key in cfg
    has_range = any(key in cfg for key in (min_key, max_key, count_key))
    if has_values and has_range:
        raise ValueError(f"give either {values_key} or {min_key}/{max_key}/{count_key}, not both")
    if has_values:
        items = [item.strip() for item in cfg[values_key].split(",")]
        values = [item for item in items if item]
        if not values:
            raise ValueError(f"{values_key} is empty")
        try:
            parsed = tuple(float(item) for item in values)
        except ValueError:
            raise ValueError(f"config key {values_key!r}: not a number list: {cfg[values_key]!r}") from None
        return VarySpec(name, parsed)
    if has_range:
        missing = [key for key in (min_key, max_key, count_key) if key not in cfg]
        if missing:
            raise ValueError(f"incomplete range: missing {', '.join(missing)}")
        return VarySpec.linspace(
            name, _as_float(cfg, min_key), _as_float(cfg, max_key), _as_int(cfg, count_key)
        )
    raise ValueError(f"{prefix} = {name} given without {values_key} or a {min_key}/{max_key}/{count_key} range")


def _resolve_mode(cfg: dict[str, str]) -> AccountingMode:
    try:
        return _MODES[cfg["mode"]]
    except KeyError:
        raise ValueError(f"unknown mode {cfg['mode']!r}; expected 'paper' or 'repaired'") from None


def _fmt(x: float) -> str:
    """Shortest locale-independent rendering within 12 significant digits."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid '-0'
    return format(x, ".12g")


def _write_lines(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _config_digest(cfg: dict[str, str]) -> str:
    canonical = "\n".join(f"{key}={cfg[key]}" for key in sorted(cfg))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _metric_rows(prefix: list[str], table) -> list[str]:
    return [",".join(prefix + [_fmt(v) for v in row]) for row in table.tolist()]


def run_dynamics(cfg: dict[str, str], out: str | None) -> int:
    params = build_params(cfg)
    times = time_grid(_as_float(cfg, "t_max"), _as_float(cfg, "dt"))
    table = time_series(params, times, _resolve_mode(cfg))
    _write_lines(out, [_DYNAMICS_HEADER] + _metric_rows([], table))
    return 0


def run_sweep(cfg: dict[str, str], out: str | None) -> int:
    vary = build_vary(cfg, "vary")
    if vary is None:
        raise ValueError("sweep needs a swept parameter (config key 'vary')")
    params = build_params(cfg)
    times = time_grid(_as_float(cfg, "t_max"), _as_float(cfg, "dt"))
    curves = panel_sweep(params, vary, times, _resolve_mode(cfg))
    lines = ["param_name,param_value," + _DYNAMICS_HEADER]
    for value, table in curves:
        lines += _metric_rows([vary.parameter_name, _fmt(value)], table)
    _write_lines(out, lines)
    return 0


def run_contour(cfg: dict[str, str], out: str | None) -> int:
    vary_x = build_vary(cfg, "vary")
    vary_y = build_vary(cfg, "vary2")
    if vary_x is None or vary_y is None:
        raise ValueError("contour needs two swept parameters (config keys 'vary' and 'vary2')")
    if out is None:
        raise ValueError("contour needs --out (a sidecar metadata file accompanies the CSV)")
    params = build_params(cfg)
    times = time_grid(_as_float(cfg, "t_max"), _as_float(cfg, "dt"))
    grid = max_ergotropy_grid(params, vary_x, vary_y, times, _resolve_mode(cfg))
    lines = ["x_name,x,y_name,y,max_ergotropy"]
    for i, yv in enumerate(grid.y_values):
        for j, xv in enumerate(grid.x_values):
            lines.append(
                ",".join(
                    [grid.x_name, _fmt(xv), grid.y_name, _fmt(yv), _fmt(grid.z[i, j])]
                )
            )
    _write_lines(out, lines)
    metadata = dict(grid.metadata)
    metadata["config_sha256"] = _config_digest(cfg)
    with open(out + ".meta.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(metadata, sort_keys=True, indent=2) + "\n")
    return 0


def run_opt_time(cfg: dict[str, str], out: str | None) -> int:
    vary = build_vary(cfg, "vary")
    if vary is None:
        raise ValueError("opt-time needs a swept parameter (config key 'vary')")
    params = build_params(cfg)
    times = time_grid(_as_float(cfg, "t_max"), _as_float(cfg, "dt"))
    rows = optimal_time_sweep(params, vary, times, _resolve_mode(cfg))
    lines = ["param_name,param_value,tau,e_max"]
    for value, tau, e_max in rows:
        lines.append(",".join([vary.parameter_name, _fmt(value), _fmt(tau), _fmt(e_max)]))
    _write_lines(out, lines)
    return 0


_COMMANDS = {
    "dynamics": run_dynamics,
    "sweep": run_sweep,
    "contour": run_contour,
    "opt-time": run_opt_time,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magbattery",
        description="Single-excitation quantum battery simulator: dynamics, sweeps, contours, charging times.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{dynamics,sweep,contour,opt-time}")
    helps = {
        "dynamics": "metric time series for one parameter set",
        "sweep": "time series per value of one swept parameter ('vary')",
        "contour": "max-ergotropy grid over two swept parameters ('vary' = x, 'vary2' = y)",
        "opt-time": "optimal charging time per value of one swept parameter",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file ('#' comments)")
        p.add_argument("--out", metavar="PATH", help="output CSV path (default: stdout)")
        p.add_argument("--mode", choices=("paper", "repaired"), help="accounting of decayed weight (default: paper)")
        p.add_argument(
            "--threads",
            type=int,
            metavar="N",
            help="accepted for compatibility; has no effect (evaluation is serial)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:  # argparse has already printed its diagnostic
        return int(exc.code or 0)
    try:
        cfg = dict(_DEFAULTS)
        if args.config is not None:
            cfg.update(parse_config_file(args.config))
        cfg.update(parse_overrides(extra))
        if args.mode is not None:
            cfg["mode"] = args.mode
        if args.threads is not None and args.threads < 1:
            raise ValueError("--threads must be >= 1")
        return _COMMANDS[args.command](cfg, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
