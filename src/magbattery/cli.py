"""Command-line driver.

Subcommands: dynamics, sweep, contour, opt-time.  After the subcommand every
argument is a ``--key value`` or ``--key=value`` pair: the flags --config (a
flat key=value file, ``#`` comments), --out and --threads, or a config key,
which overrides the file; direct detunings win over omegas when both are given.
Output is CSV with numbers rendered to 12 significant digits, a pure function
of the config: repeated runs are byte-identical.  It is rendered as bytes, one row
block at a time, to --out (a binary file opened only after every point is computed)
or decoded to stdout, the same bytes.  The contour's ``<out>.meta.json`` run record is built here.
An existing --out file or sidecar is written over from its start and cut at close to what was
written; a run killed mid-write (SIGKILL) can leave the new rows followed by the old file's
tail, and nothing is synced to disk.
``--threads`` N >= 1 is accepted and has no effect: evaluation is serial.

After the command line and config file are read, a run refuses the first fault
it meets in one order (`_resolve`): ``contour`` without --out; the time grid;
each swept axis as read and counted; a missing axis; the product of the axis
counts and the time points; the axes' values; the base parameters; the mode.

Exit codes: 0 success, 2 config/validation error, 3 I/O error.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from typing import Callable, Iterable, Iterator

try:  # CPython's own SHA-256 (3.12+, then 3.10-3.11): hashlib would load OpenSSL
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from .metrics import METRIC_NAMES
from .model import SystemParams
from .states import _DEFAULT_MODE, AccountingMode
from .sweeps import (
    PARAMETER_NAMES,
    VarySpec,
    _check_size,
    apply_parameters,
    max_ergotropy_grid,
    optimal_time_sweep,
    panel_sweep,
    time_grid,
    time_series,
)

__all__ = ["main"]

_OMEGA_KEYS = ("omega_a", "omega_b", "omega_m", "omega_q")
_VARY_SUFFIXES = ("values", "min", "max", "count")
_SWEEP_KEYS = tuple(
    key
    for prefix in ("vary", "vary2")
    for key in (prefix, *(f"{prefix}_{suffix}" for suffix in _VARY_SUFFIXES))
)
_ALL_KEYS = frozenset(
    _OMEGA_KEYS + PARAMETER_NAMES + ("t_max", "dt", "mode") + _SWEEP_KEYS
) - {"kappa_all"}

# the model's default point as config strings (its field `lam` is the key `lambda`), then the CLI's own keys
_DEFAULTS = {("lambda" if name == "lam" else name): f"{value:g}" for name, value in vars(SystemParams()).items()} | {
    "t_max": "20", "dt": "0.01", "mode": _DEFAULT_MODE.value}

_DYNAMICS_HEADER = ",".join(("t",) + METRIC_NAMES)
_DYNAMICS_ROW = ",".join(["%.12g"] * (1 + len(METRIC_NAMES)))
_BLOCK_ROWS = 2**12  # rows rendered per `%`: the bytes held at a time do not grow with a table


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; `#` starts a comment; unknown keys are errors."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark, as Notepad saves, is not a key
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


def _pieces(tokens: Iterable[str]) -> Iterator[tuple[str, str | None]]:
    """(token, value) per piece: a token that starts with `--` and has no `=` takes the next
    token as its value (None when none is left); any other, the text after its first `=`."""
    rest = iter(tokens)
    for tok in rest:
        _, joined, value = tok.partition("=")
        yield tok, (value if joined or not tok.startswith("--") else next(rest, None))


def parse_overrides(tokens: list[str], keys: frozenset[str]) -> dict[str, str]:
    """Turn `--key value` (or `--key=value`) pairs into entries; each key must be in `keys`."""
    out: dict[str, str] = {}
    for tok, value in _pieces(tokens):
        if not tok.startswith("--"):
            raise ValueError(f"unexpected argument {tok!r}")
        key = tok[2:].partition("=")[0]
        if value is None:
            raise ValueError(f"missing value for --{key}")
        if key not in keys:
            raise ValueError(f"unknown config key --{key}")
        out[key] = value
    return out


def _as_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ValueError(f"config key {key!r}: not a number: {cfg[key]!r}") from None


def build_params(cfg: dict[str, str]) -> SystemParams:
    """SystemParams from resolved config; direct detunings beat the omegas."""
    omegas = SystemParams(**{key: _as_float(cfg, key) for key in _OMEGA_KEYS})
    return apply_parameters(
        omegas, {key: _as_float(cfg, key) for key in PARAMETER_NAMES if key in cfg}
    )


def _read_vary(cfg: dict[str, str], prefix: str) -> tuple[int, Callable[[], VarySpec]] | None:
    """Value count of `<prefix>` + `<prefix>_values` or `<prefix>_min/_max/_count`
    and a callable that builds its VarySpec, or None without `<prefix>`; a range
    is counted without building its values, so a sweep can refuse its size first."""
    values_key, min_key, max_key, count_key = spec_keys = [f"{prefix}_{suffix}" for suffix in _VARY_SUFFIXES]
    given = [key for key in spec_keys if key in cfg]  # in `_VARY_SUFFIXES` order, the values key first
    if prefix not in cfg:
        if given:
            raise ValueError(f"{given[0]} given without {prefix}")
        return None
    name = cfg[prefix]
    if not given:
        raise ValueError(f"{prefix} = {name} given without {values_key} or a {min_key}/{max_key}/{count_key} range")
    if given[0] == values_key:
        if given[1:]:
            raise ValueError(f"give either {values_key} or {min_key}/{max_key}/{count_key}, not both")
        values = [item for item in map(str.strip, cfg[values_key].split(",")) if item]
        if not values:
            raise ValueError(f"{values_key} is empty")
        try:
            parsed = tuple(float(item) for item in values)
        except ValueError:
            raise ValueError(f"config key {values_key!r}: not a number list: {cfg[values_key]!r}") from None
        return len(parsed), lambda: VarySpec(name, parsed)
    if missing := [key for key in spec_keys[1:] if key not in given]:
        raise ValueError(f"incomplete range: missing {', '.join(missing)}")
    try:
        count = int(cfg[count_key])
    except ValueError:
        raise ValueError(f"config key {count_key!r}: not an integer: {cfg[count_key]!r}") from None
    if count < 2:  # before any product of counts is taken
        raise ValueError("linear range needs count >= 2")
    _check_size(count)  # the count alone first, as `VarySpec.linspace` checks it
    return count, lambda: VarySpec.linspace(name, _as_float(cfg, min_key), _as_float(cfg, max_key), count)


def _build_axes(cfg: dict[str, str], prefixes: Iterable[str], time_points: int | None) -> list[VarySpec] | None:
    """Each prefix's VarySpec (see `_read_vary`), or None if one is absent; a sweep
    of their values over `time_points` that is too large is refused before any is built."""
    axes = [_read_vary(cfg, prefix) for prefix in prefixes]
    if None in axes:
        return None
    _check_size(math.prod(count for count, _ in axes), time_points)
    return [build() for _, build in axes]


def build_vary(cfg: dict[str, str], prefix: str) -> VarySpec | None:
    """VarySpec of `<prefix>`, or None without it: `_build_axes` of one prefix."""
    axes = _build_axes(cfg, (prefix,), None)
    return None if axes is None else axes[0]


def _resolve(cfg: dict[str, str], prefixes: tuple[str, ...] = (), missing: str = "") -> tuple:
    """(times, axes, base parameters, mode) of a run, refused in the module docstring's
    order; `missing` is the error when one of the `prefixes` axes is absent."""
    times = time_grid(_as_float(cfg, "t_max"), _as_float(cfg, "dt"))
    axes = _build_axes(cfg, prefixes, times.size)
    if axes is None:
        raise ValueError(missing)
    return times, axes, build_params(cfg), AccountingMode(cfg["mode"])


def _write(path: str, blocks: Iterable[bytes]) -> None:
    """Write `blocks` over `path` from its start, with no O_TRUNC (on ext4, closing a file
    truncated over old data starts its writeback), and cut it at close to what was written
    when it is longer, also after an error mid-write; a file that cannot seek is never cut."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            fh.writelines(blocks)
        finally:
            if fh.seekable() and os.fstat(fh.fileno()).st_size > fh.tell():
                fh.truncate()


def _write_csv(out: str | None, header: str, tables: Iterable[tuple[str, object]]) -> None:
    """The header line, then the rows of each (template, table) pair, as bytes to `out` or
    decoded to stdout, one write per `_BLOCK_ROWS` rows: one row block is held at a time."""
    blocks = itertools.chain([f"{header}\n".encode()], itertools.chain.from_iterable(itertools.starmap(_rows, tables)))
    if out is None:
        sys.stdout.writelines(map(bytes.decode, blocks))
    else:
        _write(out, blocks)


def _config_digest(cfg: dict[str, str]) -> str:
    canonical = "\n".join(f"{key}={cfg[key]}" for key in sorted(cfg))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _rows(template: str, table) -> Iterator[bytes]:
    """`template` % row and a newline per table row, one bytes `%` and one bytes object per
    `_BLOCK_ROWS` rows; %.12g is the shortest locale-independent rendering within 12
    significant digits (as bytes, the text str gives), and + 0.0 turns -0.0 into 0.0."""
    line = f"{template}\n".encode()
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS] + 0.0
        yield line * len(block) % tuple(block.ravel().tolist())


def run_dynamics(cfg: dict[str, str], out: str | None) -> None:
    times, _, params, mode = _resolve(cfg)
    _write_csv(out, _DYNAMICS_HEADER, [(_DYNAMICS_ROW, time_series(params, times, mode))])


def run_sweep(cfg: dict[str, str], out: str | None) -> None:
    times, (vary,), params, mode = _resolve(cfg, ("vary",), "sweep needs a swept parameter (config key 'vary')")
    curves = panel_sweep(params, vary, times, mode)
    _write_csv(out, "param_name,param_value," + _DYNAMICS_HEADER, (
        (f"{vary.parameter_name},{value + 0.0:.12g},{_DYNAMICS_ROW}", table) for value, table in curves))


def run_contour(cfg: dict[str, str], out: str | None) -> None:
    if out is None:
        raise ValueError("contour needs --out (a sidecar metadata file accompanies the CSV)")
    times, (vary_x, vary_y), params, mode = _resolve(
        cfg, ("vary", "vary2"), "contour needs two swept parameters (config keys 'vary' and 'vary2')")
    z = max_ergotropy_grid(params, vary_x, vary_y, times, mode)
    x, y = np.meshgrid(vary_x.values, vary_y.values)  # indexed [y, x] like z
    table = np.column_stack((x.ravel(), y.ravel(), z.ravel()))
    template = f"{vary_x.parameter_name},%.12g,{vary_y.parameter_name},%.12g,%.12g"
    _write_csv(out, "x_name,x,y_name,y,max_ergotropy", [(template, table)])
    record = {
        "metric": "max_ergotropy",
        "mode": mode.value,
        "x_name": vary_x.parameter_name,
        "y_name": vary_y.parameter_name,
        "time_horizon": [float(times[0]), float(times[-1])],
        "time_step": float(times[1] - times[0]),  # `time_grid` has at least two points
        "time_points": int(times.size),
        "base_params": vars(params),
        "config_sha256": _config_digest(cfg),
    }
    _write(out + ".meta.json", [f"{json.dumps(record, sort_keys=True, indent=2)}\n".encode()])


def run_opt_time(cfg: dict[str, str], out: str | None) -> None:
    times, (vary,), params, mode = _resolve(cfg, ("vary",), "opt-time needs a swept parameter (config key 'vary')")
    rows = optimal_time_sweep(params, vary, times, mode)
    template = f"{vary.parameter_name},%.12g,%.12g,%.12g"
    _write_csv(out, "param_name,param_value,tau,e_max", [(template, rows)])


_COMMANDS = {
    "dynamics": run_dynamics,
    "sweep": run_sweep,
    "contour": run_contour,
    "opt-time": run_opt_time,
}


_USAGE = """\
usage: magbattery {dynamics,sweep,contour,opt-time} [--config PATH] [--out PATH] [--mode MODE] [--threads N] [--KEY VALUE ...]

Single-excitation quantum battery simulator: dynamics, sweeps, contours, charging times.

subcommands:
  dynamics   metric time series for one parameter set
  sweep      time series per value of one swept parameter ('vary')
  contour    max-ergotropy grid over two swept parameters ('vary' = x, 'vary2' = y)
  opt-time   optimal charging time per value of one swept parameter

flags (each also as --flag=VALUE):
  --config PATH  flat key = value config file ('#' comments)
  --out PATH     output CSV path (default: stdout)
  --mode MODE    accounting of decayed weight: trace_repaired (default; also as repaired) or paper
  --threads N    accepted for compatibility; has no effect (evaluation is serial)

Any config key overrides the file as --KEY VALUE or --KEY=VALUE.
Exit codes: 0 success, 2 config/validation error, 3 I/O error.
"""


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    # -h/--help asks for the usage where the subcommand or a --key stands, not as a value
    if {"-h", "--help"} & {*args[:1], *(tok for tok, _ in _pieces(args[1:]))}:
        sys.stdout.write(_USAGE)
        return 0
    try:
        if not args or args[0] not in _COMMANDS:
            got = repr(args[0]) if args else "none"
            raise ValueError(f"expected a subcommand, one of {', '.join(_COMMANDS)}; got {got}")
        flags = parse_overrides(args[1:], _ALL_KEYS | {"config", "out", "threads"})
        threads = flags.pop("threads", "1")
        if not threads.isdecimal() or int(threads) < 1:
            raise ValueError(f"--threads must be an integer >= 1, got {threads!r}")
        out = flags.pop("out", None)
        cfg = dict(_DEFAULTS)
        if "config" in flags:
            cfg.update(parse_config_file(flags.pop("config")))
        cfg.update(flags)
        _COMMANDS[args[0]](cfg, out)
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
