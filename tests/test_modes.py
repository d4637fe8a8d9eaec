"""The accounting mode has one owner: `AccountingMode` parses every spelling
(`repaired` is `trace_repaired`) and refuses any other with one message, and
the library and the CLI share one default, `trace_repaired`.

The default is named here as a literal, not read from the package, so a
change of it fails these tests.
"""

import dataclasses
import functools
import inspect

import numpy as np
import pytest

from magbattery import (
    AccountingMode,
    AmplitudeState,
    SystemParams,
    VarySpec,
    ergotropy_series,
    evolve,
    max_ergotropy_grid,
    metric_columns,
    optimal_time_sweep,
    panel_sweep,
    sample_metrics,
    stored_energy_series,
    time_grid,
    time_series,
)
from magbattery import cli

ENTRY_POINTS = (metric_columns, sample_metrics, stored_energy_series, ergotropy_series,
                time_series, panel_sweep, max_ergotropy_grid, optimal_time_sweep)
REFUSAL = "unknown mode 'bogus'; expected one of paper, repaired, trace_repaired"

# under loss, so that the two modes give different numbers
LOSSY = SystemParams.from_detunings(1.0, 1.0, 1.0, kappa_a=0.3, gamma=0.2)
TIMES = time_grid(2.0, 0.25)
AXIS, AXIS2 = VarySpec("g_b", (0.5, 1.0)), VarySpec("g_a", (0.5, 1.5))

# each entry point on LOSSY, given the amplitudes of LOSSY over TIMES, its result as one
# float array; `*mode` is empty for the default
CALLS = {
    "metric_columns": lambda z, *mode: metric_columns(z, LOSSY.omega_q, *mode),
    "sample_metrics": lambda z, *mode: np.array(dataclasses.astuple(
        sample_metrics(AmplitudeState(TIMES[-1], z[-1]), LOSSY, *mode))),
    "stored_energy_series": lambda z, *mode: stored_energy_series(z, LOSSY.omega_q, *mode),
    "ergotropy_series": lambda z, *mode: ergotropy_series(z, LOSSY.omega_q, *mode),
    "time_series": lambda z, *mode: time_series(LOSSY, TIMES, *mode),
    "panel_sweep": lambda z, *mode: np.array([table for _, table in panel_sweep(LOSSY, AXIS, TIMES, *mode)]),
    "max_ergotropy_grid": lambda z, *mode: max_ergotropy_grid(LOSSY, AXIS, AXIS2, TIMES, *mode),
    "optimal_time_sweep": lambda z, *mode: optimal_time_sweep(LOSSY, AXIS, TIMES, *mode),
}


@pytest.fixture(scope="module")
def amplitudes():
    """LOSSY's amplitudes over TIMES, computed when a test first asks, so that a
    kernel fault fails the tests that read them, not the module's collection."""
    return evolve(LOSSY, TIMES).amplitudes


@pytest.fixture(params=CALLS, ids=CALLS)
def call(request, amplitudes):
    """One entry point of CALLS, its amplitudes given: call(*mode)."""
    return functools.partial(CALLS[request.param], amplitudes)


CLI_RUNS = {
    "dynamics": (),
    "sweep": ("--vary", "g_b", "--vary_values", "0.5,1"),
    "contour": ("--vary", "g_b", "--vary_values", "0.5,1", "--vary2", "g_a", "--vary2_values", "0.5,1.5"),
    "opt-time": ("--vary", "g_b", "--vary_values", "0.5,1"),
}
LOSSY_ARGS = ("--delta_1", "1", "--delta_2", "1", "--delta_3", "1", "--kappa_a", "0.3", "--gamma", "0.2",
              "--t_max", "2", "--dt", "0.25")


def run_cli(capsys, tmp_path, command, *mode):
    """(exit code, stderr, the files written: the CSV and, for a contour, its sidecar) of a lossy run."""
    out = tmp_path / f"{command}{''.join(mode)}.csv"
    code = cli.main([command, *CLI_RUNS[command], *LOSSY_ARGS, "--out", str(out), *mode])
    written = [path.read_bytes() for path in (out, tmp_path / f"{out.name}.meta.json") if path.exists()]
    return code, capsys.readouterr().err, written


@pytest.mark.parametrize("entry_point", ENTRY_POINTS, ids=[f.__name__ for f in ENTRY_POINTS])
def test_library_default_is_trace_repaired(entry_point):
    default = inspect.signature(entry_point).parameters["mode"].default
    assert type(default) is AccountingMode and default.value == "trace_repaired"


def test_cli_default_is_trace_repaired():
    assert cli._DEFAULTS["mode"] == "trace_repaired"
    (line,) = [line for line in cli._USAGE.splitlines() if line.lstrip().startswith("--mode")]
    assert "trace_repaired (default" in line and line.count("default") == 1


def test_default_and_repaired_are_trace_repaired(call):
    want = call("trace_repaired")
    for got in (call(), call("repaired"), call(AccountingMode.TRACE_REPAIRED)):
        np.testing.assert_array_equal(got, want)
    assert not np.array_equal(call("paper"), want)


@pytest.mark.parametrize("command", CLI_RUNS)
def test_cli_default_and_repaired_are_trace_repaired(capsys, tmp_path, command):
    # the CSVs are equal; a sidecar records the mode's value and the digest of the config as given
    code, err, want = run_cli(capsys, tmp_path, command, "--mode", "trace_repaired")
    assert (code, err) == (0, "") and want
    assert run_cli(capsys, tmp_path, command) == (0, "", want)
    for mode in (("--mode", "repaired"), ("--mode=repaired",)):
        code, err, got = run_cli(capsys, tmp_path, command, *mode)
        assert (code, err, got[0]) == (0, "", want[0])
    assert run_cli(capsys, tmp_path, command, "--mode", "paper")[2][0] != want[0]


def test_unknown_mode_refused_with_one_message(call):
    with pytest.raises(ValueError, match=f"^{REFUSAL}$"):
        call("bogus")


@pytest.mark.parametrize("command", CLI_RUNS)
def test_cli_refuses_an_unknown_mode_with_the_library_message(capsys, tmp_path, command):
    assert run_cli(capsys, tmp_path, command, "--mode", "bogus") == (2, f"error: {REFUSAL}\n", [])
