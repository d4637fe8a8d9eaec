"""The CLI against independent pipelines, end to end, with defaults in play.

Every subcommand runs through `cli.main` on drawn configs that leave each
parameter key out at random, so the CLI's default point fills the gaps, and
its CSV is parsed.  The reference is built at a parameter point made here from
the default point written out below, not read from the package, on the same
`time_grid`:

* `trace_repaired` (the default mode) is the Lindblad answer at any loss,
  and without loss every mode is: `oracles.lindblad_metrics`;
* `paper` under loss books the decayed weight as charge:
  `oracles.oracle_metrics` of the amplitudes of the five-level shell
  Hamiltonian, `oracles.shell_amplitudes`.

`dynamics` and `sweep` are compared column by column, `contour` (with axes of
unequal length) with a plain Python max of the reference ergotropy, and
`opt-time` with a Python loop that takes the earliest peak within the
documented tie window of 1e-9 of the peak.  Rows, labels and column order
follow the CLI's documented CSV layout.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from magbattery import SystemParams
from magbattery.cli import main
from magbattery.sweeps import time_grid
from oracles import lindblad_metrics, oracle_metrics, shell_amplitudes

# the model's default point: omegas 1, couplings 1, rates 0
DEFAULT_OMEGA = 1.0
DEFAULT_COUPLINGS = {"g_a": 1.0, "g_b": 1.0, "lambda": 1.0}
DEFAULT_RATES = {"kappa_a": 0.0, "kappa_b": 0.0, "kappa_m": 0.0, "gamma": 0.0}
DETUNINGS = ("delta_1", "delta_2", "delta_3")
MODES = (None, "paper", "repaired", "trace_repaired")  # None: no --mode, the default `trace_repaired`

# Each bound is about ten times the worst |CLI - reference| measured over its
# test's draws: 5.0e-12 for dynamics and sweep against the Lindblad solve,
# 4.9e-12 for `paper` under loss against the shell amplitudes, 4.9e-13 for the
# contour maxima and 5.0e-12 for the opt-time peak energies.
ATOL = 5e-11
PAPER_ATOL = 5e-11
CONTOUR_ATOL = 5e-12
OPT_TIME_ATOL = 5e-11
# opt-time's tau is the earliest grid time whose energy is within this share of the grid maximum
TIE_WINDOW = 1e-9


def reference_point(keys):
    """The parameter point of the config `keys`, each absent key at the default
    point; given detunings set omega_a, omega_b and omega_m below omega_q, an
    absent one taken from the default omegas."""
    omega_q = keys.get("omega_q", DEFAULT_OMEGA)
    omegas = (DEFAULT_OMEGA,) * 3
    if any(name in keys for name in DETUNINGS):
        d1, d2 = keys.get("delta_1", 0.0), keys.get("delta_2", 0.0)
        omega_a = omega_q - keys.get("delta_3", omega_q - DEFAULT_OMEGA)
        omegas = (omega_a, omega_a - d2, omega_a - d2 - d1)
    fields = {name: keys.get(name, default) for name, default in {**DEFAULT_COUPLINGS, **DEFAULT_RATES}.items()}
    fields["lam"] = fields.pop("lambda")
    return SystemParams(*omegas, omega_q, **fields)


def reference_columns(keys, times, mode):
    """(T, 5) reference columns (coherence, energy, ergotropy, purity, norm) at the
    point of `keys` in `mode`: the shell amplitudes' density matrices for `paper`
    under loss, the Lindblad solve otherwise."""
    p = reference_point(keys)
    if mode == "paper" and any(keys.get(name, 0.0) for name in DEFAULT_RATES):
        return np.array([oracle_metrics(c, p.omega_q, "paper") for c in shell_amplitudes(p, times)])
    return lindblad_metrics(p, times)


def cli_rows(*argv, out=None):
    """The header and the rows of the CSV that `main(argv)` prints after exit code 0,
    or writes to the file `out`, passed as --out."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, *(["--out", str(out)] if out else [])]) == 0
    header, *rows = (out.read_text() if out else stdout.getvalue()).splitlines()
    return header.split(","), [row.split(",") for row in rows]


def assert_close(got, want, atol):
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def parameter_ranges(lossy):
    """Each parameter key's draw: detunings, couplings, rates (0 unless `lossy`) and omega_q."""
    return {
        **{name: st.floats(-2.0, 2.0) for name in DETUNINGS},
        **{name: st.floats(0.0, 2.0) for name in DEFAULT_COUPLINGS},
        **{name: st.floats(0.0, 2.0) if lossy else st.just(0.0) for name in DEFAULT_RATES},
        "omega_q": st.sampled_from((1e-3, 1.0, 7.0)),
    }


def config_args(keys, t_max, dt, mode):
    argv = [arg for name, value in keys.items() for arg in (f"--{name}", repr(value))]
    return argv + ["--t_max", repr(t_max), "--dt", repr(dt)] + ([] if mode is None else ["--mode", mode])


def printed(value):
    """A swept value as the CSV prints it, read back."""
    return float(f"{value:.12g}")


@st.composite
def cli_runs(draw, paper_under_loss=False):
    """(parameter keys given, --t_max, --dt, --mode or None, the swept key and its values).
    Lossy draws run in the repaired modes, the default among them; with
    `paper_under_loss` every draw sets one rate to 0.05-2 and runs in `paper`."""
    lossy = paper_under_loss or draw(st.booleans())
    ranges = parameter_ranges(lossy)
    keys = {name: draw(values) for name, values in ranges.items() if draw(st.booleans())}
    if paper_under_loss:
        keys[draw(st.sampled_from(sorted(DEFAULT_RATES)))] = draw(st.floats(0.05, 2.0))
    steps, dt = draw(st.integers(1, 40)), draw(st.sampled_from((0.05, 0.1, 0.25, 0.5)))
    axis = draw(st.sampled_from(sorted(set(ranges) - {"omega_q"})))
    values = draw(st.lists(ranges[axis], min_size=1, max_size=3))
    lossless = all(point.get(name, 0.0) == 0.0 for point in [keys, *({axis: v} for v in values)]
                   for name in DEFAULT_RATES)
    modes = ("paper",) if paper_under_loss else MODES if lossless else (None, "repaired", "trace_repaired")
    return keys, steps * dt, dt, draw(st.sampled_from(modes)), axis, values


def check_dynamics_and_sweep(keys, t_max, dt, mode, axis, values, atol):
    argv = config_args(keys, t_max, dt, mode)
    times = time_grid(t_max, dt)
    assert times.size <= 41

    header, rows = cli_rows("dynamics", *argv)
    assert header == ["t", "coherence", "energy", "ergotropy", "purity", "norm"]
    table = np.array(rows, dtype=float)
    np.testing.assert_allclose(table[:, 0], times, rtol=1e-12, atol=0)
    assert_close(table[:, 1:], reference_columns(keys, times, mode), atol)

    header, rows = cli_rows("sweep", *argv, "--vary", axis, "--vary_values", ",".join(map(repr, values)))
    assert header[:3] == ["param_name", "param_value", "t"] and len(rows) == len(values) * times.size
    for value, block in zip(values, np.split(np.array(rows), len(values))):
        assert set(block[:, 0]) == {axis} and np.all(block[:, 1].astype(float) == printed(value))
        table = block[:, 2:].astype(float)
        np.testing.assert_allclose(table[:, 0], times, rtol=1e-12, atol=0)
        assert_close(table[:, 1:], reference_columns({**keys, axis: value}, times, mode), atol)


@settings(max_examples=30)
@given(run=cli_runs())
def test_dynamics_and_sweep_match_the_lindblad_solve(run):
    check_dynamics_and_sweep(*run, ATOL)


@settings(max_examples=10)
@given(run=cli_runs(paper_under_loss=True))
def test_paper_with_loss_matches_the_shell_amplitudes(run):
    check_dynamics_and_sweep(*run, PAPER_ATOL)


@st.composite
def contour_runs(draw):
    """(parameter keys given, --t_max, --dt, --mode or None, x axis and values, y axis
    and values), the two axes of different lengths, at most 4 values each."""
    ranges = parameter_ranges(draw(st.booleans()))
    keys = {name: draw(values) for name, values in ranges.items() if draw(st.booleans())}
    steps, dt = draw(st.integers(1, 20)), draw(st.sampled_from((0.1, 0.25, 0.5)))
    x, y = draw(st.lists(st.sampled_from(sorted(set(ranges) - {"omega_q"})), min_size=2, max_size=2, unique=True))
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4).filter(lambda n: n != nx))
    xs, ys = (draw(st.lists(ranges[name], min_size=n, max_size=n)) for name, n in ((x, nx), (y, ny)))
    return keys, steps * dt, dt, draw(st.sampled_from(MODES)), (x, xs), (y, ys)


@settings(max_examples=10)
@given(run=contour_runs())
def test_contour_matches_a_python_max_of_the_reference_ergotropy(run):
    keys, t_max, dt, mode, (x, xs), (y, ys) = run
    times = time_grid(t_max, dt)
    with tempfile.TemporaryDirectory() as tmp:
        header, rows = cli_rows("contour", *config_args(keys, t_max, dt, mode),
                                "--vary", x, "--vary_values", ",".join(map(repr, xs)),
                                "--vary2", y, "--vary2_values", ",".join(map(repr, ys)), out=Path(tmp, "plane.csv"))
        record = json.loads(Path(tmp, "plane.csv.meta.json").read_text())
    assert header == ["x_name", "x", "y_name", "y", "max_ergotropy"]
    assert set(record) == {"metric", "mode", "x_name", "y_name", "time_horizon", "time_step", "time_points",
                           "base_params", "config_sha256"}
    assert (record["metric"], record["x_name"], record["y_name"], record["time_points"]) == (
        "max_ergotropy", x, y, times.size)
    assert record["mode"] == ("paper" if mode == "paper" else "trace_repaired")
    cells = [(xv, yv) for yv in ys for xv in xs]  # y-major: x runs fastest
    assert len(rows) == len(cells)
    for (x_name, x_value, y_name, y_value, z), (xv, yv) in zip(rows, cells):
        assert (x_name, float(x_value), y_name, float(y_value)) == (x, printed(xv), y, printed(yv))
        want = max(row[2] for row in reference_columns({**keys, x: xv, y: yv}, times, mode))
        assert_close(float(z), want, CONTOUR_ATOL)


def earliest_peaks(energies, margin):
    """The first and last grid index that the earliest-peak rule can pick when every
    energy may be off by `margin`: a Python loop over the tie window of the peak."""
    peak = max(energies)
    first = last = None
    for k, e in enumerate(energies):
        if first is None and e >= peak - TIE_WINDOW * peak - 2 * margin:
            first = k
        if last is None and e >= peak - TIE_WINDOW * peak + 2 * margin:
            last = k
    return first, len(energies) - 1 if last is None else last


@st.composite
def opt_time_runs(draw):
    """`cli_runs` draws in every mode, or, half the time, in `paper` with the three
    field modes decaying at rates of 1 to 2 up to t = 20: the energy then saturates
    at omega_q, so grid energies tie within the window and the tie rule decides."""
    keys, t_max, dt, _, axis, values = draw(cli_runs())
    if draw(st.booleans()):
        keys |= {name: draw(st.floats(1.0, 2.0)) for name in ("kappa_a", "kappa_b", "kappa_m")}
        return keys, 20.0, 0.5, "paper", axis, values
    return keys, t_max, dt, draw(st.sampled_from(MODES)), axis, values


@settings(max_examples=15)
@given(run=opt_time_runs())
def test_opt_time_matches_an_earliest_peak_loop(run):
    keys, t_max, dt, mode, axis, values = run
    times = time_grid(t_max, dt)
    header, rows = cli_rows("opt-time", *config_args(keys, t_max, dt, mode),
                            "--vary", axis, "--vary_values", ",".join(map(repr, values)))
    assert header == ["param_name", "param_value", "tau", "e_max"]
    assert len(rows) == len(values)
    grid = [printed(t) for t in times]
    for (name, value, tau, e_max), swept in zip(rows, values):
        assert (name, float(value)) == (axis, printed(swept))
        energies = [row[1] for row in reference_columns({**keys, axis: swept}, times, mode)]
        first, last = earliest_peaks(energies, OPT_TIME_ATOL)
        k = grid.index(float(tau))
        assert first <= k <= last, (swept, k, first, last)
        assert_close(float(e_max), energies[k], OPT_TIME_ATOL)
