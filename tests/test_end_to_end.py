"""The CLI against the Lindblad master equation, end to end, with defaults in play.

`dynamics` and a one-axis `sweep` run through `cli.main` on drawn configs
that leave each parameter key out at random, so the CLI's default point fills
the gaps.  Every printed column is compared with `oracles.lindblad_metrics`
on the same `time_grid`, at a parameter point built here from the default
point written out below, not read from the package.  `trace_repaired` is the
Lindblad answer at any loss; `paper` agrees with it only without loss, so a
lossy draw runs in the repaired mode alone.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from magbattery import SystemParams
from magbattery.cli import main
from magbattery.sweeps import time_grid
from oracles import lindblad_metrics

# the model's default point: omegas 1, couplings 1, rates 0
DEFAULT_OMEGA = 1.0
DEFAULT_COUPLINGS = {"g_a": 1.0, "g_b": 1.0, "lambda": 1.0}
DEFAULT_RATES = {"kappa_a": 0.0, "kappa_b": 0.0, "kappa_m": 0.0, "gamma": 0.0}
DETUNINGS = ("delta_1", "delta_2", "delta_3")

# about ten times the worst |CLI - Lindblad| measured over this file's draws, 5.0e-12
ATOL = 5e-11


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


def cli_rows(*argv):
    """The header and the rows of the CSV that `main(argv)` prints, after exit code 0."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(list(argv)) == 0
    header, *rows = printed.getvalue().splitlines()
    return header.split(","), [row.split(",") for row in rows]


@st.composite
def cli_runs(draw):
    """(parameter keys given, --t_max, --dt, --mode or None, the swept key and its values)."""
    lossy = draw(st.booleans())
    ranges = {
        **{name: st.floats(-2.0, 2.0) for name in DETUNINGS},
        **{name: st.floats(0.0, 2.0) for name in DEFAULT_COUPLINGS},
        **{name: st.floats(0.0, 2.0) if lossy else st.just(0.0) for name in DEFAULT_RATES},
        "omega_q": st.sampled_from((1e-3, 1.0, 7.0)),
    }
    keys = {name: draw(values) for name, values in ranges.items() if draw(st.booleans())}
    steps, dt = draw(st.integers(1, 40)), draw(st.sampled_from((0.05, 0.1, 0.25, 0.5)))
    axis = draw(st.sampled_from(sorted(set(ranges) - {"omega_q"})))
    values = draw(st.lists(ranges[axis], min_size=1, max_size=3))
    lossless = all(point.get(name, 0.0) == 0.0 for point in [keys, *({axis: v} for v in values)]
                   for name in DEFAULT_RATES)
    mode = draw(st.sampled_from((None, "paper", "repaired", "trace_repaired") if lossless
                                else ("repaired", "trace_repaired")))
    return keys, steps * dt, dt, mode, axis, values


@settings(max_examples=30)
@given(run=cli_runs())
def test_dynamics_and_sweep_match_the_lindblad_solve(run):
    keys, t_max, dt, mode, axis, values = run
    argv = [arg for name, value in keys.items() for arg in (f"--{name}", repr(value))]
    argv += ["--t_max", repr(t_max), "--dt", repr(dt)] + ([] if mode is None else ["--mode", mode])
    times = time_grid(t_max, dt)
    assert times.size <= 41

    header, rows = cli_rows("dynamics", *argv)
    assert header == ["t", "coherence", "energy", "ergotropy", "purity", "norm"]
    table = np.array(rows, dtype=float)
    np.testing.assert_allclose(table[:, 0], times, rtol=1e-12, atol=0)
    want = lindblad_metrics(reference_point(keys), times)
    np.testing.assert_allclose(table[:, 1:], want, rtol=0, atol=ATOL)

    header, rows = cli_rows("sweep", *argv, "--vary", axis, "--vary_values", ",".join(map(repr, values)))
    assert header[:3] == ["param_name", "param_value", "t"] and len(rows) == len(values) * times.size
    for value, block in zip(values, np.split(np.array(rows), len(values))):
        assert set(block[:, 0]) == {axis} and np.all(block[:, 1].astype(float) == float(f"{value:.12g}"))
        table = block[:, 2:].astype(float)
        np.testing.assert_allclose(table[:, 0], times, rtol=1e-12, atol=0)
        want = lindblad_metrics(reference_point({**keys, axis: value}), times)
        np.testing.assert_allclose(table[:, 1:], want, rtol=0, atol=ATOL)
