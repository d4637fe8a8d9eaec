"""Self-tests of the benchmark, outside Tier-1:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

import magbattery  # noqa: E402
from magbattery import cli, propagator, sweeps  # noqa: E402


def _small(name: str, tmp_path: Path, t_max: str = "1") -> dict:
    """A workload spec cut down to a short horizon, run once in-process."""
    spec = workloads.make(name, 3)
    spec["config"]["t_max"] = t_max
    spec["time_points"] = int(round(float(t_max) / workloads.DT)) + 1
    if name == "contour":
        spec["config"]["vary_count"] = spec["config"]["vary2_count"] = "3"
        spec["cells"] = spec["rows"] = 9
    else:
        spec["rows"] = spec["cells"] * (spec["time_points"] if name == "panel" else 1)
    spec["out"] = str(tmp_path / "out.csv")
    spec["config_path"] = str(tmp_path / "workload.cfg")
    Path(spec["config_path"]).write_text(workloads.config_text(spec["config"]))
    argv = [spec["command"], "--config", spec["config_path"], "--out", spec["out"]]
    assert cli.main(argv + spec["extra_args"]) == 0
    return spec


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_inputs_are_deterministic_per_seed(name):
    assert workloads.make(name, 7) == workloads.make(name, 7)
    assert workloads.make(name, 7) != workloads.make(name, 8)
    assert json.loads(json.dumps(workloads.make(name, 7))) == workloads.make(name, 7)


@pytest.mark.parametrize("name", ["panel", "contour", "opt_time"])
def test_check_accepts_real_output_and_oracle_agrees(name, tmp_path):
    spec = _small(name, tmp_path)
    assert check.check_output(spec) == []
    assert check.recompute(spec, seed=5) == []


def _rewrite(path: str, edit) -> None:
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(edit(lines)) + "\n")


def _set_field(row: int, column: int, value: str):
    def edit(lines):
        fields = lines[row].split(",")
        fields[column] = value
        lines[row] = ",".join(fields)
        return lines

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:-1], "rows, expected"),
        (lambda lines: lines + [lines[-1]], "rows, expected"),
        (lambda lines: ["t" + lines[0]] + lines[1:], "header"),
        (_set_field(5, 5, "nan"), "non-finite"),
        (_set_field(5, 5, "0.9"), "ergotropy outside"),
        (_set_field(5, 7, "1.001"), "norm above 1"),
        (_set_field(50, 7, "0.9"), "norm increases"),
        (_set_field(5, 2, "0.5"), "time column"),
        (_set_field(1, 1, "0.25"), "parameter values"),
    ],
)
def test_check_rejects_a_perturbed_sweep(edit, message, tmp_path):
    spec = _small("panel", tmp_path)
    _rewrite(spec["out"], edit)
    assert any(message in p for p in check.check_output(spec))


def test_recompute_catches_values_that_pass_the_bounds(tmp_path):
    spec = _small("panel", tmp_path)

    def scale_coherence(lines):
        for i in range(1, len(lines)):
            fields = lines[i].split(",")
            fields[3] = repr(float(fields[3]) * 1.01)
            lines[i] = ",".join(fields)
        return lines

    _rewrite(spec["out"], scale_coherence)
    assert check.check_output(spec) == []
    assert any("coherence" in p for p in check.recompute(spec, seed=5))


def test_check_rejects_a_wrong_sidecar_digest(tmp_path):
    spec = _small("contour", tmp_path)
    sidecar = Path(spec["out"] + ".meta.json")
    meta = json.loads(sidecar.read_text())
    meta["config_sha256"] = "0" * 64
    sidecar.write_text(json.dumps(meta))
    assert any("config_sha256" in p for p in check.check_output(spec))


@pytest.mark.parametrize("mode", ["paper", "trace_repaired"])
def test_closed_form_matches_the_package_metrics(mode):
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 10.0, 201)
    for _ in range(20):
        d1, d2, d3, ga, gb, lam, ka, kb, km, gam = rng.uniform(0.0, 2.0, 10)
        omega_q = rng.uniform(0.5, 2.0)
        p = magbattery.SystemParams.from_detunings(
            d1, d2, d3, omega_q=omega_q, g_a=ga, g_b=gb, lam=lam,
            kappa_a=ka, kappa_b=kb, kappa_m=km, gamma=gam,
        )
        c = magbattery.evolve(p, grid).amplitudes
        ref = check.closed_form(c, omega_q, mode)
        np.testing.assert_allclose(ref["ergotropy"], magbattery.ergotropy_series(c, omega_q, mode),
                                   rtol=0, atol=1e-11)
        np.testing.assert_allclose(ref["energy"], magbattery.stored_energy_series(c, omega_q, mode),
                                   rtol=0, atol=1e-11)
        for k in (0, 57, 200):
            s = magbattery.sample_metrics(magbattery.AmplitudeState(grid[k], c[k]), p, mode)
            for key in ("coherence", "purity", "norm"):
                assert ref[key][k] == pytest.approx(getattr(s, key), abs=1e-12)


def test_layer_self_times_add_up_to_the_traced_wall(tmp_path):
    spec = _small("panel", tmp_path)
    argv = [spec["command"], "--config", spec["config_path"], "--out", spec["out"]]
    original = propagator.evolve
    recorder = Recorder()
    with recorder.installed(magbattery):
        assert sweeps.evolve is magbattery.evolve is not original
        t0 = time.perf_counter()
        assert cli.main(argv) == 0
        wall = time.perf_counter() - t0
    assert sweeps.evolve is magbattery.evolve is propagator.evolve is original
    summary = recorder.summary()
    covered = sum(summary["layer_self_s"].values())
    assert covered == pytest.approx(summary["root_s"], rel=1e-9)
    assert covered == pytest.approx(wall, rel=0.05)
    assert summary["counters"]["sweep_cells"] == spec["cells"]
    assert summary["counters"]["steps"] == spec["cells"] * (spec["time_points"] - 1)
    assert summary["calls"]["metrics:sample_metrics"] == spec["cells"] * spec["time_points"]
