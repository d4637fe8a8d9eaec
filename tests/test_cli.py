"""End-to-end CLI contract: config handling, CSV output, exit codes.

Everything runs in-process through main(argv) so exit codes and streams are
observable without spawning interpreters.
"""

import json
import math

import numpy as np
import pytest

from magbattery.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_comments_and_spacing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
# baseline, detuned
delta_1 = 1   # direct detunings win over omegas
delta_2 = 1
delta_3 = 1

t_max = 1
dt = 0.5
""")
        code, out, err = run(capsys, "dynamics", "--config", cfg)
        assert code == 0
        assert out.splitlines()[0] == "t,coherence,energy,ergotropy,purity,norm"

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "frobnicate = 3\n")
        code, _, err = run(capsys, "dynamics", "--config", cfg)
        assert code == 2
        assert "frobnicate" in err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "just some words\n")
        code, _, err = run(capsys, "dynamics", "--config", cfg)
        assert code == 2
        assert ":1:" in err

    def test_empty_value(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "g_a =\n")
        code, _, err = run(capsys, "dynamics", "--config", cfg)
        assert code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "dynamics", "--config", str(tmp_path / "nope.cfg"))
        assert code == 3
        assert err

    def test_non_numeric_value(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "g_a = strong\n")
        code, _, err = run(capsys, "dynamics", "--config", cfg)
        assert code == 2

    def test_bad_time_window(self, capsys):
        code, _, err = run(capsys, "dynamics", "--dt", "0")
        assert code == 2

    def test_override_styles(self, capsys):
        code1, out1, _ = run(capsys, "dynamics", "--t_max", "1", "--dt", "0.5",
                             "--g_a", "2")
        code2, out2, _ = run(capsys, "dynamics", "--t_max=1", "--dt=0.5", "--g_a=2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_override_beats_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "lambda = 1\nt_max = 1\ndt = 0.5\n")
        _, with_cfg, _ = run(capsys, "dynamics", "--config", cfg)
        _, overridden, _ = run(capsys, "dynamics", "--config", cfg, "--lambda", "0")
        assert with_cfg != overridden
        assert all(line.split(",")[2] == "0"
                   for line in overridden.splitlines()[1:])

    def test_deltas_beat_omegas(self, capsys):
        # omega ladder encodes deltas (1,1,1); direct delta_2 must win
        _, direct, _ = run(capsys, "dynamics", "--t_max", "1", "--dt", "0.5",
                           "--omega_m", "1", "--omega_b", "2", "--omega_a", "3",
                           "--omega_q", "4", "--delta_2", "0")
        _, ladder, _ = run(capsys, "dynamics", "--t_max", "1", "--dt", "0.5",
                           "--delta_1", "1", "--delta_2", "0", "--delta_3", "1",
                           "--omega_q", "4")
        assert direct == ladder

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_mode_flag(self, capsys):
        assert run(capsys, "dynamics", "--mode", "bogus")[0] == 2


class TestDynamics:
    def test_initial_row(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--t_max", "2", "--dt", "0.5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,coherence,energy,ergotropy,purity,norm"
        assert lines[1] == "0,0,0,0,1,1"
        assert len(lines) == 1 + 5  # header + t = 0, 0.5, ..., 2.0

    def test_zero_lambda_energy_column(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--lambda", "0",
                           "--delta_1", "1", "--delta_2", "1", "--delta_3", "1",
                           "--t_max", "5", "--dt", "0.1")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(r[2] == "0" for r in rows)
        assert all(r[3] == "0" for r in rows)

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "delta_1 = 1\ndelta_2 = 1\ndelta_3 = 1\n"
                                  "gamma = 0.05\nt_max = 3\ndt = 0.05\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(capsys, "dynamics", "--config", cfg, "--out", str(out1))[0] == 0
        assert run(capsys, "dynamics", "--config", cfg, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mode_changes_numbers_under_decay(self, capsys):
        args = ("dynamics", "--gamma", "0.5", "--t_max", "3", "--dt", "0.5")
        _, paper, _ = run(capsys, *args, "--mode", "paper")
        _, repaired, _ = run(capsys, *args, "--mode", "repaired")
        assert paper != repaired

    def test_trace_repaired_alias_in_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "mode = trace_repaired\ngamma = 0.5\n"
                                  "t_max = 3\ndt = 0.5\n")
        _, via_config, _ = run(capsys, "dynamics", "--config", cfg)
        _, via_flag, _ = run(capsys, "dynamics", "--gamma", "0.5", "--t_max", "3",
                             "--dt", "0.5", "--mode", "repaired")
        assert via_config == via_flag

    def test_round_trip_precision(self, capsys):
        # parsing the CSV back reproduces the in-memory numbers to 12 digits
        from magbattery import SystemParams, sample_metrics, evolve, time_grid
        _, out, _ = run(capsys, "dynamics", "--delta_1", "1", "--delta_2", "1",
                        "--delta_3", "1", "--t_max", "2", "--dt", "0.25")
        p = SystemParams.from_detunings(1, 1, 1)
        traj = evolve(p, time_grid(2, 0.25))
        for line, s in zip(out.splitlines()[1:], traj):
            m = sample_metrics(s, p)
            want = (m.t, m.coherence, m.energy, m.ergotropy, m.purity, m.norm)
            got = [float(v) for v in line.split(",")]
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("overflow, cause", [
        (("--g_a", "1e200", "--t_max", "0.02"), "one-step exponential"),
        (("--t_max", "1e300", "--dt", "1e-300"), "grid points"),
    ])
    def test_overflow_is_a_one_line_error(self, capsys, overflow, cause):
        code, out, err = run(capsys, "dynamics", *overflow)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert cause in err

    def test_write_failure_exit_3(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "out.csv"
        code, _, err = run(capsys, "dynamics", "--t_max", "1", "--dt", "0.5",
                           "--out", str(target))
        assert code == 3
        assert err


class TestSweep:
    def test_matches_dynamics_modulo_prefix(self, capsys):
        args = ("--t_max", "2", "--dt", "0.5")
        _, dyn, _ = run(capsys, "dynamics", *args)
        _, swp, _ = run(capsys, "sweep", *args, "--vary", "lambda",
                        "--vary_values", "1")
        dyn_rows = dyn.splitlines()[1:]
        swp_rows = swp.splitlines()[1:]
        assert swp.splitlines()[0] == ("param_name,param_value,"
                                       "t,coherence,energy,ergotropy,purity,norm")
        assert len(swp_rows) == len(dyn_rows)
        for sr, dr in zip(swp_rows, dyn_rows):
            name, value, rest = sr.split(",", 2)
            assert (name, value) == ("lambda", "1")
            assert rest == dr

    def test_missing_vary(self, capsys):
        assert run(capsys, "sweep", "--t_max", "1", "--dt", "0.5")[0] == 2

    def test_empty_vary_values(self, capsys):
        code, _, err = run(capsys, "sweep", "--t_max", "1", "--dt", "0.5",
                           "--vary", "gamma", "--vary_values", "")
        assert code == 2

    def test_rows_grouped_per_value(self, capsys):
        _, out, _ = run(capsys, "sweep", "--t_max", "1", "--dt", "0.5",
                        "--vary", "gamma", "--vary_values", "0,0.5,1")
        rows = [line.split(",")[:2] for line in out.splitlines()[1:]]
        values = [v for _, v in rows]
        # 3 contiguous blocks of 3 time points each, in sweep order
        assert values == ["0"] * 3 + ["0.5"] * 3 + ["1"] * 3

    def test_vary_range_spelling(self, capsys):
        _, a, _ = run(capsys, "sweep", "--t_max", "1", "--dt", "0.5",
                      "--vary", "g_a", "--vary_min", "0.5", "--vary_max", "1.5",
                      "--vary_count", "3")
        _, b, _ = run(capsys, "sweep", "--t_max", "1", "--dt", "0.5",
                      "--vary", "g_a", "--vary_values", "0.5,1,1.5")
        assert a == b

    def test_values_and_range_conflict(self, capsys):
        code, _, _ = run(capsys, "sweep", "--t_max", "1", "--dt", "0.5",
                         "--vary", "g_a", "--vary_values", "1",
                         "--vary_min", "0", "--vary_max", "1", "--vary_count", "2")
        assert code == 2


class TestContour:
    def test_single_cell(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "contour", "--t_max", "1", "--dt", "0.5",
                         "--vary", "g_a", "--vary_values", "1",
                         "--vary2", "g_b", "--vary2_values", "1",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_name,x,y_name,y,max_ergotropy"
        assert len(lines) == 2
        assert lines[1].startswith("g_a,1,g_b,1,")

    def test_zero_lambda_row(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        run(capsys, "contour", "--t_max", "2", "--dt", "0.1",
            "--vary", "lambda", "--vary_values", "0",
            "--vary2", "g_b", "--vary2_values", "0.5,1,2",
            "--out", str(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[4] for r in rows] == ["0", "0", "0"]

    def test_row_major_y_outer(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        run(capsys, "contour", "--t_max", "1", "--dt", "0.5",
            "--vary", "g_a", "--vary_values", "0.5,1",
            "--vary2", "g_b", "--vary2_values", "1,2,3",
            "--out", str(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6
        assert [(r[1], r[3]) for r in rows] == [
            ("0.5", "1"), ("1", "1"),
            ("0.5", "2"), ("1", "2"),
            ("0.5", "3"), ("1", "3"),
        ]

    def test_metadata_sidecar(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        run(capsys, "contour", "--t_max", "1", "--dt", "0.5",
            "--vary", "g_a", "--vary_values", "1",
            "--vary2", "g_b", "--vary2_values", "1",
            "--out", str(out), "--mode", "repaired")
        meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
        assert meta["mode"] == "trace_repaired"
        assert meta["time_horizon"] == [0.0, 1.0]
        assert meta["time_step"] == 0.5
        assert meta["base_params"]["lam"] == 1.0
        assert "config_sha256" in meta
        # deterministic: no clocks, hosts or pids may leak in
        assert not any("time_stamp" in k or "date" in k or "host" in k
                       for k in meta)

    def test_sidecar_byte_identical_on_rerun(self, tmp_path, capsys):
        args = ("contour", "--t_max", "1", "--dt", "0.5",
                "--vary", "g_a", "--vary_values", "1,2",
                "--vary2", "g_b", "--vary2_values", "1")
        run(capsys, *args, "--out", str(tmp_path / "a.csv"))
        run(capsys, *args, "--out", str(tmp_path / "b.csv"))
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())
        assert ((tmp_path / "a.csv.meta.json").read_bytes()
                == (tmp_path / "b.csv.meta.json").read_bytes())

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        args = ("contour", "--t_max", "2", "--dt", "0.1",
                "--vary", "g_a", "--vary_min", "0.1", "--vary_max", "3",
                "--vary_count", "4",
                "--vary2", "g_b", "--vary2_min", "0.1", "--vary2_max", "3",
                "--vary2_count", "3")
        run(capsys, *args, "--threads", "1", "--out", str(tmp_path / "t1.csv"))
        run(capsys, *args, "--threads", "8", "--out", str(tmp_path / "t8.csv"))
        assert ((tmp_path / "t1.csv").read_bytes()
                == (tmp_path / "t8.csv").read_bytes())

    def test_same_axis_rejected(self, tmp_path, capsys):
        code, _, _ = run(capsys, "contour", "--t_max", "1", "--dt", "0.5",
                         "--vary", "g_a", "--vary_values", "1",
                         "--vary2", "g_a", "--vary2_values", "2",
                         "--out", str(tmp_path / "c.csv"))
        assert code == 2

    def test_missing_second_axis(self, tmp_path, capsys):
        code, _, _ = run(capsys, "contour", "--t_max", "1", "--dt", "0.5",
                         "--vary", "g_a", "--vary_values", "1",
                         "--out", str(tmp_path / "c.csv"))
        assert code == 2

    def test_requires_out_path(self, capsys):
        code, _, _ = run(capsys, "contour", "--t_max", "1", "--dt", "0.5",
                         "--vary", "g_a", "--vary_values", "1",
                         "--vary2", "g_b", "--vary2_values", "1")
        assert code == 2


class TestOptTime:
    def test_pure_rabi_tau(self, capsys):
        # horizon [0,2]: single Rabi peak, so the earliest-max rule is sharp
        _, out, _ = run(capsys, "opt-time", "--g_a", "0", "--g_b", "0",
                        "--t_max", "2", "--dt", "0.01",
                        "--vary", "lambda", "--vary_values", "1")
        assert out.splitlines()[0] == "param_name,param_value,tau,e_max"
        _, _, tau, e_max = out.splitlines()[1].split(",")
        assert abs(float(tau) - math.pi / (2 * math.sqrt(2))) <= 0.01
        assert float(e_max) == pytest.approx(1.0, abs=1e-3)

    def test_tau_decreases_with_lambda(self, capsys):
        # [0,2.4] at dt=0.005: each lambda's first peak is its grid max
        _, out, _ = run(capsys, "opt-time", "--g_a", "0", "--g_b", "0",
                        "--t_max", "2.4", "--dt", "0.005",
                        "--vary", "lambda", "--vary_values", "0.5,1,2")
        taus = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert taus[0] > taus[1] > taus[2]

    def test_missing_vary(self, capsys):
        assert run(capsys, "opt-time", "--t_max", "1", "--dt", "0.5")[0] == 2
