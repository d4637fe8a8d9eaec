"""End-to-end CLI contract: config handling, CSV output, exit codes.

Everything runs in-process through main(argv) so exit codes and streams are
observable without spawning interpreters.
"""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import stat
import string
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from magbattery import SystemParams, cli
from magbattery.cli import (
    _ALL_KEYS, _DEFAULTS, _DYNAMICS_ROW, _config_digest, _resolve, _rows, _write_csv, build_params, build_vary, main,
    parse_config_file, parse_overrides, run_sweep,
)
from magbattery.sweeps import PARAMETER_NAMES
from oracles import rows_by_row

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def hashlib_digest(cfg):
    """hashlib's sha256 of the sorted `key=value` lines, as the sidecar states it."""
    canonical = "\n".join(f"{key}={cfg[key]}" for key in sorted(cfg))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestConfigDigest:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(string.ascii_letters + string.digits + "_", min_size=1),
                           st.text(), max_size=20))
    @example({})
    @example({"mode": "paper", "vary": "g_a", "vary_values": "0.5, 1"})
    @example({"label": "\u00e9nergie \u2192 \U0001d53c", "note": "a=b\n#c"})
    def test_equals_hashlib(self, cfg):
        assert _config_digest(cfg) == hashlib_digest(cfg)


OVERRIDE_KEYS = frozenset({"t_max", "dt", "out", "vary"})
# known keys, near misses and any text without "="; a value is any text, "=" and "--" included
OVERRIDE_NAMES = st.sampled_from(sorted(OVERRIDE_KEYS) + ["tmax", "", "-dt", "t max"]) | st.text(
    st.characters(blacklist_characters="="), max_size=4)
OVERRIDE_VALUES = st.sampled_from(("1", "", "=", "a=b", "--dt", "-h")) | st.text(max_size=4)
# (kind, key, value): --key=value, --key value, or a bare token that does not start with "--"
OVERRIDE_PIECES = st.tuples(st.sampled_from(("joined", "split")), OVERRIDE_NAMES, OVERRIDE_VALUES) | st.tuples(
    st.just("bare"), st.just(""), OVERRIDE_VALUES.filter(lambda value: not value.startswith("--")))


# subcommands, help tokens, keys with and without a joined value, an unknown key, bare
# values, and near misses of each; no token names a file that a run would read
HELP_SCAN_TOKENS = ("dynamics", "sweep", "-h", "--help", "--help=1", "-h=1", "--h", "-help", "---help",
                    "--t_max", "--t_max=1", "--out", "--out=x", "--mode", "--bogus", "1", "x=1", "--", "--=",
                    "-", "=")


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

    @pytest.mark.parametrize("text", [
        "t_max = 2\ndt = 0.5\ng_a = 0.5\n",
        (CONFIG_DIR / "dynamics_detuned.cfg").read_text(encoding="utf-8"),
    ], ids=["key_first", "comment_first"])
    def test_byte_order_mark(self, tmp_path, capsys, text):
        # Windows Notepad starts a UTF-8 file with U+FEFF; it is not part of the first line
        plain, marked = write_cfg(tmp_path, text), write_cfg(tmp_path, "\ufeff" + text, "bom.cfg")
        assert Path(marked).read_bytes()[:3] == b"\xef\xbb\xbf"
        code, out, err = run(capsys, "dynamics", "--config", marked)
        assert (code, out, err) == run(capsys, "dynamics", "--config", plain) and code == 0

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

    @settings(max_examples=200, derandomize=True)
    @given(pieces=st.lists(OVERRIDE_PIECES, max_size=6), trailing=st.none() | OVERRIDE_NAMES)
    def test_overrides_equal_a_model_of_the_pieces(self, pieces, trailing):
        # the first fault in token order gives the message; else the last value of each key
        tokens, want, fault = [], {}, None
        for kind, key, value in pieces:
            tokens += {"joined": [f"--{key}={value}"], "split": [f"--{key}", value], "bare": [value]}[kind]
            if fault is None and kind == "bare":
                fault = f"unexpected argument {value!r}"
            elif fault is None and key not in OVERRIDE_KEYS:
                fault = f"unknown config key --{key}"
            elif fault is None:
                want[key] = value
        if trailing is not None:
            tokens.append(f"--{trailing}")
            fault = fault or f"missing value for --{trailing}"
        if fault is None:
            assert parse_overrides(tokens, OVERRIDE_KEYS) == want
        else:
            with pytest.raises(ValueError) as info:
                parse_overrides(tokens, OVERRIDE_KEYS)
            assert str(info.value) == fault

    def test_deltas_beat_omegas(self, capsys):
        # omega ladder encodes deltas (1,1,1); direct delta_2 must win
        _, direct, _ = run(capsys, "dynamics", "--t_max", "1", "--dt", "0.5",
                           "--omega_m", "1", "--omega_b", "2", "--omega_a", "3",
                           "--omega_q", "4", "--delta_2", "0")
        _, ladder, _ = run(capsys, "dynamics", "--t_max", "1", "--dt", "0.5",
                           "--delta_1", "1", "--delta_2", "0", "--delta_3", "1",
                           "--omega_q", "4")
        assert direct == ladder

    # at the default 100 examples, substituting the detunings one at a time
    # passes too; its last-bit differences need more draws
    @settings(max_examples=300)
    @given(
        omegas=st.tuples(*[st.floats(-10.0, 10.0)] * 4),
        rates=st.tuples(*[st.floats(0.0, 5.0)] * 7),
        deltas=st.dictionaries(st.sampled_from(("delta_1", "delta_2", "delta_3")),
                               st.floats(-5.0, 5.0)),
    )
    def test_build_params_substitutes_detunings_together(self, omegas, rates, deltas):
        # given detunings replace the ones the omegas imply, all in one step
        om_a, om_b, om_m, om_q = omegas
        rate_fields = dict(zip(("g_a", "g_b", "lam", "kappa_a", "kappa_b", "kappa_m", "gamma"),
                               rates))
        cfg = dict(zip(("omega_a", "omega_b", "omega_m", "omega_q", "g_a", "g_b", "lambda",
                        "kappa_a", "kappa_b", "kappa_m", "gamma"), map(repr, omegas + rates)))
        cfg.update({key: repr(value) for key, value in deltas.items()})
        if deltas:
            d = {"delta_1": om_b - om_m, "delta_2": om_a - om_b, "delta_3": om_q - om_a}
            d.update(deltas)
            want = SystemParams.from_detunings(**d, omega_q=om_q, **rate_fields)
        else:
            want = SystemParams(om_a, om_b, om_m, om_q, **rate_fields)
        assert build_params(cfg) == want

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", [("--help",), ("-h",), ("contour", "--help")])
    def test_help_prints_usage(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: magbattery ")
        assert all(name in out for name in ("dynamics", "sweep", "contour", "opt-time",
                                            "--config", "--out", "--mode", "--threads"))

    def test_help_token_as_a_value_is_that_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dynamics", "--t_max", "1", "--dt", "0.5", "--out", "-h")
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "-h").read_text().startswith("t,coherence,")

    @settings(max_examples=300, derandomize=True)
    @given(args=st.lists(st.sampled_from(HELP_SCAN_TOKENS), max_size=8))
    def test_help_where_a_token_stands_wins(self, args):
        # a model of the help rule, by index: the first argument, then each token
        # that is not the value of a `--key` without `=`
        i = 0
        while i < len(args) and args[i] not in ("-h", "--help"):
            i += 2 if i and args[i].startswith("--") and "=" not in args[i] else 1
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(cli._COMMANDS, dict.fromkeys(cli._COMMANDS, lambda cfg, out: 0)), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(args))
        if i < len(args):  # over any other error
            assert (code, stdout.getvalue(), stderr.getvalue()) == (0, cli._USAGE, "")
        else:
            assert stdout.getvalue() == "" and (code == 0) == (stderr.getvalue() == "")

    def test_bad_mode_flag(self, capsys):
        assert run(capsys, "dynamics", "--mode", "bogus")[0] == 2


def test_build_vary_reads_one_axis_as_a_run_does(tmp_path):
    # the bench resolves each axis prefix of a config with `build_vary`
    cfg = parse_config_file(write_cfg(tmp_path, "t_max = 1\ndt = 0.25\nvary = g_b\nvary_values = 0.5, 1,2\n"
                                                "vary2 = delta_1\nvary2_min = -1\nvary2_max = 1\nvary2_count = 5\n"))
    _, axes, _, _ = _resolve({**_DEFAULTS, **cfg}, ("vary", "vary2"))
    assert [build_vary(cfg, "vary"), build_vary(cfg, "vary2")] == axes
    assert [axis.values for axis in axes] == [(0.5, 1.0, 2.0), (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert build_vary(parse_config_file(write_cfg(tmp_path, "vary = g_a\nvary_values = 1\n", "one.cfg")), "vary2") is None


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
        out3 = tmp_path / "c.csv"
        assert run(capsys, "dynamics", f"--config={cfg}", f"--out={out3}")[0] == 0
        assert out1.read_bytes() == out3.read_bytes()

    def test_mode_changes_numbers_under_decay(self, capsys):
        args = ("dynamics", "--gamma", "0.5", "--t_max", "3", "--dt", "0.5")
        _, paper, _ = run(capsys, *args, "--mode", "paper")
        _, repaired, _ = run(capsys, *args, "--mode", "repaired")
        assert paper != repaired

    def test_trace_repaired_alias_in_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "mode = trace_repaired\ngamma = 0.5\n"
                                  "t_max = 3\ndt = 0.5\n")
        _, via_config, _ = run(capsys, "dynamics", "--config", cfg)
        flags = ("dynamics", "--gamma", "0.5", "--t_max", "3", "--dt", "0.5", "--mode")
        _, via_flag, _ = run(capsys, *flags, "repaired")
        code, via_alias_flag, _ = run(capsys, *flags, "trace_repaired")
        assert code == 0
        _, via_equals_flag, _ = run(capsys, *flags[:-1], "--mode=repaired")
        assert via_config == via_flag == via_alias_flag == via_equals_flag

    def test_unknown_mode_lists_the_flag_choices(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "mode = bogus\n")
        code, _, err = run(capsys, "dynamics", "--config", cfg)
        assert code == 2
        assert "expected one of paper, repaired, trace_repaired" in err

    def test_round_trip_precision(self, capsys):
        # parsing the CSV back reproduces the in-memory numbers to 12 digits
        from magbattery import AmplitudeState, SystemParams, sample_metrics, evolve, time_grid
        _, out, _ = run(capsys, "dynamics", "--delta_1", "1", "--delta_2", "1",
                        "--delta_3", "1", "--t_max", "2", "--dt", "0.25")
        p = SystemParams.from_detunings(1, 1, 1)
        traj = evolve(p, time_grid(2, 0.25))
        for line, t, c in zip(out.splitlines()[1:], traj.times, traj.amplitudes):
            m = sample_metrics(AmplitudeState(t, c), p)
            want = (m.t, m.coherence, m.energy, m.ergotropy, m.purity, m.norm)
            got = [float(v) for v in line.split(",")]
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("overflow, cause", [
        (("dynamics", "--g_a", "1e200", "--t_max", "0.02"), "one-step exponential"),
        (("dynamics", "--t_max", "1e300", "--dt", "1e-300"), "grid points"),
        (("dynamics", "--g_a", "1e12"), "one-step exponential"),
        (("dynamics", "--g_a", "1e20"), "one-step exponential"),
        (("dynamics", "--g_a", "1e308"), "one-step exponential"),
        # refused before the grid is allocated (1e15 and 1e8 points)
        (("dynamics", "--t_max", "1e12", "--dt", "1e-3"), "grid points"),
        (("dynamics", "--t_max", "1e7", "--dt", "0.1"), "grid points"),
        # each step passes, but the norm has risen over 1 + 1e-9 by t = 20
        # (3e6: by 2e-9 to 1.1e-8 under each OpenBLAS core tried)
        (("dynamics", "--g_a", "3e6"), "one-step exponential"),
        (("dynamics", "--g_a", "1e8"), "one-step exponential"),
        (("opt-time", "--vary", "g_a", "--vary_values", "3e6"), "one-step exponential"),
        # refused at the cause, naming the key as typed
        (("dynamics", "--omega_q", "-1", "--t_max", "1", "--dt", "0.5"), "omega_q >= 0"),
        (("dynamics", "--lambda", "-1"), "coupling lambda must be >= 0"),
        (("sweep", "--vary", "kappa_all", "--vary_values", "-1"), "rate kappa_all must be >= 0"),
        (("opt-time", "--vary", "g_b", "--vary_min", "0", "--vary_max", "1",
          "--vary_count", "1000000000000"), "parameter points x time points"),
        (("dynamics", "--delta_1", "1e308", "--delta_2", "1e308"),
         "delta_1, delta_2 out of range"),
        # command lines the parser refuses
        ((), "one of dynamics, sweep, contour, opt-time; got none"),
        (("frobnicate",), "one of dynamics, sweep, contour, opt-time; got 'frobnicate'"),
        (("dynamics", "--threads", "0"), "--threads must be an integer >= 1"),
        (("dynamics", "--threads", "two"), "--threads must be an integer >= 1"),
        (("dynamics", "--out"), "missing value for --out"),
        (("dynamics", "--frob", "1"), "unknown config key --frob"),
        # -h as a --key's value is that value, not a request for the usage
        (("sweep", "--vary", "g_a", "--vary_values", "-h"), "not a number list: '-h'"),
        # the cause, not the step exponential that would fail too
        (("dynamics", "--omega_q", "-1", "--g_a", "1e12", "--t_max", "1", "--dt", "0.5"), "omega_q >= 0"),
        # lossless, so the norm may not fall either: it moves by 3.8e-8 to 1.3e-7
        # by t = 20, down or up with the OpenBLAS core
        (("dynamics", "--g_a", "3e7"), "one-step exponential"),
    ])
    def test_overflow_is_a_one_line_error(self, capsys, overflow, cause):
        code, out, err = run(capsys, *overflow)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert cause in err

    @pytest.mark.parametrize("command", [
        ("opt-time",), ("sweep",), ("contour", "--vary2", "g_b", "--vary2_values", "1")])
    def test_range_refused_before_its_values_are_built(self, tmp_path, capsys, command):
        # 10^7 values x 3 time points: the sweep's own refusal, before 10^7 floats exist
        argv = (*command, "--vary", "g_a", "--vary_min", "0", "--vary_max", "1",
                "--vary_count", "10000000", "--t_max", "1", "--dt", "0.5",
                "--out", str(tmp_path / "out.csv"))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == ("error: 10000000 parameter points x 3 time points = 30000000, "
                       "more than the limit of 10000000\n")
        assert peak < 50 * 2**20

    def test_contour_refused_before_either_range_is_built(self, tmp_path, capsys):
        # each axis passes the limit alone and over the grid, their product does not
        argv = ("contour", "--vary", "g_a", "--vary_min", "0", "--vary_max", "1",
                "--vary_count", "4000000", "--vary2", "g_b", "--vary2_min", "0",
                "--vary2_max", "1", "--vary2_count", "2", "--t_max", "1", "--dt", "1",
                "--out", str(tmp_path / "out.csv"))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == ("error: 8000000 parameter points x 2 time points = 16000000, "
                       "more than the limit of 10000000\n")
        assert peak < 2 * 2**20  # 4 * 10^6 range values alone would take over 30 MB
        assert not (tmp_path / "out.csv").exists()

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

    def test_refused_point_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "F.csv"
        code, stdout, err = run(capsys, "sweep", "--t_max", "1", "--dt", "0.5",
                                "--vary", "lambda", "--vary_values", "1,-1", "--out", str(out))
        assert (code, stdout, err) == (2, "", "error: coupling lambda must be >= 0\n")
        assert not out.exists()

    def test_rendering_holds_one_table_at_a_time(self, tmp_path):
        # 4 tables of 2001 rows: all rows as one text peak at about 2.7e6 B
        cfg = {**_DEFAULTS, **parse_config_file(str(CONFIG_DIR / "sweep_gamma.cfg"))}
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            run_sweep(cfg, str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        assert out.read_text(encoding="utf-8").count("\n") == 1 + 4 * 2001

    def test_values_and_range_conflict(self, capsys):
        code, _, _ = run(capsys, "sweep", "--t_max", "1", "--dt", "0.5",
                         "--vary", "g_a", "--vary_values", "1",
                         "--vary_min", "0", "--vary_max", "1", "--vary_count", "2")
        assert code == 2


def generation(obj) -> int | None:
    """The generation that holds the tracked `obj`, or None when it sits in the permanent one."""
    return next((g for g in range(3) if any(o is obj for o in gc.get_objects(g))), None)


class TestGcState:
    """`main` leaves the caller's GC state as it found it on every exit path: an object
    stays in its generation, a frozen one stays frozen, and the older generations'
    counts and `gc.isenabled()` are unchanged."""

    @pytest.mark.parametrize("outcome", [0, 2, 3, "raises"])
    @pytest.mark.parametrize("host", ["plain", "frozen", "disabled"])
    def test_main_restores_the_gc_state(self, tmp_path, monkeypatch, capsys, host, outcome):
        argv = ["opt-time", "--t_max", "1", "--dt", "0.5", "--vary", "g_b", "--vary_values", "1,2"]
        argv += {2: ["--bogus", "1"], 3: ["--out", str(tmp_path / "no_such_dir" / "out.csv")]}.get(outcome, [])
        if outcome == "raises":
            def failing(*args):
                raise RuntimeError("not a config or I/O fault")

            monkeypatch.setattr(cli, "optimal_time_sweep", failing)
        threshold = gc.get_threshold()
        early = []  # frozen with the host's set
        try:
            if host == "frozen":
                gc.freeze()
            elif host == "disabled":
                gc.disable()
            gc.set_threshold(0)  # no automatic collection, which would move objects on its own
            young = []

            def state():
                return generation(early), generation(young), gc.get_count()[1:], gc.isenabled()

            before, frozen_before = state(), gc.get_freeze_count()
            if outcome == "raises":
                with pytest.raises(RuntimeError, match="not a config or I/O fault"):
                    main(argv)
            else:
                assert main(argv) == outcome
            after, frozen_after = state(), gc.get_freeze_count()
        finally:
            gc.set_threshold(*threshold)
            gc.unfreeze()
            gc.enable()
        assert (before[0] is None, before[1], before[3]) == (host == "frozen", 0, host != "disabled")
        assert after == before
        # a frozen object that dies during the run lowers the freeze count (numpy's
        # errstate replaces the context's variable map), and nothing may raise it
        assert frozen_after <= frozen_before and (frozen_after > 0) == (host == "frozen")


@pytest.mark.parametrize("argv", [
    ("dynamics", "--gamma", "0.3"),
    ("sweep", "--vary", "gamma", "--vary_values", "0,0.5,-0"),
    ("opt-time", "--vary", "g_b", "--vary_values", "0.5,1,2"),
], ids=["dynamics", "sweep", "opt_time"])
def test_stdout_gets_the_file_bytes(tmp_path, capsysbinary, argv):
    out = tmp_path / "out.csv"
    args = (*argv, "--t_max", "3", "--dt", "0.1")
    assert main([*args, "--out", str(out)]) == 0
    assert capsysbinary.readouterr() == (b"", b"")
    assert main(list(args)) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert captured.out == out.read_bytes()
    assert captured.out.count(b"\n") >= 4  # the header and at least three rows


class TestNumberFormat:
    @pytest.mark.parametrize("argv", [
        ("dynamics", "--gamma", "0.3"),
        ("sweep", "--vary", "delta_1", "--vary_values", "-0,-1.5"),
        ("opt-time", "--vary", "delta_1", "--vary_values", "-0,-1.5"),
        ("contour", "--vary", "delta_1", "--vary_values", "-0,-1.5",
         "--vary2", "g_b", "--vary2_values", "-0,0.7"),
    ], ids=["dynamics", "sweep", "opt_time", "contour"])
    def test_shortest_12_digit_rendering_without_negative_zero(self, tmp_path, capsys, argv):
        # every number prints as format(x + 0.0, ".12g"), which reads "0" for -0.0
        out_path = str(tmp_path / "out.csv")
        code, _, _ = run(capsys, *argv, "--t_max", "3", "--dt", "0.1", "--out", out_path)
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        fields = [f for row in rows for f in row.split(",") if f[0] in "-0123456789"]
        assert len(fields) >= 2 * len(rows)
        assert all(f == format(float(f) + 0.0, ".12g") for f in fields)


# the values whose rendering differs most: a sign, a subnormal, an exponent
# switch, 13 significant digits, no fraction, and the non-finite ones
EDGE_VALUES = (-0.0, 5e-324, 1e-5, 123456789012.5, 1e16, math.inf, math.nan, -1.5, 0.1)
ROW_TEMPLATES = {
    "1 column": "%.12g",
    "3 columns": "g_b,%.12g,%.12g,%.12g",
    "6 columns": "gamma,0.5," + _DYNAMICS_ROW,
}


class TestRowBlocks:
    """`_rows` renders `_BLOCK_ROWS` rows per `%`; at 3 rows a block, tables of
    1-7 rows end before, on and past block boundaries, and the text must be
    the row-by-row text byte for byte."""

    @pytest.fixture
    def three_row_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("template", ROW_TEMPLATES.values(), ids=ROW_TEMPLATES)
    def test_equals_the_row_by_row_text(self, three_row_blocks, template, rows):
        table = np.resize(EDGE_VALUES, (rows, template.count("%")))
        blocks = list(_rows(template, table))
        assert len(blocks) == -(-rows // 3)
        assert b"".join(blocks) == rows_by_row(template, table).encode("ascii")

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7])
    def test_opt_time_rows(self, three_row_blocks, rows):
        table = np.array([(float(k), EDGE_VALUES[k % 9], EDGE_VALUES[(k + 4) % 9]) for k in range(rows)])
        text = b"".join(_rows(ROW_TEMPLATES["3 columns"], table))
        assert text == rows_by_row(ROW_TEMPLATES["3 columns"], table).encode("ascii")
        assert text.splitlines()[0] == b"g_b,0,0,1e+16"

    def test_every_edge_value_in_every_column(self, three_row_blocks):
        template = ROW_TEMPLATES["6 columns"]
        table = np.array([np.roll(EDGE_VALUES, k)[:6] for k in range(9)])
        text = b"".join(_rows(template, table))
        assert text == rows_by_row(template, table).encode("ascii")
        assert text.startswith(b"gamma,0.5,0,4.94065645841e-324,1e-05,123456789012,1e+16,inf\n")

    @settings(max_examples=300)
    @given(block_rows=st.integers(1, 8), table=st.integers(1, 6).flatmap(
        lambda columns: st.lists(st.tuples(*[st.floats()] * columns), min_size=1, max_size=20)))
    def test_any_float_table(self, block_rows, table):
        template = "x," + ",".join(["%.12g"] * len(table[0]))
        table = np.array(table)  # every CLI caller passes a float array
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            assert b"".join(_rows(template, table)) == rows_by_row(template, table).encode("ascii")

    @settings(max_examples=1000, derandomize=True)
    @given(x=st.floats())
    def test_bytes_render_a_float_as_str_does(self, x):
        # `_rows` renders with bytes `%`, and the shipped digests rest on its giving str's
        # text; these 1000 draws include nan, both infinities, -0.0 and subnormals
        assert b"%.12g" % x == ("%.12g" % x).encode("ascii")

    def test_rendering_peak_is_bounded_by_the_block_not_the_table(self, rng, tmp_path):
        # 1e5 random rows of 6 columns are 9.1e6 B of text; rendered as one block
        # they peak at 4.0e7 B.  Per cell of a block, the peak comes inside the bytes
        # `%`: a Python float (24 B), its tuple slot (8 B; the list it came from is
        # freed), its part of the block's copy (8 B), of the format (6 B) and of the
        # text as it grows (15 B on average here, with the writer's overallocation of
        # up to a quarter).  64.5 B was measured, so 70 B is the bound; keeping the
        # list alive through the `%` measured 72.6 B.  The bytes go to the binary
        # file as they are, with no encoded copy
        table = rng.standard_normal((100_000, 6))
        out = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            _write_csv(str(out), "a,b,c,d,e,f", [(",".join(["%.12g"] * 6), table)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 70 * 6 * cli._BLOCK_ROWS
        assert out.read_text(encoding="utf-8").count("\n") == 1 + 100_000


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
        # delta_1 moves omega_m to 0.5, so base_params shows the derived omegas
        overrides = {"t_max": "1", "dt": "0.5", "delta_1": "0.5", "vary": "g_a", "vary_values": "1",
                     "vary2": "g_b", "vary2_values": "1"}
        for mode, recorded in (("paper", "paper"), ("repaired", "trace_repaired")):
            out = tmp_path / f"{mode}.csv"
            args = [token for key, value in overrides.items() for token in (f"--{key}", value)]
            code, _, _ = run(capsys, "contour", *args, "--out", str(out), "--mode", mode)
            assert code == 0
            meta = json.loads((tmp_path / f"{mode}.csv.meta.json").read_text())
            # exactly these keys: no clocks, hosts or pids may leak in
            assert set(meta) == {"metric", "mode", "x_name", "y_name", "time_horizon", "time_step",
                                 "time_points", "base_params", "config_sha256"}
            assert meta["metric"] == "max_ergotropy"
            assert meta["mode"] == recorded
            assert (meta["x_name"], meta["y_name"]) == ("g_a", "g_b")
            assert meta["time_points"] == 3
            assert meta["time_horizon"] == [0.0, 1.0]
            assert meta["time_step"] == 0.5
            resolved = {**_DEFAULTS, **overrides, "mode": mode}
            assert meta["base_params"] == vars(build_params(resolved))
            assert meta["base_params"]["omega_m"] == 0.5
            assert meta["config_sha256"] == hashlib_digest(resolved)

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

    def test_axes_setting_one_field_rejected(self, tmp_path, capsys):
        code, out, err = run(capsys, "contour", "--t_max", "1", "--dt", "0.5",
                             "--vary", "kappa_all", "--vary_values", "0,1",
                             "--vary2", "kappa_a", "--vary2_values", "2",
                             "--out", str(tmp_path / "c.csv"))
        assert (code, out) == (2, "")
        assert "kappa_all and kappa_a both set kappa_a" in err
        assert not (tmp_path / "c.csv").exists()

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


# One small run per subcommand that writes a file; contour also writes `<out>.meta.json`
OUT_RUNS = {
    "dynamics": ("dynamics", "--t_max", "1", "--dt", "0.1"),
    "sweep": ("sweep", "--t_max", "1", "--dt", "0.1", "--vary", "gamma", "--vary_values", "0,0.5"),
    "contour": ("contour", "--t_max", "1", "--dt", "0.5",
                "--vary", "g_a", "--vary_values", "0.5,1", "--vary2", "g_b", "--vary2_values", "1,2"),
    "opt_time": ("opt-time", "--t_max", "1", "--dt", "0.1", "--vary", "g_b", "--vary_values", "0.5,1"),
}


def written(argv, out: Path) -> list[Path]:
    """The files a run of `argv` with `--out out` writes."""
    return [out, out.with_name(out.name + ".meta.json")] if argv[0] == "contour" else [out]


class TestOverwrite:
    """A run over existing files writes them from their start and cuts them to the new
    length: the bytes of a run into a fresh path, in the same inode, mode and links."""

    @pytest.mark.parametrize("old", ["longer", "shorter"])
    @pytest.mark.parametrize("argv", OUT_RUNS.values(), ids=OUT_RUNS)
    def test_bytes_of_a_run_into_a_fresh_path(self, tmp_path, capsys, argv, old):
        fresh, out = tmp_path / "fresh.csv", tmp_path / "out.csv"
        assert run(capsys, *argv, "--out", str(fresh)) == (0, "", "")
        expected = [path.read_bytes() for path in written(argv, fresh)]
        for path, data in zip(written(argv, out), expected):
            path.write_bytes(b"old\n" * (len(data) // 2 if old == "longer" else len(data) // 8))
        assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
        assert [path.read_bytes() for path in written(argv, out)] == expected

    def test_symlink_is_written_through_and_stays_a_link(self, tmp_path, capsys):
        fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
        run(capsys, *OUT_RUNS["opt_time"], "--out", str(fresh))
        target.write_bytes(b"old\n" * 1000)
        link.symlink_to(target)
        assert run(capsys, *OUT_RUNS["opt_time"], "--out", str(link)) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    def test_existing_mode_and_inode_kept_new_file_mode_from_the_umask(self, tmp_path, capsys):
        out, new = tmp_path / "out.csv", tmp_path / "new.csv"
        out.write_bytes(b"old\n" * 1000)
        out.chmod(0o640)
        inode = out.stat().st_ino
        umask = os.umask(0o022)  # a file made anew would read 0o644
        try:
            assert run(capsys, *OUT_RUNS["opt_time"], "--out", str(out)) == (0, "", "")
            assert run(capsys, *OUT_RUNS["opt_time"], "--out", str(new)) == (0, "", "")
        finally:
            os.umask(umask)
        assert (stat.S_IMODE(out.stat().st_mode), out.stat().st_ino) == (0o640, inode)
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        assert out.read_bytes() == new.read_bytes()

    def test_devnull_is_written_and_never_cut(self, capsys):
        # a one-file subcommand: contour would create its sidecar beside os.devnull
        assert run(capsys, *OUT_RUNS["opt_time"], "--out", os.devnull) == (0, "", "")

    def test_pipe_is_written_and_never_cut(self, tmp_path, capsys):
        fresh, fifo = tmp_path / "fresh.csv", tmp_path / "fifo"
        run(capsys, *OUT_RUNS["opt_time"], "--out", str(fresh))
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # opened first, so the run's open does not block
        try:
            assert run(capsys, *OUT_RUNS["opt_time"], "--out", str(fifo)) == (0, "", "")
            data = os.read(reader, 2**16)  # the output is far below the pipe's buffer
        finally:
            os.close(reader)
        assert data == fresh.read_bytes()

    def test_failure_mid_write_leaves_only_the_rows_written_before_it(self, tmp_path, monkeypatch, capsys):
        rows = cli._rows

        def first_block_then_fail(template, table):
            yield next(rows(template, table))
            raise ValueError("rendering failed")

        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(cli, "_rows", first_block_then_fail)
        fresh, out = tmp_path / "fresh.csv", tmp_path / "out.csv"
        out.write_bytes(b"old\n" * 1000)
        for path in (fresh, out):
            assert run(capsys, *OUT_RUNS["dynamics"], "--out", str(path)) == (2, "", "error: rendering failed\n")
        assert out.read_bytes() == fresh.read_bytes()
        assert fresh.read_bytes().count(b"\n") == 1 + 3  # the header and the first block of the 11 rows


# A grid of 3 time points, and a range of 4 * 10^6 values: under the limit of
# 10^7 samples alone, over it across the grid.
SMALL_GRID = ("--t_max", "1", "--dt", "0.5")
TOO_MANY = ("--vary_min", "0", "--vary_max", "1", "--vary_count", "4000000")


# One valid value per key of the first axis; the range spells 0, 0.5, 1
AXIS = {"vary": "g_a", "vary_values": "0.5, 1", "vary_min": "0", "vary_max": "1", "vary_count": "3"}
RANGE_KEYS = ("vary_min", "vary_max", "vary_count")


def _axis_verdict(keys: set[str]) -> tuple[int, str, list[str]]:
    """(exit code, stderr, swept values) of a sweep given `keys` of AXIS: a key of
    the axis without `vary` is named, the first of values, min, max and count;
    with no axis key the sweep is missing its axis; `vary` needs the values or
    the whole range, not both."""
    ranged = [key for key in RANGE_KEYS if key in keys]
    if "vary" not in keys:
        if given := [key for key in ("vary_values", *RANGE_KEYS) if key in keys]:
            return 2, f"error: {given[0]} given without vary\n", []
        return 2, "error: sweep needs a swept parameter (config key 'vary')\n", []
    if "vary_values" in keys:
        if ranged:
            return 2, "error: give either vary_values or vary_min/vary_max/vary_count, not both\n", []
        return 0, "", ["0.5", "1"]
    if not ranged:
        return 2, "error: vary = g_a given without vary_values or a vary_min/vary_max/vary_count range\n", []
    if len(ranged) < len(RANGE_KEYS):
        missing = ", ".join(key for key in RANGE_KEYS if key not in keys)
        return 2, f"error: incomplete range: missing {missing}\n", []
    return 0, "", ["0", "0.5", "1"]


class TestRefusals:
    @pytest.mark.parametrize("argv, message", [
        (("dynamics", "stray"), "unexpected argument 'stray'"),
        (("sweep", "--vary", "g_a", "--vary_min", "0", "--vary_max", "1", "--vary_count", "2.5"),
         "config key 'vary_count': not an integer: '2.5'"),
        (("sweep", "--vary_values", "1"), "vary_values given without vary"),
        (("sweep", "--vary", "g_a", "--vary_min", "0"), "incomplete range: missing vary_max, vary_count"),
        (("opt-time", "--vary", "g_a", "--vary_min", "0", "--vary_max", "1", "--vary_count", "1"),
         "linear range needs count >= 2"),
        (("opt-time", "--vary", "g_a"),
         "vary = g_a given without vary_values or a vary_min/vary_max/vary_count range"),
    ], ids=["argument", "count", "values_alone", "incomplete", "count_1", "vary_alone"])
    def test_input_refused_in_one_line(self, capsys, argv, message):
        assert run(capsys, *argv, *SMALL_GRID) == (2, "", f"error: {message}\n")

    # Each input has two faults; the run reports the one that comes first in
    # the order of the `cli` docstring: --out (contour), the time grid, each
    # axis as read, a missing axis, the size, the axes' values, the base
    # parameters, the mode.
    @pytest.mark.parametrize("argv, message", [
        (("dynamics", "--dt", "0", "--lambda", "-1"), "need t_max > 0"),
        (("dynamics", "--lambda", "-1", "--mode", "frob"), "coupling lambda must be >= 0"),
        (("sweep", "--dt", "0", "--vary", "g_a"), "need t_max > 0"),
        (("sweep", "--vary_values", "1"), "vary_values given without vary"),
        (("sweep", *SMALL_GRID, "--vary", "frob", *TOO_MANY), "parameter points x 3 time points"),
        (("sweep", "--vary", "frob", "--vary_values", "1", "--lambda", "-1"),
         "unknown sweep parameter 'frob'"),
        (("opt-time", "--dt", "nan", "--vary", "g_a", "--vary_count", "1"), "must be finite"),
        (("opt-time", *SMALL_GRID, "--vary", "g_a", "--vary_values", "1", "--lambda", "-1",
          "--mode", "frob"), "coupling lambda must be >= 0"),
        (("contour", "--dt", "0"), "contour needs --out"),
        (("contour", "--vary_values", "1"), "contour needs --out"),
        (("contour", "--out", "c.csv", "--dt", "0", "--vary_values", "1"), "need t_max > 0"),
        (("contour", "--out", "c.csv", *SMALL_GRID, "--vary", "g_a", *TOO_MANY),
         "contour needs two swept parameters"),
        (("contour", "--out", "c.csv", *SMALL_GRID, "--vary", "frob", "--vary_values", "1,2",
          "--vary2", "g_b", "--vary2_min", "0", "--vary2_max", "1", "--vary2_count", "2000000"),
         "4000000 parameter points x 3 time points"),
        (("contour", "--out", "c.csv", *SMALL_GRID, "--vary", "frob", "--vary_values", "1",
          "--vary2", "g_b", "--vary2_values", "1", "--lambda", "-1"), "unknown sweep parameter 'frob'"),
    ], ids=["dynamics-grid-params", "dynamics-params-mode", "sweep-grid-axis", "sweep-axis-missing",
            "sweep-size-values", "sweep-values-params", "opt_time-grid-axis", "opt_time-params-mode",
            "contour-out-grid", "contour-out-axis", "contour-grid-axis", "contour-missing-size",
            "contour-size-values", "contour-values-params"])
    def test_first_fault_in_the_documented_order(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("keys", [keys for r in range(6) for keys in itertools.combinations(AXIS, r)],
                             ids=lambda keys: "+".join(keys) or "none")
    def test_every_subset_of_the_axis_keys(self, capsys, keys):
        code, out, err = run(capsys, "sweep", *SMALL_GRID, *(f"--{key}={AXIS[key]}" for key in keys))
        want_code, want_err, values = _axis_verdict(set(keys))
        assert (code, err) == (want_code, want_err)
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == [v for v in values for _ in range(3)]


# Values that number parsers disagree on, the edges of float64 and separators
ADVERSARIAL = st.sampled_from(("nan", "inf", "1e308", "1e400", "5e-324", "", "0x10", "1_0", "٣", "1,,2"))
# Accepted grids stay small: t_max is at most 10 ("1_0") and dt at least 0.25
VALUES = {
    "t_max": ("0.5", "1", "2"),
    "dt": ("0.25", "0.5", "1"),
    "mode": ("paper", "repaired", "trace_repaired", "frob"),
    "vary": PARAMETER_NAMES + ("frob",),
    "vary_values": ("0.5", "0, 1", "1,2,"),
    "vary_count": ("2", "3", "1", "-2"),
    "threads": ("1", "2", "0"),
}
# A run every subcommand accepts, on a 5-point grid; a draw overrides or drops some of its keys
ACCEPTED = {"t_max": "1", "dt": "0.25", "vary": "g_a", "vary_values": "0.5",
            "vary2": "g_b", "vary2_values": "1"}


def _entry(key: str, droppable: bool = True):
    """(key, value or None to drop it, whether it goes in the config file)."""
    values = st.sampled_from(VALUES.get(key.replace("vary2", "vary"), ("0", "0.5", "1", "-1", "2"))) | ADVERSARIAL
    return st.tuples(st.just(key), st.none() | values if droppable else values,
                     st.booleans() if key in _ALL_KEYS else st.just(False))


def _axis(prefix: str):
    """A swept axis as one unit, or no entries: its values list, or a complete
    min/max/count range that drops the values list."""
    values, low, high, count = (f"{prefix}_{suffix}" for suffix in ("values", "min", "max", "count"))
    return st.just([]) | _entry(values).map(lambda entry: [entry]) | st.tuples(
        st.just((values, None, False)), *(_entry(key, droppable=False) for key in (low, high, count))).map(list)


# each swept axis drawn as one unit, then single entries that may override or drop its keys
ENTRIES = st.tuples(_axis("vary"), _axis("vary2"), st.lists(
    st.sampled_from(sorted(_ALL_KEYS | {"threads"})).flatmap(_entry), max_size=4)).map(lambda parts: sum(parts, []))


class TestExitCodeContract:
    # 200 examples: 1.5-3 s on a 2-core machine
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(("dynamics", "sweep", "contour", "opt-time")),
        entries=ENTRIES,
        use_config=st.booleans(),
        out=st.booleans(),
        joined=st.booleans(),
    )
    # matrices whose norm overflows: refused as too large, without a numpy warning
    @example(command="dynamics", entries=[("lambda", "1e308", False)], use_config=False, out=False, joined=False)
    @example(command="sweep", entries=[("g_b", "1e308", False), ("omega_b", "1e308", False)],
             use_config=False, out=False, joined=False)
    @example(command="opt-time", entries=[("omega_a", "-1e308", False), ("omega_q", "1e308", False)],
             use_config=False, out=False, joined=False)
    @example(command="contour", entries=[("t_max", "1e308", False), ("dt", "1e308", False)],
             use_config=False, out=True, joined=False)
    # a range with an infinite bound or a span past the largest float: refused
    # before np.linspace, without its numpy warnings
    @example(command="sweep", entries=[("vary_values", None, False), ("vary_min", "0", False),
                                       ("vary_max", "inf", False), ("vary_count", "3", False)],
             use_config=False, out=False, joined=False)
    @example(command="sweep", entries=[("vary_values", None, False), ("vary_min", "-1e308", False),
                                       ("vary_max", "1e308", False), ("vary_count", "3", False)],
             use_config=False, out=False, joined=False)
    def test_every_run_exits_0_or_2(self, tmp_path, capsys, command, entries, use_config, out, joined):
        for path in tmp_path.iterdir():
            path.unlink()
        target = tmp_path / "out.csv"
        in_file, flags = (dict(ACCEPTED), {}) if use_config else ({}, dict(ACCEPTED))
        for key, value, to_file in entries:
            for side in (in_file, flags):
                side.pop(key, None)
            if value is not None:
                (in_file if use_config and to_file else flags)[key] = value
        argv = [command]
        if use_config:
            argv += ["--config", write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in in_file.items()))]
        if out:
            flags["out"] = str(target)
        for key, value in flags.items():
            argv += [f"--{key}={value}"] if joined else [f"--{key}", value]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            code, stdout, err = run(capsys, *argv)
        assert code in (0, 2)
        if code == 0:
            assert err == "" and target.exists() == out and (stdout == "") == out
        else:
            assert stdout == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not target.exists() and not (tmp_path / "out.csv.meta.json").exists()
