"""Catalogue of source mutants and the tests that kill them.

Each mutant is one textual edit of `src/magbattery/`: its old text, which
occurs exactly once in `src/` (`test_mutants.py` checks that on every
Tier-1 run), and the new text put in its place.  A mutant names the tests
that kill it, or is marked equivalent with the reason no test can.

    python3 tests/mutants.py [NAME ...]

copies the tree into a temporary directory per mutant, applies it and runs
its killers; only if they all pass does it run the full Tier-1 suite, less
`test_mutants.py`.  An equivalent mutant runs the full suite alone.  Property
tests run their seeded examples unshrunk (the `seeded_no_shrink` profile of
`conftest.py`): a verdict needs a failure, not a minimal one.  It
prints one line per mutant and exits 1 if a mutant not marked equivalent
survives or a run errs (2 on an unknown name).  pytest does not collect
this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "magbattery"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/magbattery/
    old: str
    new: str
    killers: tuple[str, ...] = ()  # pytest ids, run from the root of the tree
    equivalent: str = ""  # why no test can kill it; set instead of killers


MUTANTS = (
    Mutant("repaired_is_paper", "states.py", "return cls.TRACE_REPAIRED", "return cls.PAPER",
           ("tests/test_cli.py::TestDynamics::test_trace_repaired_alias_in_config",
            "tests/test_cli.py::TestDynamics::test_mode_changes_numbers_under_decay",
            "tests/test_modes.py::test_default_and_repaired_are_trace_repaired")),
    Mutant("default_mode_paper", "states.py",
           "_DEFAULT_MODE = AccountingMode.TRACE_REPAIRED", "_DEFAULT_MODE = AccountingMode.PAPER",
           ("tests/test_modes.py::test_library_default_is_trace_repaired",
            "tests/test_modes.py::test_cli_default_is_trace_repaired")),
    Mutant("unknown_mode_accepted", "states.py", 'if value != "repaired":', "if False:",
           ("tests/test_modes.py::test_unknown_mode_refused_with_one_message",
            "tests/test_cli.py::TestDynamics::test_unknown_mode_lists_the_flag_choices")),
    Mutant("linspace_range_unchecked", "sweeps.py",
           "if not math.isfinite(stop - start):",
           "if False:",
           ("tests/test_sweeps.py::TestVarySpec::test_linspace_needs_a_finite_span",
            "tests/test_cli.py::TestExitCodeContract::test_every_run_exits_0_or_2")),
    Mutant("linspace_span_unchecked", "sweeps.py",
           "if not math.isfinite(stop - start):",
           "if not (math.isfinite(start) and math.isfinite(stop)):",
           ("tests/test_sweeps.py::TestVarySpec::test_linspace_needs_a_finite_span",
            "tests/test_cli.py::TestExitCodeContract::test_every_run_exits_0_or_2")),
    Mutant("latest_peak", "sweeps.py",
           "idx = np.argmax(e >= peak - _PEAK_TIE_TOL * peak, axis=-1)",
           "idx = e.shape[-1] - 1 - np.argmax((e >= peak - _PEAK_TIE_TOL * peak)[..., ::-1], axis=-1)",
           ("tests/test_sweeps.py::TestOptimalChargingTime::test_earliest_tie_wins",
            "tests/test_sweeps.py::TestOptimalChargingTime::test_flat_energy_returns_grid_start")),
    Mutant("energy_unit_twice", "metrics.py",
           '"energy": lambda: omega_q * _snap(', '"energy": lambda: omega_q * omega_q * _snap(',
           ("tests/test_metrics.py::TestStoredEnergy::test_scales_with_omega_q",
            "tests/test_symmetries.py::TestEnergyUnit")),
    Mutant("norm_slack_1e-8", "propagator.py", "_NORM_SLACK = 1e-9", "_NORM_SLACK = 1e-8",
           ("tests/test_metrics.py::TestSeriesRoutes::test_state_checks",
            "tests/test_sweeps.py::TestBlocks::test_refusals_reach_the_sweep")),
    Mutant("max_step_norm_2**22", "propagator.py", "_MAX_STEP_NORM = 2.0**21", "_MAX_STEP_NORM = 2.0**22",
           ("tests/test_propagator.py::TestMatrixExponential::test_budget_ends_at_22_squarings",
            "tests/test_propagator.py::TestEvolve::test_step_exponential_needs_at_most_22_squarings")),
    Mutant("contour_x_major", "sweeps.py",
           "np.concatenate(z).reshape(len(vary_y.values), len(vary_x.values))",
           "np.concatenate(z).reshape(len(vary_x.values), len(vary_y.values)).T",
           ("tests/test_sweeps.py::TestMaxErgotropyGrid::test_cell_independence",
            "tests/test_symmetries.py::TestContourAxisSwap")),
    Mutant("oracle_step_1e-2", "propagator.py", "_ORACLE_STEP = 1e-3", "_ORACLE_STEP = 1e-2",
           ("tests/test_propagator.py::TestOracleIntegrate::test_long_and_mixed_spans",
            "tests/test_propagator.py::TestShellHamiltonianOracle::test_random_draws")),
    Mutant("ground_clamp_dropped", "metrics.py",
           "ground = np.maximum(ground, 0.0)", "ground = ground",
           ("tests/test_metrics.py::TestGuards::test_clamp_reaches_every_column_that_reads_the_ground_population",
            "tests/test_metrics.py::TestGuards::test_ground_population_floor_is_minus_1e_12")),
    Mutant("peak_tie_tol_1e-6", "sweeps.py", "_PEAK_TIE_TOL = 1e-9", "_PEAK_TIE_TOL = 1e-6",
           ("tests/test_sweeps.py::TestOptimalChargingTime::test_tie_window_is_1e_9_of_the_peak",)),
    Mutant("zero_snap_1e-11", "metrics.py", "_ZERO_SNAP = 1e-12", "_ZERO_SNAP = 1e-11",
           ("tests/test_metrics.py::TestColumnSelection::test_energy_snap_is_1e_12_in_population_units",)),
    Mutant("population_floor_-1e-10", "metrics.py", "_POPULATION_FLOOR = -1e-12", "_POPULATION_FLOOR = -1e-10",
           ("tests/test_metrics.py::TestGuards::test_ground_population_floor_is_minus_1e_12",)),
    Mutant("one_pass_ulp_2", "propagator.py", "> 4.0 * ulp", "> 2.0 * ulp",
           ("tests/test_propagator.py::TestOneRun::test_window_is_4_ulps",)),
    Mutant("taylor_15_dropped", "propagator.py", "f = c[15] * m3", "f = 0.0 * m3",
           equivalent="the X^15 / 15! term is below 2e-17 relative at norm <= 0.5, "
                      "under the last bit that 12 digits or any test tolerance reads"),
    Mutant("decay_without_i", "model.py",
           "_frame_frequencies(fields), 0.0 - 0.5 * fields[:, 7:]",
           "_frame_frequencies(fields) - 0.5 * fields[:, 7:], 0.0",
           ("tests/test_model.py::TestEvolutionMatrix::test_decay_enters_diagonal",
            "tests/test_cli.py::TestDynamics::test_mode_changes_numbers_under_decay")),
    Mutant("g_a_squared", "model.py",
           "{(0, 1): g_a, (1, 0): g_a,",
           "{(0, 1): g_a**2, (1, 0): g_a**2,",
           ("tests/test_model.py::TestEvolutionMatrix::test_stacked_build_equals_each_point",
            "tests/test_propagator.py::TestShellHamiltonianOracle::test_random_draws")),
    Mutant("generator_conjugated", "model.py",
           "w[:, d, 1, d, 0], w[:, d, 0, d, 1] = f, -f",
           "w[:, d, 1, d, 0], w[:, d, 0, d, 1] = -f, f",
           ("tests/test_model.py::TestEvolutionMatrix::test_real_generator_is_minus_i_a_on_rows",
            "tests/test_model.py::TestEvolutionMatrix::test_diagonal_is_frame_frequencies")),
    Mutant("substitute_axes_reversed", "sweeps.py",
           "for name, column in zip(names, cells.T):",
           "for name, column in zip(names, cells.T[::-1]):",
           ("tests/test_sweeps.py::TestApplyParameter::test_later_name_wins",
            "tests/test_symmetries.py::TestContourAxisSwap")),
    Mutant("paper_energy_without_omega_q", "metrics.py",
           "omega_q * _snap(1.0 - g if paper else 2.0 * s)",
           "(_snap(1.0 - g) if paper else omega_q * _snap(2.0 * s))",
           ("tests/test_metrics.py::TestStoredEnergy::test_scales_with_omega_q",
            "tests/test_symmetries.py::TestEnergyUnit::test_cli_dynamics")),
    Mutant("contour_evolved_x_outer", "sweeps.py",
           "(vary_y, vary_x), t_grid",
           "(vary_x, vary_y), t_grid",
           ("tests/test_sweeps.py::TestMaxErgotropyGrid::test_cell_independence",
            "tests/test_symmetries.py::TestContourAxisSwap")),
    Mutant("contour_labels_swapped", "cli.py",
           'template = f"{vary_x.parameter_name},%.12g,{vary_y.parameter_name},%.12g,%.12g"',
           'template = f"{vary_y.parameter_name},%.12g,{vary_x.parameter_name},%.12g,%.12g"',
           ("tests/test_cli.py::TestContour::test_single_cell",
            "tests/test_end_to_end.py::test_contour_matches_a_python_max_of_the_reference_ergotropy")),
    Mutant("frame_against_photon", "model.py",
           "fields[:, :4] - fields[:, 3:4]",
           "fields[:, :4] - fields[:, 0:1]",
           ("tests/test_model.py::TestEvolutionMatrix::test_diagonal_is_frame_frequencies",
            "tests/test_propagator.py::TestZToC::test_unit_phase_rotation")),
    Mutant("substitute_omega_a_m_swapped", "sweeps.py",
           "fields[:, :3] = np.column_stack(",
           "fields[:, 2::-1] = np.column_stack(",
           ("tests/test_cli.py::TestConfigParsing::test_build_params_substitutes_detunings_together",
            "tests/test_sweeps.py::TestBlockFields::test_one_axis")),
    Mutant("delta_3_sign", "model.py",
           "omega_a = omega_q - delta_3",
           "omega_a = omega_q + delta_3",
           ("tests/test_model.py::TestSystemParams::test_from_detunings_round_trip",
            "tests/test_sweeps.py::TestApplyParameter::test_detuning_substitution")),
    Mutant("one_pass_ulp_64", "propagator.py",
           "> 4.0 * ulp",
           "> 64.0 * ulp",
           ("tests/test_propagator.py::TestOneRun::test_window_is_4_ulps",
            "tests/test_propagator.py::TestOneRun::test_position_rule_at_edges")),
    Mutant("one_pass_ulp_8", "propagator.py",
           "> 4.0 * ulp",
           "> 8.0 * ulp",
           ("tests/test_propagator.py::TestOneRun::test_window_is_4_ulps",
            "tests/test_propagator.py::TestOneRun::test_position_rule_at_edges")),
    Mutant("one_pass_last_unchecked", "propagator.py",
           "if off.any():",
           "if off[:-1].any():",
           ("tests/test_propagator.py::TestOneRun::test_window_is_4_ulps",
            "tests/test_propagator.py::TestOneRun::test_position_rule_at_edges")),
    Mutant("one_pass_positions_one_step_off", "propagator.py",
           "np.arange(2, rest.size + 2)",
           "np.arange(1, rest.size + 1)",
           ("tests/test_propagator.py::TestOneRun::test_position_rule",
            "tests/test_propagator.py::test_one_run_is_found_by_position")),
    Mutant("one_run_refusal_dropped", "propagator.py",
           "if off.any():",
           "if False:",
           ("tests/test_propagator.py::TestEvolve::test_grid_off_the_step_refused",
            "tests/test_sweeps.py::test_library_input_refused")),
    Mutant("grid_start_unchecked", "propagator.py",
           "if t.size < 2 or t[0] != 0.0:",
           "if t.size < 2:",
           ("tests/test_sweeps.py::test_grid_starts_at_0_and_takes_a_step",
            "tests/test_propagator.py::TestBatchedEvolve::test_rows_match_single_points")),
    Mutant("grid_without_a_step_accepted", "propagator.py",
           "if t.size < 2 or t[0] != 0.0:",
           "if t[0] != 0.0:",
           ("tests/test_sweeps.py::test_grid_starts_at_0_and_takes_a_step",
            "tests/test_propagator.py::TestEvolve::test_overflowing_frame_frequency_refused")),
    Mutant("chunk_without_the_16", "propagator.py",
           "per_chunk = max(1, _BLOCK_SAMPLES // 16)",
           "per_chunk = max(1, _BLOCK_SAMPLES)",
           ("tests/test_sweeps.py::TestBlocks::test_opt_time_memory_bounded_in_points_x_time_points",)),
    Mutant("kernel_limit_from_s", "propagator.py",
           "float(_population_sums(z0)[2])",
           "float(_population_sums(z0)[1])",
           ("tests/test_propagator.py::TestZToC::test_t_zero",
            "tests/test_propagator.py::TestZToC::test_modulus_preserved")),
    Mutant("kernel_limit_from_g", "propagator.py",
           "float(_population_sums(z0)[2])",
           "float(_population_sums(z0)[0])",
           ("tests/test_propagator.py::TestZToC::test_unit_phase_rotation",
            "tests/test_propagator.py::TestShellHamiltonianOracle::test_random_draws")),
    Mutant("lossless_fall_unchecked", "propagator.py",
           "if not (peak <= limit and low >= floor):",
           "if not peak <= limit:",
           ("tests/test_propagator.py::TestEvolve::test_lossless_norm_within_1e_9_or_refused",
            "tests/test_cli.py::TestDynamics::test_overflow_is_a_one_line_error[overflow23-one-step exponential]")),
    Mutant("norm_guard_max", "metrics.py",
           "np.fmax.reduce(norm, axis=None, initial=-np.inf) > 1.0",
           "norm.max() > 1.0",
           ("tests/test_metrics.py::TestGuards::test_refuse_as_the_any_form",)),
    Mutant("ground_guard_no_initial", "metrics.py",
           "np.fmin.reduce(ground, axis=None, initial=np.inf)",
           "np.fmin.reduce(ground, axis=None)",
           ("tests/test_metrics.py::TestGuards::test_refuse_as_the_any_form",)),
    Mutant("clamp_below_-1e-13", "metrics.py",
           "if lowest < 0.0:",
           "if lowest < -1e-13:",
           ("tests/test_metrics.py::TestGuards::test_clamp_reaches_every_column_that_reads_the_ground_population",)),
    Mutant("clamp_below_-1e-300", "metrics.py",
           "if lowest < 0.0:",
           "if lowest < -1e-300:",
           ("tests/test_metrics.py::TestGuards::test_clamp_reaches_every_column_that_reads_the_ground_population",)),
    Mutant("last_block_dropped", "cli.py",
           "for start in range(0, len(table), _BLOCK_ROWS):",
           "for start in range(0, len(table) - _BLOCK_ROWS + 1, _BLOCK_ROWS):",
           ("tests/test_cli.py::TestRowBlocks::test_equals_the_row_by_row_text",
            "tests/test_cli.py::TestDynamics::test_initial_row")),
    Mutant("table_as_one_block", "cli.py",
           "for start in range(0, len(table), _BLOCK_ROWS):\n        block = table[start:start + _BLOCK_ROWS] + 0.0",
           "for start in range(0, len(table), len(table)):\n        block = table[start:] + 0.0",
           ("tests/test_cli.py::TestRowBlocks::test_equals_the_row_by_row_text",
            "tests/test_cli.py::TestRowBlocks::test_rendering_peak_is_bounded_by_the_block_not_the_table")),
    Mutant("negative_zero_kept", "cli.py",
           "block = table[start:start + _BLOCK_ROWS] + 0.0",
           "block = table[start:start + _BLOCK_ROWS]",
           ("tests/test_cli.py::TestRowBlocks::test_every_edge_value_in_every_column",
            "tests/test_cli.py::TestNumberFormat::test_shortest_12_digit_rendering_without_negative_zero")),
    Mutant("oracle_d_plus_h", "propagator.py",
           "np.exp(-1j * w[:, None] * h)",
           "np.exp(1j * w[:, None] * h)",
           ("tests/test_propagator.py::TestOracleIntegrate::test_matches_evolve",
            "tests/test_propagator.py::TestOracleIntegrate::test_one_and_two_substeps_are_plain_rk4")),
    Mutant("oracle_d_on_columns", "propagator.py",
           "np.exp(-1j * w[:, None] * h)",
           "np.exp(-1j * w[None, :] * h)",
           ("tests/test_propagator.py::TestOracleIntegrate::test_matches_evolve",
            "tests/test_propagator.py::TestOracleIntegrate::test_one_and_two_substeps_are_plain_rk4")),
    Mutant("oracle_midpoint_at_h", "propagator.py",
           "m(0.5 * h)",
           "m(h)",
           ("tests/test_propagator.py::TestOracleIntegrate::test_matches_evolve",
            "tests/test_propagator.py::TestOracleIntegrate::test_one_and_two_substeps_are_plain_rk4")),
    Mutant("oracle_rotate_back_minus_w", "propagator.py",
           "column *= np.exp(1j * wn * t)",
           "column *= np.exp(-1j * wn * t)",
           ("tests/test_propagator.py::TestOracleIntegrate::test_matches_evolve",
            "tests/test_propagator.py::TestOracleIntegrate::test_spans_are_plain_rk4_span_by_span")),
    Mutant("oracle_n_minus_1_substeps", "propagator.py",
           "scaled = n // np.ldexp",
           "scaled = np.where(n > 1, n - 1, n) // np.ldexp",
           ("tests/test_propagator.py::TestOracleIntegrate::test_long_and_mixed_spans",
            "tests/test_propagator.py::TestOracleIntegrate::test_rabi_closed_form")),
    Mutant("unmasked_round_skips_last", "propagator.py",
           "else slice(None)",
           "else slice(None, -1 if len(f) > 1 else None)",
           ("tests/test_propagator.py::TestMatrixExponential::test_uniform_stack_equals_each_matrix_alone",
            "tests/test_propagator.py::TestBatchedEvolve::test_rows_match_single_points")),
    Mutant("vary_error_names_last_key", "cli.py",
           'raise ValueError(f"{given[0]} given without {prefix}")',
           'raise ValueError(f"{given[-1]} given without {prefix}")',
           ("tests/test_cli.py::TestRefusals::test_every_subset_of_the_axis_keys",)),
    Mutant("override_key_checked_first", "cli.py",
           "if value is None:",
           "if value is None and key in keys:",
           ("tests/test_cli.py::TestConfigParsing::test_overrides_equal_a_model_of_the_pieces",)),
    Mutant("help_scan_all_argv", "cli.py",
           "{*args[:1], *(tok for tok, _ in _pieces(args[1:]))}",
           "{*(tok for tok, _ in _pieces(args))}",
           ("tests/test_cli.py::TestConfigParsing::test_help_where_a_token_stands_wins",)),
    Mutant("help_scan_from_third", "cli.py",
           "_pieces(args[1:])",
           "_pieces(args[2:])",
           ("tests/test_cli.py::TestConfigParsing::test_help_prints_usage",
            "tests/test_cli.py::TestConfigParsing::test_help_where_a_token_stands_wins")),
    Mutant("pieces_single_dash", "cli.py",
           'not tok.startswith("--") else next',
           'not tok.startswith("-") else next',
           ("tests/test_cli.py::TestConfigParsing::test_help_where_a_token_stands_wins",)),
    Mutant("rendering_list_kept", "cli.py",
           "% tuple(block.ravel().tolist())",
           "% tuple(cells := block.ravel().tolist())",
           ("tests/test_cli.py::TestRowBlocks::test_rendering_peak_is_bounded_by_the_block_not_the_table",)),
    Mutant("dynamics_last_row_dropped", "cli.py",
           "time_series(params, times, mode))])",
           "time_series(params, times, mode)[:-1])])",
           ("tests/test_cli.py::TestDynamics::test_initial_row",
            "tests/test_cli.py::TestSweep::test_matches_dynamics_modulo_prefix")),
    Mutant("defaults_key_lam", "cli.py",
           '{("lambda" if name == "lam" else name):',
           "{name:",
           ("tests/test_shipped_outputs.py::test_shipped_outputs_match_their_digests",)),
    Mutant("private_name_without_reader", "metrics.py",
           "_ZERO_SNAP = 1e-12\n",
           "_ZERO_SNAP = 1e-12\n_ONLY_TESTS_READ = 1\n",
           ("tests/test_package.py::test_every_private_name_has_a_reader_in_the_package",)),
    Mutant("gc_frozen_before_dispatch", "cli.py",
           "_COMMANDS[args[0]](cfg, out)\n",
           '__import__("gc").freeze()\n        _COMMANDS[args[0]](cfg, out)\n',
           ("tests/test_cli.py::TestGcState::test_main_restores_the_gc_state",)),
    Mutant("gc_collected_before_dispatch", "cli.py",
           "_COMMANDS[args[0]](cfg, out)\n",
           '__import__("gc").collect()\n        _COMMANDS[args[0]](cfg, out)\n',
           ("tests/test_cli.py::TestGcState::test_main_restores_the_gc_state",)),
    Mutant("gc_disabled_before_dispatch", "cli.py",
           "_COMMANDS[args[0]](cfg, out)\n",
           '__import__("gc").disable()\n        _COMMANDS[args[0]](cfg, out)\n',
           ("tests/test_cli.py::TestGcState::test_main_restores_the_gc_state",)),
    Mutant("contour_labels_swapped_unequal", "cli.py",
           'template = f"{vary_x.parameter_name},%.12g,{vary_y.parameter_name},%.12g,%.12g"',
           'a, b = (vary_x, vary_y) if len(vary_x.values) == len(vary_y.values) else (vary_y, vary_x)\n'
           '    template = f"{a.parameter_name},%.12g,{b.parameter_name},%.12g,%.12g"',
           ("tests/test_end_to_end.py::test_contour_matches_a_python_max_of_the_reference_ergotropy",)),
    Mutant("peak_tie_window_absolute", "sweeps.py",
           "e >= peak - _PEAK_TIE_TOL * peak",
           "e >= peak - _PEAK_TIE_TOL",
           ("tests/test_sweeps.py::TestOptimalChargingTime::test_weak_charging_peaks_at_the_grid_maximum",
            "tests/test_end_to_end.py::test_opt_time_matches_an_earliest_peak_loop")),
    Mutant("energy_modes_swapped", "metrics.py",
           "_snap(1.0 - g if paper else 2.0 * s)",
           "_snap(2.0 * s if paper else 1.0 - g)",
           ("tests/test_metrics.py::TestStoredEnergy::test_accounting_divergence",
            "tests/test_claims.py::test_paper_energy_rises_with_cavity_loss")),
    Mutant("e_max_is_the_peak", "sweeps.py",
           "e[np.arange(idx.size), idx]",
           "peak[:, 0]",
           ("tests/test_sweeps.py::TestOptimalChargingTime::test_tie_window_is_1e_9_of_the_peak",
            "tests/test_end_to_end.py::test_opt_time_matches_an_earliest_peak_loop")),
    Mutant("write_cut_dropped", "cli.py",
           "fh.truncate()",
           "pass",
           ("tests/test_cli.py::TestOverwrite::test_bytes_of_a_run_into_a_fresh_path[contour-longer]",
            "tests/test_cli.py::TestOverwrite::test_failure_mid_write_leaves_only_the_rows_written_before_it")),
    Mutant("write_cut_unconditional", "cli.py",
           "if fh.seekable() and os.fstat(fh.fileno()).st_size > fh.tell():",
           "if True:",
           ("tests/test_cli.py::TestOverwrite::test_devnull_is_written_and_never_cut",
            "tests/test_cli.py::TestOverwrite::test_pipe_is_written_and_never_cut")),
    Mutant("write_cut_skipped_on_error", "cli.py",
           "fh.writelines(blocks)\n        finally:",
           "fh.writelines(blocks)\n        except BaseException:\n            raise\n        else:",
           ("tests/test_cli.py::TestOverwrite::test_failure_mid_write_leaves_only_the_rows_written_before_it",)),
    Mutant("write_cut_unguarded", "cli.py",
           "if fh.seekable() and os.fstat",
           "if os.fstat",
           ("tests/test_cli.py::TestOverwrite::test_pipe_is_written_and_never_cut",)),
    Mutant("write_appends", "cli.py",
           "os.O_WRONLY | os.O_CREAT,",
           "os.O_WRONLY | os.O_CREAT | os.O_APPEND,",
           ("tests/test_cli.py::TestOverwrite::test_bytes_of_a_run_into_a_fresh_path[dynamics-shorter]",
            "tests/test_cli.py::TestOverwrite::test_bytes_of_a_run_into_a_fresh_path[contour-shorter]")),
    Mutant("write_unlinks_a_regular_file", "cli.py",
           "open(os.open(path,",
           "open((os.path.isfile(path) and os.unlink(path)) or os.open(path,",
           ("tests/test_cli.py::TestOverwrite::test_symlink_is_written_through_and_stays_a_link",
            "tests/test_cli.py::TestOverwrite::test_existing_mode_and_inode_kept_new_file_mode_from_the_umask")),
    Mutant("write_new_file_mode_0o600", "cli.py",
           "os.O_CREAT, 0o666)",
           "os.O_CREAT, 0o600)",
           ("tests/test_cli.py::TestOverwrite::test_existing_mode_and_inode_kept_new_file_mode_from_the_umask",)),
)


def _verdict(tree: Path, *args: str) -> str:
    code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--hypothesis-profile", "seeded_no_shrink", *args], cwd=tree,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")  # 1: tests ran and one failed


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error': the killers first, then the full Tier-1 if they all pass."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".hypothesis"))
        path = tree / SOURCE.relative_to(ROOT) / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        path.write_text(text.replace(mutant.old, mutant.new))
        if mutant.killers and (verdict := _verdict(tree, *mutant.killers)) != "survived":
            return verdict
        # the catalogue's own check reads the unmutated source, so it sits out
        return _verdict(tree, "--continue-on-collection-errors", "--ignore=tests/test_mutants.py", "tests")


def main(argv: list[str]) -> int:
    if unknown := set(argv) - {m.name for m in MUTANTS}:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    failed, start = 0, time.perf_counter()
    print(f"{'mutant':<32} {'verdict':<9} {'s':>6}  expected")
    for mutant in chosen:
        began = time.perf_counter()
        verdict = run(mutant)
        expected = "equivalent" if mutant.equivalent else "killed"
        bad = verdict == "error" or (verdict == "survived" and not mutant.equivalent)
        failed += bad
        seconds, mark = time.perf_counter() - began, "  <- FAIL" if bad else ""
        print(f"{mutant.name:<32} {verdict:<9} {seconds:6.1f}  {expected}{mark}", flush=True)
    print(f"{len(chosen)} mutants, {failed} failing, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
