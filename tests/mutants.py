"""Catalogue of source mutants and the tests that kill them.

Each mutant is one textual edit of `src/magbattery/`: its old text, which
occurs exactly once in `src/` (`test_mutants.py` checks that on every
Tier-1 run), and the new text put in its place.  A mutant names the tests
that kill it, or is marked equivalent with the reason no test can.

    python3 tests/mutants.py [NAME ...]

copies the tree into a temporary directory per mutant, applies it and runs
its killers; only if they all pass does it run the full Tier-1 suite, less
`test_mutants.py`.  An equivalent mutant runs the full suite alone.  It
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
    Mutant("repaired_is_paper", "cli.py",
           '"repaired": AccountingMode.TRACE_REPAIRED,', '"repaired": AccountingMode.PAPER,',
           ("tests/test_cli.py::TestDynamics::test_trace_repaired_alias_in_config",
            "tests/test_cli.py::TestDynamics::test_mode_changes_numbers_under_decay")),
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
           "np.reshape(z, (len(vary_y.values), len(vary_x.values)))",
           "np.reshape(z, (len(vary_x.values), len(vary_y.values))).T",
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
           equivalent="a grid within 4 but not 2 ulps of one run falls to the point-by-point loop, "
                      "which returns the same single run: only the path changes"),
    Mutant("taylor_15_dropped", "propagator.py", "f = c[15] * m3", "f = 0.0 * m3",
           equivalent="the X^15 / 15! term is below 2e-17 relative at norm <= 0.5, "
                      "under the last bit that 12 digits or any test tolerance reads"),
)


def _verdict(tree: Path, *args: str) -> str:
    code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args], cwd=tree,
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
    print(f"{'mutant':<26} {'verdict':<9} {'s':>6}  expected")
    for mutant in chosen:
        began = time.perf_counter()
        verdict = run(mutant)
        expected = "equivalent" if mutant.equivalent else "killed"
        bad = verdict == "error" or (verdict == "survived" and not mutant.equivalent)
        failed += bad
        seconds, mark = time.perf_counter() - began, "  <- FAIL" if bad else ""
        print(f"{mutant.name:<26} {verdict:<9} {seconds:6.1f}  {expected}{mark}", flush=True)
    print(f"{len(chosen)} mutants, {failed} failing, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
