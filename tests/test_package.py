"""Package surface and runtime dependencies.

The density-matrix and eigensolver routes are test oracles (`oracles.py`
beside these tests); the package exports and defines none of them, and a CLI
run imports numpy but no test-only library, no argparse and no OpenSSL,
and beyond numpy's own modules only an allowlist; no module names `linalg`.
Every export has a caller outside the tests, and each is declared in exactly
one layer module's `__all__`; every private module-level name has a reader in
the package.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import magbattery

PACKAGE_DIR = Path(magbattery.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
CONFIG_DIR = TESTS_DIR.parent / "configs"
BENCH_DIR = TESTS_DIR.parent / "bench"
README = TESTS_DIR.parent / "README.md"

EXPORTS = {
    "DEFAULT_INITIAL", "SystemParams",
    "AmplitudeState", "Trajectory", "evolve", "oracle_integrate",
    "AccountingMode", "InconsistentStateError", "METRIC_NAMES", "MetricsSample",
    "metric_columns", "sample_metrics", "stored_energy_series", "ergotropy_series",
    "VarySpec", "apply_parameters", "time_grid", "time_series",
    "panel_sweep", "max_ergotropy_grid", "optimal_time_sweep", "__version__",
}
LAYERS = ("model", "propagator", "states", "metrics", "sweeps")
ORACLE_NAMES = ("DensityMatrix", "battery_density", "charger_density",
                "BatteryHamiltonian", "passive_state", "ergotropy", "purity")


def test_exports_are_pinned_and_resolve():
    assert len(magbattery.__all__) == len(EXPORTS) == 22
    assert set(magbattery.__all__) == EXPORTS
    for name in magbattery.__all__:
        getattr(magbattery, name)


def test_surface_is_the_union_of_disjoint_module_lists():
    # each name is declared in one layer module's __all__, which the package star-imports;
    # a name in two lists would silently bind whichever module is imported last
    modules = [importlib.import_module(f"magbattery.{name}") for name in LAYERS]
    declared = Counter(name for module in modules for name in module.__all__)
    assert [name for name, count in declared.items() if count > 1] == []
    assert sorted(magbattery.__all__) == sorted([*declared, "__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(magbattery, name) is getattr(module, name), name


def test_every_export_has_a_caller_outside_the_tests():
    # callers: the package's modules, the bench scripts and the README's
    # library example; a name in a string literal (a probe list) is no caller
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.name != "__init__.py"]
    sources += [path.read_text(encoding="utf-8") for path in sorted(BENCH_DIR.glob("*.py"))]
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    sources.append(re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1))
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert set(magbattery.__all__) - {"__version__"} - read == set()


def test_every_private_name_has_a_reader_in_the_package():
    # a module-level `_name` (function, class or constant) that only the tests
    # read belongs in tests/; an import alone is no reader
    defined, read = set(), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(name.id for target in targets for name in ast.walk(target)
                               if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert len(private) >= 40  # the walk finds the package's helpers
    assert private - read == set()

def test_no_module_defines_an_oracle():
    modules = [importlib.import_module(f"magbattery.{info.name}")
               for info in pkgutil.iter_modules([str(PACKAGE_DIR)])]
    assert {m.__name__ for m in modules} >= {"magbattery.metrics", "magbattery.states"}
    for module in [magbattery, *modules]:
        assert not set(ORACLE_NAMES) & set(vars(module)), module.__name__


def test_no_eigensolver_in_the_package():
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        assert "eigvalsh" not in path.read_text(encoding="utf-8"), path.name


def test_no_lapack_on_the_run_path():
    # the first np.linalg call of a process raises its peak RSS by about
    # 0.7 MB; the kernel's Taylor core needs no solve.  The tests and their
    # oracles keep np.linalg and scipy
    def names(node):
        for key in ("attr", "id", "name", "module"):
            if isinstance(value := getattr(node, key, None), str):
                yield from value.split(".")

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any("linalg" in names(node) for node in ast.walk(tree)), path.name


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this interpreter has no OpenSSL-free SHA-256 module")
def test_cli_run_imports_no_test_only_library(tmp_path):
    # the tests directory is on the path, as under pytest, so an import of the
    # oracles from the package would succeed here rather than go unseen;
    # contour hashes its config, through CPython's own SHA-256, not OpenSSL's
    path = os.pathsep.join((str(PACKAGE_DIR.parent), str(TESTS_DIR)))
    script = (
        "import json, sys\n"
        "from magbattery.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in ('scipy', 'mpmath', 'hypothesis',"
        " 'oracles', 'argparse', 'gettext', '_hashlib', 'ssl', 'numpy') if m in sys.modules)]))\n"
    )
    dynamics, contour = tmp_path / "dynamics.csv", tmp_path / "contour.csv"
    runs = [
        ["dynamics", "--config", str(CONFIG_DIR / "dynamics_resonant.cfg"), "--out", str(dynamics)],
        ["contour", "--t_max", "1", "--dt", "0.5", "--vary", "g_a", "--vary_values", "1,2",
         "--vary2", "g_b", "--vary2_values", "1", "--out", str(contour)],
    ]
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == [[0, 0], ["numpy"]]
    assert dynamics.read_text(encoding="utf-8").startswith("t,coherence,energy,ergotropy,purity,norm\n")
    meta = json.loads((tmp_path / "contour.csv.meta.json").read_text(encoding="utf-8"))
    assert len(meta["config_sha256"]) == 64


def test_cli_import_adds_only_allowed_modules():
    # a cold run pays for every module it imports: beyond what numpy loads
    # itself, the CLI may load only the package, json (for the contour's
    # sidecar), dataclasses, copy, __future__ and CPython's own SHA-256
    script = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import magbattery.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
                            capture_output=True, text=True, check=True)
    added = set(result.stdout.split())
    allowed = {"json", "_json", "dataclasses", "copy", "__future__", "_sha2", "_sha256"}
    assert "magbattery.cli" in added
    assert {name for name in added if name.split(".")[0] not in allowed | {"magbattery"}} == set()


def test_module_entry_reads_sys_argv():
    # `python -m magbattery` calls main() with no argv, so it reads sys.argv
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    run = [sys.executable, "-m", "magbattery"]
    usage = subprocess.run([*run, "--help"], env=env, capture_output=True, text=True)
    assert (usage.returncode, usage.stderr) == (0, "")
    assert usage.stdout.startswith("usage: magbattery ")
    rows = subprocess.run([*run, "dynamics", "--t_max", "1", "--dt", "0.5"],
                          env=env, capture_output=True, text=True)
    assert (rows.returncode, rows.stderr) == (0, "")
    assert rows.stdout.splitlines()[:2] == ["t,coherence,energy,ergotropy,purity,norm", "0,0,0,0,1,1"]
