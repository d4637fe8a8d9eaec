"""The mutant catalogue (`mutants.py`) still applies to the source.

Each mutant's old text occurs exactly once in `src/`, in the file it names,
and each killer it names is a test defined in its file; a refactor that moves
the code or renames a killer updates the catalogue in the same change.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT, SOURCE


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once_in_src(mutant):
    counts = {path.name: path.read_text().count(mutant.old) for path in SOURCE.glob("*.py")}
    assert counts[mutant.file] == 1 and sum(counts.values()) == 1, counts
    assert mutant.new != mutant.old
    assert bool(mutant.killers) != bool(mutant.equivalent)  # killed by tests, or equivalent with a reason


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_killers_are_defined(mutant):
    for killer in mutant.killers:
        path, *names = killer.split("[")[0].split("::")
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names:
            node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
            assert node is not None, f"{killer}: no {name} in {path}"
            scope = node.body
