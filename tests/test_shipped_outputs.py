"""The shipped outputs, pinned byte for byte.

Each shipped config runs through `cli.main` in both accounting modes, in
this process: 10 CSVs and the contour's 2 `.meta.json` sidecars.  Their
sha256 digests must equal those in `shipped_outputs.sha256`, a `sha256sum`
listing.  A change that means to move outputs regenerates the listing with

    PYTHONPATH=src python3 tests/test_shipped_outputs.py > tests/shipped_outputs.sha256

and names the moved rows and their largest difference in CHANGES.md.  The
digests are tied to the numpy build they were taken on.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from magbattery import cli
from magbattery.cli import main

TESTS_DIR = Path(__file__).resolve().parent
CONFIG_DIR = TESTS_DIR.parent / "configs"
DIGESTS = TESTS_DIR / "shipped_outputs.sha256"

COMMANDS = {
    "contour_coupling_plane": "contour",
    "dynamics_detuned": "dynamics",
    "dynamics_resonant": "dynamics",
    "opt_time_gb_saturation": "opt-time",
    "sweep_gamma": "sweep",
}
MODES = ("paper", "repaired")


def shipped_digests(directory: Path) -> dict[str, str]:
    """{file name: sha256} of every shipped output, written into `directory`."""
    for name, command in COMMANDS.items():
        for mode in MODES:
            out = directory / f"{name}.{mode}.csv"
            argv = [command, "--config", str(CONFIG_DIR / f"{name}.cfg"), "--mode", mode, "--out", str(out)]
            assert main(argv) == 0, argv
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(directory.iterdir())}


def check_digests(directory: Path) -> None:
    want = dict(reversed(line.split()) for line in DIGESTS.read_text(encoding="ascii").splitlines())
    got = shipped_digests(directory)
    assert len(got) == 12
    assert got == want


def test_shipped_outputs_match_their_digests(tmp_path):
    check_digests(tmp_path)


def test_shipped_outputs_match_their_digests_across_row_blocks(tmp_path, monkeypatch):
    # 7 rows a block: every shipped table (8, 900 or 2001 rows) crosses a block
    # boundary and ends in a partial block
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    check_digests(tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        sys.stdout.writelines(f"{digest}  {name}\n" for name, digest in shipped_digests(Path(directory)).items())
