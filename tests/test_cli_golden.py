"""Byte-identity of CLI payloads against committed golden outputs.

Each golden file holds the exit code on its first line, then everything the
command printed to stdout before its trailing elapsed_ms line (a --json run
prints no such line, so all of it).  Rewrite the files only for a deliberate
change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from secmin import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden"
GRAMS = ["identity2", "hexagonal", "diag14"]

COMMANDS = {
    "verify-all-quick": ["verify-all", "--quick"],
    "verify-all-quick-json": ["--json", "verify-all", "--quick"],
    **{
        f"secant-g{g}-m{m}-d{d}": ["secant", "--g", str(g), "--m", str(m), "--d", str(d)]
        for g, m, d in [(1, 5, 2), (0, 11, 4), (2, 8, 3), (3, 16, 4), (6, 40, 6)]
    },
    **{
        f"lattice-{action}-{gram}": ["lattice", action, "--gram", str(DATA / f"{gram}.gram")]
        for action in ["minima", "dual", "heights", "transference"]
        for gram in GRAMS
    },
    **{
        f"lattice-avoid-{gram}": [
            "lattice", "avoid", "--gram", str(DATA / f"{gram}.gram"), "--form", str(DATA / "product_form.txt")
        ]
        for gram in GRAMS
    },
}


def stable_output(argv: list[str]) -> str:
    """Exit code, then stdout up to the elapsed_ms line, which must come last if present."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = out.getvalue().splitlines(keepends=True)
    if "--json" not in argv:
        assert lines[-1].startswith("elapsed_ms="), "elapsed_ms must be the last line"
        lines = lines[:-1]
    return f"exit={code}\n" + "".join(lines)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert stable_output(COMMANDS[name]) == expected


def test_every_golden_file_is_checked():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(COMMANDS)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(stable_output(argv))
