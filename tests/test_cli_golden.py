"""Byte-identity of CLI payloads against committed golden outputs.

Each golden file holds the exit code on its first line, then everything the
command printed to stdout before its trailing elapsed_ms line.  A --json run
prints no such line; its object is stored without its last key, "timing",
re-serialised by the CLI's own json.dumps call.  Running

    PYTHONPATH=src python tests/test_cli_golden.py

writes the golden files that do not exist yet and leaves every other one as it
is, so a deliberate change of output deletes the files it changes first.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from secmin import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden"
GRAMS = ["identity2", "hexagonal", "diag14"]
FIELD = "--degK 2 --r1 0 --r2 1 --log-disc 1.0986122886681098"

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
    # rank 3 to 6 reach the compound-lattice search, the p = n - 1 case included, and the
    # witness independence test decides something
    **{
        f"lattice-{action}-{gram}": ["lattice", action, "--gram", str(DATA / f"{gram}.gram")]
        for action in ["minima", "heights", "transference"]
        for gram in ["rank3", "rank4", "rank5", "rank6"]
    },
    "lattice-heights-rank4-json": ["--json", "lattice", "heights", "--gram", str(DATA / "rank4.gram")],
    **{
        f"lattice-avoid-{gram}": [
            "lattice", "avoid", "--gram", str(DATA / f"{gram}.gram"), "--form", str(DATA / "product_form.txt")
        ]
        for gram in GRAMS
    },
    "bands-single-n2310": ["bands", "single", "--n", "2310"],
    "bands-single-n10000000": ["bands", "single", "--n", "10000000"],
    "bands-verify-max200": ["bands", "verify", "--max", "200"],
    "bands-verify-max3000": ["bands", "verify", "--max", "3000"],
    "bands-asymptotic-max10000": ["bands", "asymptotic", "--max", "10000"],
    # e < 0 and e > 1 take the other branches of the stretch skip bound
    "bands-asymptotic-max100000-exponents": [
        "bands", "asymptotic", "--max", "100000", "--exponent", "-0.5", "--exponent", "1.0", "--exponent", "2.5"
    ],
    **{
        f"bounds-{name}": ["bounds", *argv.split()]
        for name, argv in {
            "constant": "constant --N 1 --field Q",
            "height": "height --g 2 --m 2 --L2 1.0 --Lw 0.5 --w2 0.25",
            "lambda": "lambda --g 2 --m 12 --k 3 --L2 7.0 --Lw 1.5 --w2 0.8",
            "mu": "mu --g 2 --m 12 --k 3 --L2 7.0 --Lw 1.5 --w2 0.8",
            "top-odd": "top --g 2 --m 9 --L2 7.0 --Lw 1.5 --w2 0.8",
            "top-even": "top --g 2 --m 10 --L2 7.0 --Lw 1.5 --w2 0.8",
            "omega-lambda": "omega-lambda --g 3 --n 2 --k 1 --w2 1.5",
            "omega-mu": "omega-mu --g 3 --n 2 --k 1 --w2 1.5",
            "lambda-eval": "lambda --g 2 --m 12 --k 3 --L2 7.0 --Lw 1.5 --w2 0.8 --e-val 0.3",
            "constant-rank-shift": "constant --N 2 --rank-shift",
            "mu-field": f"mu --g 2 --m 12 --k 3 --L2 7.0 --Lw 1.5 --w2 0.8 {FIELD}",
        }.items()
    },
    # --json payloads: tuples as arrays, a Fraction as an "n/d" string
    **{
        f"lattice-{action}-hexagonal-json": [
            "--json", "lattice", action, "--gram", str(DATA / "hexagonal.gram"),
            *(["--form", str(DATA / "product_form.txt")] if action == "avoid" else []),
        ]
        for action in ["dual", "heights", "transference", "avoid"]
    },
    **{
        f"bounds-{name}-json": ["--json", "bounds", *argv.split(), *FIELD.split()]
        for name, argv in {
            "mu": "mu --g 2 --m 12 --k 3 --L2 7.0 --Lw 1.5 --w2 0.8",
            "top": "top --g 2 --m 9 --L2 7.0 --Lw 1.5 --w2 0.8",
        }.items()
    },
    **{
        f"secant-g2-m8-d3-{mode}": ["secant", "--g", "2", "--m", "8", "--d", "3", "--mode", mode]
        for mode in ["oracle", "closed"]
    },
}


def stable_output(argv: list[str]) -> str:
    """Exit code, then stdout up to the elapsed_ms line, which must come last, or the JSON
    object without its "timing", which must be its last key."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = out.getvalue().splitlines(keepends=True)
    if "--json" in argv:
        payload = json.loads(out.getvalue())
        assert list(payload)[-1] == "timing", "timing must be the last key"
        del payload["timing"]
        lines = [json.dumps(payload, default=str) + "\n"]
    else:
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
        path = GOLDEN / f"{name}.txt"
        if not path.exists():
            path.write_text(stable_output(argv))
            print(f"wrote {path}")
