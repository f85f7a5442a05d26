"""Command-line frontend.

Line-oriented key=value output with a fixed key order, or JSON with --json.
Exit codes: 0 for pass/report, 1 for a falsified check, 2 for usage or
precondition errors and unreadable input files.  An error prints error= on
stderr and status=fail on stdout (with --json, one object naming the error's
type and message).  Payload lines are byte-stable across runs; the trailing
elapsed_ms line is excluded from the stable section.  A command returns its
records and status, and may add timing fields that end the elapsed_ms line
(verify-all: <check>_ms); --json gives the line as "timing", last.

parse_args reads argv against one table, COMMANDS, with argparse's grammar
less two forms: flags are spelled in full (no prefix abbreviations), and there
is no "--" separator.  Only --json comes before the command.  A flag takes its
value from the next token or after "="; a value starts with "-" only as a
negative number.  A repeated flag keeps its last value; --exponent collects
them.  -h prints help built from the table; a usage error prints one
"secmin: error:" line to stderr and exits 2.

Importing this module loads none of the computation modules, nor argparse.
Each command names the ones it runs (bands: arith and bands; secant; bounds;
lattice; verify-all: suite, which loads them all), and main imports them when
the command runs, so a process pays only for what it calls.  elapsed_ms covers
that import and the command; import_ms, the second field of the elapsed line,
is the import alone.
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace

from .errors import ParameterError, ResourceLimitError, VerificationError


def _is_fraction(v) -> bool:
    # a Fraction exists only once its module is loaded, and the commands that
    # print none never load it
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(v, fractions.Fraction)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if _is_fraction(v):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _emit(record: dict) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in record.items())


def _flags(names) -> str:
    return " ".join("--" + name.replace("_", "-") for name in names)


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _check_reads(args, which: str, reads, needs=()) -> None:
    """Name the optional flags given that `which` does not read (in table order), then those it needs."""
    spec = COMMANDS[args.command][3]
    unread = [n for n, s in spec.items() if not s[2] and _dest(n) not in reads and getattr(args, _dest(n)) is not None]
    if unread:
        raise ParameterError(f"{args.command} {which} does not read {' '.join(unread)}")
    missing = [name for name in needs if getattr(args, name) is None]
    if missing:
        raise ParameterError(f"{args.command} {which} needs {_flags(missing)}")


def cmd_bands(args) -> tuple[list[dict], str]:
    from . import bands
    reads = {"single": ("n",), "verify": ("max",), "asymptotic": ("max", "exponent")}[args.mode]
    _check_reads(args, args.mode, reads, needs=reads if args.mode == "single" else ())
    if args.mode == "single":
        b = bands.min_band(args.n)
        return [{"n": args.n, "band": b, "gap": b, "witness": args.n - b}], "pass"
    if args.mode == "verify":
        hi = args.max if args.max is not None else 3000
        records = bands.verify_band_gap_identity(hi)
        worst = max(records, key=lambda r: r.gap)
        return [
            {"max": hi, "checked": len(records), "largest_gap": worst.gap, "at": worst.n}
        ], "pass"
    hi = args.max if args.max is not None else 10**6
    return [r.record() for r in bands.asymptotic_reports(hi, args.exponent or bands.GROWTH_EXPONENTS)], "report"


def cmd_secant(args) -> tuple[list[dict], str]:
    from . import secant
    p = secant.SecantParams(args.g, args.m, args.d)
    p.require_valid()
    record: dict = {"g": args.g, "m": args.m, "d": args.d}
    if args.mode != "oracle":
        record["closed"] = secant.degree_formula(args.g, args.m, args.d)
    if args.mode != "closed":
        record["oracle"] = secant.degree_oracle(p)
    if args.mode == "both":
        record["agree"] = record["closed"] == record["oracle"]
    return [record], "fail" if record.get("agree") is False else "pass"


def cmd_bounds(args) -> tuple[list[dict], str]:
    from . import bounds
    kind = args.which
    if kind == "top":  # the two top kinds read the same inputs; m's parity picks one
        kind = "top-odd" if args.m is not None and args.m % 2 else "top-even"
    reads = bounds.INPUTS[kind]
    needs = [name for name in reads if name not in bounds.DEFAULTS]
    _check_reads(args, args.which, ("field", *reads, *bounds.FIELD_INPUTS), needs)
    given = {name: v for name in reads if (v := getattr(args, name)) is not None}
    # the field's four inputs go to bounds as they are echoed; evaluate validates them
    field = {name: getattr(args, name) for name in bounds.FIELD_INPUTS if getattr(args, name) is not None}
    if args.field == "Q" and field:
        raise ParameterError(f"--field Q excludes {_flags(field)}")
    if not field:
        field = dict(zip(bounds.FIELD_INPUTS, bounds.RATIONAL_FIELD))
    elif len(field) < len(bounds.FIELD_INPUTS):
        raise ParameterError(f"specify --field Q or all of {_flags(bounds.FIELD_INPUTS)}")
    report = bounds.make_report(kind, **given, **field)
    record = {"kind": report.kind, **dict(report.inputs), "value": report.value}
    if args.which == "top":
        record["index"] = bounds.top_lambda_floor(bounds.surface_from(dict(report.inputs)))[0]
    return [record], "report"


def cmd_lattice(args) -> tuple[list[dict], str]:
    from pathlib import Path

    from . import lattice
    avoid = ("form",) if args.action == "avoid" else ()
    _check_reads(args, args.action, avoid, needs=avoid)
    for flag in ("gram", *avoid):  # Path("") would read the current directory
        if not getattr(args, flag):
            raise ParameterError(f"--{flag} needs a file name")
    lat = lattice.read_gram(Path(args.gram).read_text())
    if args.action == "minima":
        prof = lattice.successive_minima(lat)
        return [{"rank": lat.rank, "sq_minima": prof.sq_minima, "log_minima": prof.log_minima,
                 "witnesses": ";".join(_fmt(w) for w in prof.witnesses)}], "report"
    if args.action == "dual":
        return [{"row": i, "entries": row} for i, row in enumerate(lattice.dual_lattice(lat).entries)], "report"
    if args.action == "heights":
        table = lattice.sublattice_heights(lat)
        pairs = zip(table.covol2, table.log_heights)
        return [{"p": p, "covol2": c, "log_height": h} for p, (c, h) in enumerate(pairs, start=1)], "report"
    if args.action == "transference":
        report = lattice.verify_transference(lat)
        out = [{**r._asdict(), "ok": r.ok, "printed_ok": r.printed_ok} for r in report.rows]
        out.append({"constant": report.constant})
        return out, "pass"
    # avoid
    form = lattice.read_form(Path(args.form).read_text())
    prof = lattice.successive_minima(lat)
    res = lattice.avoid_hypersurface(form, prof)
    return [{"grid": res.grid_vector, "vector": res.lattice_vector, "value": res.value, "log_norm": res.log_norm,
             "log_bound": res.log_bound, "within": res.within_bound}], "pass" if res.within_bound else "fail"


def cmd_verify_all(args) -> tuple[list[dict], str, dict]:
    from . import suite
    run = suite.run_all(quick=args.quick)
    records = [{"check": r.name, "status": "pass" if r.ok else "fail", "detail": r.detail} for r in run]
    timing = {f"{r.name}_ms": r.elapsed_ms for r in run}
    return records, "pass" if all(r.ok for r in run) else "fail", timing


# One entry per command: handler, the modules it runs, help, and its arguments
# by full spelling.  An argument's dest is its spelling without leading dashes,
# "-" read as "_"; the one without dashes is the positional.  Each gives its
# kind (int, float or str to convert the value, a tuple of choices, bool for a
# switch, list for a repeatable float), default, whether required, and help.
COMMANDS = {
    "bands": (cmd_bands, ("arith", "bands"), "band function, prime-power gap, growth reports", {
        "mode": (("single", "verify", "asymptotic"), None, True, ""), "--n": (int, None, False, "row for mode single"),
        "--max": (int, None, False, "range bound for verify/asymptotic"),
        "--exponent": (list, None, False, "scaling exponent (repeatable)")}),
    "secant": (cmd_secant, ("secant",), "secant-variety degree, closed form and series oracle", {
        "--g": (int, None, True, "genus"), "--m": (int, None, True, "degree of the line bundle"),
        "--d": (int, None, True, "secant index"), "--mode": (("closed", "oracle", "both"), "both", False, "formulas")}),
    "bounds": (cmd_bounds, ("bounds",), "explicit bound evaluators", {
        "which": (("constant", "height", "lambda", "mu", "top", "omega-lambda", "omega-mu"), None, True, ""),
        "--N": (int, None, False, "dimension parameter for the transference constant"),
        "--rank-shift": (bool, None, False, "constant: use the ball of dimension N + 1"),
        "--g": (int, None, False, "genus"), "--m": (int, None, False, "fiber degree"),
        "--L2": (float, None, False, "L^2"), "--Lw": (float, None, False, "L.omega, default 0.0"),
        "--w2": (float, None, False, "omega^2, default 0.0"), "--k": (int, None, False, "index"),
        "--e-val": (float, None, False, "height, default the height floor"),
        "--n": (int, None, False, "power of the dualizing sheaf"),
        "--field": (("Q",), None, False, "the rationals, the default; excludes the four flags below"),
        "--degK": (int, None, False, "field degree over the rationals"),
        "--r1": (int, None, False, "number of real places"), "--r2": (int, None, False, "number of complex places"),
        "--log-disc": (float, None, False, "log |discriminant|")}),
    "lattice": (cmd_lattice, ("lattice",), "Gram-lattice computations", {
        "action": (("minima", "dual", "heights", "transference", "avoid"), None, True, ""),
        "--gram": (str, None, True, "Gram matrix file"), "--form": (str, None, False, "form file for action avoid")}),
    "verify-all": (cmd_verify_all, ("suite",), "run the pinned verification suite", {
        "--quick": (bool, False, False, "reduced desk-scale ranges")}),
}


# what comes before the command: its one positional is the command itself
TOP = {"command": (tuple(COMMANDS), None, True, ""), "--json": (bool, False, False, "emit a single JSON object")}


def _usage_error(message: str):
    print(f"secmin: error: {message}", file=sys.stderr)
    sys.exit(2)


def _help(command: str | None) -> None:
    # built from the table, and only when -h or --help asks for it
    sections = [("usage: secmin [-h] [--json] COMMAND ...", TOP)] if command is None else []
    sections += [(f"\nsecmin {c}: {e[2]}", e[3]) for c, e in COMMANDS.items() if command in (None, c)]
    for title, spec in sections:
        print(title)
        for name, (kind, default, required, text) in spec.items():
            arg = "" if kind is bool else " " + ("{%s}" % ",".join(kind) if isinstance(kind, tuple) else _dest(name).upper())
            note = " (required)" if required and name[0] == "-" else f" (default {default})" if default else ""
            print(f"  {name + arg:<30} {text}{note}".rstrip())
    sys.exit(0)


def _is_flag(token: str, spec) -> bool:
    # as argparse reads a token: a leading "-" marks a flag unless the token is "-" or,
    # when it is not a flag of spec (with "=value"), holds a space or is a negative number
    whole, dot, frac = token[1:].partition(".")
    number = (whole.isdecimal() or dot and not whole) and (not dot or frac.isdecimal())
    return token[:1] == "-" and token != "-" and (token.partition("=")[0] in spec or " " not in token and not number)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against TOP, then against the command's arguments; a usage error exits 2."""
    tokens, spec, values = iter(argv), TOP, {"command": None, "json": False}
    for token in tokens:
        if token in ("-h", "--help"):
            _help(values["command"])
        name, eq, value = token.partition("=")
        pos = next((n for n in spec if n[0] != "-" and values[n] is None), None)
        if not _is_flag(token, spec) and pos:  # the positional, read as if given as pos=token
            name, eq, value = pos, "=", token
        elif not _is_flag(token, spec) or name not in spec:
            _usage_error(f"unrecognized arguments: {token}")
        kind, dest = spec[name][0], _dest(name)
        if kind is bool:
            if eq:
                _usage_error(f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif not eq and ((value := next(tokens, None)) is None or _is_flag(value, spec)):
            _usage_error(f"argument {name}: expected one argument")
        if isinstance(kind, tuple) and value not in kind:
            _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(kind)})")
        try:
            value = value if isinstance(kind, tuple) else (float if kind is list else kind)(value)
        except ValueError:
            _usage_error(f"argument {name}: invalid value: {value!r}")
        values[dest] = [*(values[dest] or ()), value] if kind is list else value
        if name == "command":  # the command's arguments replace TOP
            fn, modules, _, spec = COMMANDS[value]
            values.update(fn=fn, modules=modules, **{_dest(n): s[1] for n, s in spec.items()})
    missing = [name for name, s in spec.items() if s[2] and values[_dest(name)] is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    t0 = time.perf_counter()
    for name in args.modules:  # the command's own imports then find them loaded
        __import__(f"{__package__}.{name}")
    import_ms = int(1000 * (time.perf_counter() - t0))
    try:
        records, status, *extra = args.fn(args)
    except (ParameterError, ResourceLimitError, OSError, UnicodeDecodeError, VerificationError) as exc:
        print(f"error={exc}", file=sys.stderr)
        if args.json:
            import json
            print(json.dumps({"command": args.command, "status": "fail", "error": {"type": type(exc).__name__, "message": str(exc)}}))
        else:
            print("status=fail")
        return 1 if isinstance(exc, VerificationError) else 2
    timing = {"elapsed_ms": int(1000 * (time.perf_counter() - t0)), "import_ms": import_ms, **(extra[0] if extra else {})}
    if args.json:
        import json  # only --json output needs it: text runs skip the import
        # default=str writes a Fraction as "n/d"; tuples already come out as arrays
        print(json.dumps({"command": args.command, "status": status, "records": records, "timing": timing}, default=str))
    else:
        for record in records:
            print(_emit(record))
        print(f"status={status}")
        print(_emit(timing))
    return 1 if status == "fail" else 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
