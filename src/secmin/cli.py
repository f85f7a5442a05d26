"""Command-line frontend.

Line-oriented key=value output with a fixed key order, or JSON with --json.
Exit codes: 0 for pass/report, 1 for a falsified check, 2 for usage or
precondition errors and unreadable input files.  Payload lines are byte-stable
across runs; the trailing elapsed_ms line is excluded from the stable section.
A command returns its records and status, and may add a dict of timing fields
that the text output appends to the elapsed_ms line (verify-all: sieve_ms and
<check>_ms).

Importing this module loads none of the computation modules.  Each command
names the ones it runs (bands: arith and bands; secant; bounds; lattice;
verify-all: suite, which loads them all), and main imports them when the
command runs, so a process pays only for what it calls.  elapsed_ms covers
that import and the command; import_ms, the second field of the elapsed line,
is the import alone.
"""

from __future__ import annotations

import argparse
import sys
import time

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


def cmd_bands(args) -> tuple[list[dict], str]:
    from . import arith, bands
    if args.mode == "single":
        if args.n is None:
            raise ParameterError("mode single needs --n")
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
    sieve = arith.build_sieve(hi)
    return [r.record() for r in bands.asymptotic_reports(hi, args.exponent or bands.GROWTH_EXPONENTS, sieve)], "report"


def cmd_secant(args) -> tuple[list[dict], str]:
    from . import secant
    p = secant.SecantParams(args.g, args.m, args.d)
    p.require_valid()
    record: dict = {"g": args.g, "m": args.m, "d": args.d}
    status = "pass"
    if args.mode in ("closed", "both"):
        record["closed"] = secant.degree_formula(args.g, args.m, args.d)
    if args.mode in ("oracle", "both"):
        record["oracle"] = secant.degree_oracle(p)
    if args.mode == "both":
        agree = record["closed"] == record["oracle"]
        record["agree"] = agree
        if not agree:
            status = "fail"
    return [record], status


def cmd_bounds(args) -> tuple[list[dict], str]:
    from . import bounds
    kind = args.which
    if kind == "top":  # the two top kinds read the same inputs; m's parity picks one
        kind = "top-odd" if args.m is not None and args.m % 2 else "top-even"
    reads = bounds.INPUTS[kind]
    # every kind's inputs in table order, as the messages name them
    given = {name: v for names in bounds.INPUTS.values() for name in names if (v := getattr(args, name)) is not None}
    unread = [name for name in given if name not in reads]
    if unread:
        raise ParameterError(f"bounds {args.which} does not read {_flags(unread)}")
    missing = [name for name in reads if name not in given and name not in bounds.DEFAULTS]
    if missing:
        raise ParameterError(f"bounds {args.which} needs {_flags(missing)}")
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
    lat = lattice.read_gram(Path(args.gram).read_text())
    if args.action == "minima":
        prof = lattice.successive_minima(lat)
        return [
            {
                "rank": lat.rank,
                "sq_minima": prof.sq_minima,
                "log_minima": prof.log_minima,
                "witnesses": ";".join(_fmt(w) for w in prof.witnesses),
            }
        ], "report"
    if args.action == "dual":
        dual = lattice.dual_lattice(lat)
        return [
            {"row": i, "entries": row} for i, row in enumerate(dual.entries)
        ], "report"
    if args.action == "heights":
        table = lattice.sublattice_heights(lat)
        return [
            {"p": p, "covol2": c, "log_height": h}
            for p, (c, h) in enumerate(zip(table.covol2, table.log_heights), start=1)
        ], "report"
    if args.action == "transference":
        report = lattice.verify_transference(lat)
        out = [{**r._asdict(), "ok": r.ok, "printed_ok": r.printed_ok} for r in report.rows]
        out.append({"constant": report.constant})
        return out, "pass"
    # avoid
    if not args.form:
        raise ParameterError("action avoid needs --form FILE")
    form = lattice.read_form(Path(args.form).read_text())
    prof = lattice.successive_minima(lat)
    res = lattice.avoid_hypersurface(form, prof)
    return [
        {
            "grid": res.grid_vector,
            "vector": res.lattice_vector,
            "value": res.value,
            "log_norm": res.log_norm,
            "log_bound": res.log_bound,
            "within": res.within_bound,
        }
    ], "pass" if res.within_bound else "fail"


def cmd_verify_all(args) -> tuple[list[dict], str, dict]:
    from . import suite
    run = suite.run_all(quick=args.quick)
    records = [
        {"check": r.name, "status": "pass" if r.ok else "fail", "detail": r.detail}
        for r in run
    ]
    timing = {"sieve_ms": run.sieve_ms, **{f"{r.name}_ms": r.elapsed_ms for r in run}}
    return records, "pass" if all(r.ok for r in run) else "fail", timing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="secmin", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit a single JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band function, prime-power gap, growth reports")
    p.add_argument("mode", choices=["single", "verify", "asymptotic"])
    p.add_argument("--n", type=int, help="row for mode single")
    p.add_argument("--max", type=int, help="range bound for verify/asymptotic")
    p.add_argument("--exponent", type=float, action="append", help="scaling exponent (repeatable)")
    p.set_defaults(fn=cmd_bands, modules=("arith", "bands"))

    p = sub.add_parser("secant", help="secant-variety degree, closed form and series oracle")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=["closed", "oracle", "both"], default="both")
    p.set_defaults(fn=cmd_secant, modules=("secant",))

    p = sub.add_parser("bounds", help="explicit bound evaluators")
    p.add_argument("which", choices=["constant", "height", "lambda", "mu", "top", "omega-lambda", "omega-mu"])
    p.add_argument("--N", type=int, help="dimension parameter for the transference constant")
    p.add_argument("--rank-shift", action="store_true", default=None, dest="rank_shift")
    p.add_argument("--g", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, help="power of the dualizing sheaf")
    p.add_argument("--L2", type=float)
    p.add_argument("--Lw", type=float, help="default 0.0")
    p.add_argument("--w2", type=float, help="default 0.0")
    p.add_argument("--e-val", type=float, default=None, dest="e_val")
    p.add_argument("--field", choices=["Q"], help="the rationals, the default; excludes the four flags below")
    p.add_argument("--degK", type=int, help="field degree over the rationals")
    p.add_argument("--r1", type=int, help="number of real places")
    p.add_argument("--r2", type=int, help="number of complex places")
    p.add_argument("--log-disc", type=float, help="log |discriminant|")
    p.set_defaults(fn=cmd_bounds, modules=("bounds",))

    p = sub.add_parser("lattice", help="Gram-lattice computations")
    p.add_argument("action", choices=["minima", "dual", "heights", "transference", "avoid"])
    p.add_argument("--gram", required=True, help="Gram matrix file")
    p.add_argument("--form", help="form file for action avoid")
    p.set_defaults(fn=cmd_lattice, modules=("lattice",))

    p = sub.add_parser("verify-all", help="run the pinned verification suite")
    p.add_argument("--quick", action="store_true", help="reduced desk-scale ranges")
    p.set_defaults(fn=cmd_verify_all, modules=("suite",))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    for name in args.modules:  # the command's own imports then find them loaded
        __import__(f"{__package__}.{name}")
    import_ms = int(1000 * (time.perf_counter() - t0))
    try:
        records, status, *timing = args.fn(args)
    except (ParameterError, ResourceLimitError, OSError, UnicodeDecodeError) as exc:
        print(f"error={exc}", file=sys.stderr)
        print("status=fail")
        return 2
    except VerificationError as exc:
        print(f"error={exc}", file=sys.stderr)
        print("status=fail")
        return 1
    elapsed = int(1000 * (time.perf_counter() - t0))
    if args.json:
        import json  # only --json output needs it: text runs skip the import
        # default=str writes a Fraction as "n/d"; tuples already come out as arrays
        print(json.dumps({"command": args.command, "status": status, "records": records}, default=str))
    else:
        for record in records:
            print(_emit(record))
        print(f"status={status}")
        print(_emit({"elapsed_ms": elapsed, "import_ms": import_ms, **(timing[0] if timing else {})}))
    return 1 if status == "fail" else 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
