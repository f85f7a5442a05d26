"""Span tracing of secmin from outside the package.

Tracing replaces module and class attributes with timing wrappers, so calls
the package makes internally (such as `lattice.short_vectors` from
`successive_minima`) are seen too.  A target a later refactor removed or
renamed is skipped: it yields no span and no error.

Spans are kept in memory as parallel arrays (name, parent span, item, start,
end) and written out once at the end.  Hot, tiny functions get counters
instead of spans; each count is keyed by the innermost open span, so ratios
such as primality tests per valuation are measured where the work happens.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, attribute or Class.method, span name)
SPAN_TARGETS = [
    ("secmin.arith", "build_sieve", "arith.build_sieve"),
    ("secmin.arith", "kummer_valuation", "arith.kummer_valuation"),
    ("secmin.bands", "min_band", "bands.min_band"),
    ("secmin.bands", "prime_band", "bands.prime_band"),
    ("secmin.bands", "verify_quarter_bound", "bands.verify_quarter_bound"),
    ("secmin.bands", "asymptotic_report", "bands.asymptotic_report"),
    ("secmin.bands", "verify_band_gap_identity", "bands.verify_band_gap_identity"),
    ("secmin.secant", "degree_oracle", "secant.degree_oracle"),
    ("secmin.secant", "degree_formula", "secant.degree_formula"),
    ("secmin.secant", "chern_series", "secant.chern_series"),
    ("secmin.secant", "ChowSeries.inverse", "secant.series_inverse"),
    ("secmin.secant", "pushforward_degree", "secant.pushforward"),
    ("secmin.bounds", "evaluate", "bounds.evaluate"),
    ("secmin.lattice", "read_gram", "lattice.read_gram"),
    ("secmin.lattice", "read_form", "lattice.read_form"),
    ("secmin.lattice", "short_vectors", "lattice.short_vectors"),
    ("secmin.lattice", "successive_minima", "lattice.successive_minima"),
    ("secmin.lattice", "sublattice_heights", "lattice.sublattice_heights"),
    ("secmin.lattice", "dual_lattice", "lattice.dual_lattice"),
    ("secmin.lattice", "verify_transference", "lattice.verify_transference"),
    ("secmin.lattice", "avoid_hypersurface", "lattice.avoid_hypersurface"),
    ("secmin.suite", "run_all", "suite.run_all"),
    ("secmin.cli", "main", "cli.main"),
]

# (module, attribute or Class.method, counter name): called too often for a span each
COUNT_TARGETS = [
    ("secmin.arith", "is_prime", "arith.is_prime"),
    ("secmin.arith", "binomial", "arith.binomial"),
    ("secmin.bands", "band_gcd", "bands.band_gcd"),
    ("secmin.secant", "ChowElement.__mul__", "secant.chow_mul"),
]

LAYERS = ["arith", "bands", "secant", "bounds", "lattice", "suite", "cli"]

# the checks of suite.run_all(quick=True); a check a later version drops reads 0
SUITE_CHECKS = [
    "band-gap-identity",
    "prime-power-vanishing",
    "quarter-bound",
    "valuation-two-oracle",
    "prime-band-identity",
    "secant-two-oracle",
    "curve-degree",
    "transference",
    "avoidance",
    "bound-consistency",
    "asymptotic-report",
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}  # "counter<parent span" -> calls
        self.values: dict[str, float] = {}  # measured quantities such as vectors returned
        self.item_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        names, parent, item, start, end, stack = (
            self.name, self.parent, self.item, self.start, self.end, self.stack)
        clock = time.perf_counter
        values = self.values
        vec_key = "lattice.short_vectors.vectors"
        runs_key = "suite.run_all.results"

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(self.item_id)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if name == "lattice.short_vectors":
                values[vec_key] = values.get(vec_key, 0) + len(result)
            elif name == "suite.run_all":
                values[runs_key] = values.get(runs_key, 0) + 1
                for r in result:
                    key = f"suite.{r.name}_ms"
                    values[key] = values.get(key, 0) + r.elapsed_ms
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts, stack, span_names, names = self.counts, self.stack, self.name, self.names

        def counted(*args, **kwargs):
            key = f"{name}<{names[span_names[stack[-1]]] if stack else ''}"
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for modname, attr, name in targets:
                module = sys.modules.get(modname)
                if module is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    fn = getattr(cls, "__dict__", {}).get(meth)
                    if fn is None:
                        continue
                    self._replace(cls, meth, fn, make(name, fn))
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapper = make(name, fn)
                # every secmin module that imported the function by name gets the wrapper
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").split(".")[0] != "secmin":
                        continue
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._replace(other, key, fn, wrapper)

    def _replace(self, owner, key: str, original, wrapper) -> None:
        self._undo.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # ------------------------------------------------------------ output

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": {
                "name": list(self.name),
                "parent": list(self.parent),
                "item": list(self.item),
                "start": list(self.start),
                "end": list(self.end),
            },
            "counts": self.counts,
            "values": self.values,
        }

    def merge(self, data: dict, item_id: int) -> None:
        """Append a trace recorded in another process, as spans of one item."""
        ids = [self._name_id(n) for n in data["names"]]
        base = len(self.start)
        sp = data["spans"]
        for nid, par, st, en in zip(sp["name"], sp["parent"], sp["start"], sp["end"]):
            self.name.append(ids[nid])
            self.parent.append(par + base if par >= 0 else -1)
            self.item.append(item_id)
            self.start.append(st)
            self.end.append(en)
        for key, v in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + v
        for key, v in data["values"].items():
            self.values[key] = self.values.get(key, 0) + v


def write_trace(tracer: Tracer, path) -> None:
    with gzip.open(path, "wt") as fh:
        json.dump(tracer.dump(), fh)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Totals, counts and ratios of one traced pass: the table in the benchmark README."""
    names = tracer.names
    n_spans = len(tracer.start)
    total: dict[str, float] = {}  # inclusive time, outermost call of each name only
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    child_time = [0.0] * n_spans
    for i in range(n_spans):
        p = tracer.parent[i]
        if p >= 0:
            child_time[p] += tracer.end[i] - tracer.start[i]
    for i in range(n_spans):
        name = names[tracer.name[i]]
        dur = tracer.end[i] - tracer.start[i]
        calls[name] = calls.get(name, 0) + 1
        p = tracer.parent[i]
        while p >= 0 and names[tracer.name[p]] != name:
            p = tracer.parent[p]
        if p < 0:  # not nested in a call of itself
            total[name] = total.get(name, 0.0) + dur
        layer = name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + dur - child_time[i]

    def per_pass_s(*span_names: str) -> float:
        return sum(total.get(n, 0.0) for n in span_names)

    def count(counter: str, parent: str | None = None) -> int:
        return sum(v for k, v in tracer.counts.items()
                   if k.split("<")[0] == counter and (parent is None or k.split("<")[1] == parent))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    vals = tracer.values
    m = {
        "arith.build_sieve_s": per_pass_s("arith.build_sieve"),
        "arith.kummer_valuation_s": per_pass_s("arith.kummer_valuation"),
        "arith.is_prime_per_valuation": ratio(
            count("arith.is_prime", "arith.kummer_valuation"), calls.get("arith.kummer_valuation", 0)),
        "arith.binomial_calls": count("arith.binomial"),
        "bands.min_band_s": per_pass_s("bands.min_band"),
        "bands.band_gcd_per_row": ratio(count("bands.band_gcd", "bands.min_band"), calls.get("bands.min_band", 0)),
        "bands.prime_band_s": per_pass_s("bands.prime_band"),
        "bands.range_scan_s": per_pass_s("bands.verify_quarter_bound", "bands.asymptotic_report"),
        "secant.degree_oracle_s": per_pass_s("secant.degree_oracle"),
        "secant.chern_series_s": per_pass_s("secant.chern_series"),
        "secant.series_inverse_s": per_pass_s("secant.series_inverse"),
        "secant.pushforward_s": per_pass_s("secant.pushforward"),
        "secant.chow_mul_calls": count("secant.chow_mul"),
        "secant.degree_formula_s": per_pass_s("secant.degree_formula"),
        "bounds.evaluate_s": per_pass_s("bounds.evaluate"),
        "bounds.evaluate_calls": calls.get("bounds.evaluate", 0),
        "lattice.short_vectors_s": per_pass_s("lattice.short_vectors"),
        "lattice.short_vectors_calls": calls.get("lattice.short_vectors", 0),
        "lattice.vectors_per_call": ratio(
            vals.get("lattice.short_vectors.vectors", 0), calls.get("lattice.short_vectors", 0)),
        "lattice.successive_minima_s": per_pass_s("lattice.successive_minima"),
        "lattice.sublattice_heights_s": per_pass_s("lattice.sublattice_heights"),
        "lattice.dual_lattice_s": per_pass_s("lattice.dual_lattice"),
        "lattice.transference_s": per_pass_s("lattice.verify_transference"),
        "lattice.avoid_s": per_pass_s("lattice.avoid_hypersurface"),
    }
    runs = vals.get("suite.run_all.results", 0)
    for check in SUITE_CHECKS:
        m[f"suite.{check}_ms"] = ratio(vals.get(f"suite.{check}_ms", 0), runs)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    return m

