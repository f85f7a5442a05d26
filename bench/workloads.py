"""The four workloads: seeded inputs, the timed program calls, and output checks.

Each workload holds a fixed item list made from the seed.  `prepare` is the
program-side set-up (timed as setup_s), `run` makes the program calls of one
item and times only them, and `check` compares the output with computations
from `reference`, returning an error text or None.  A pass runs the whole list.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import calib
import reference as ref

clock = time.perf_counter

# Rank-4 Grams come from this committed seed, not from --seed: their item
# cost spans four orders of magnitude (tens of ms to tens of s, see the
# FOUND note on successive_minima), so drawing them per seed would make a
# run's throughput depend on whether it drew a slow one.
RANK4_SEED = 987001

# Large Pascal rows, the same for every seed.  A prime row has gap 0, so
# min_band scans once; a row with a positive gap scans once per candidate b,
# and how long the running GCD stays above 1 depends on n's digits, so two
# such rows of one size can differ by 10x.  A per-seed draw would make the
# tail depend on the seed; these are fixed, a prime and a positive-gap row
# at each size but 40000 (gap in brackets; min_band alone, on the machine of
# the README): 10007 [0] 0.02 s, 10030 [21] 0.58 s, 20011 [0] 0.10 s,
# 20020 [9] 0.99 s, 30011 [0] 0.21 s, 30020 [7] 0.42 s, 40009 [0] 0.37 s,
# 50021 [0] 0.58 s, 50894 [1] 1.47 s.
LARGE_ROWS = [10_007, 10_030, 20_011, 20_020, 30_011, 30_020, 40_009, 50_021, 50_894]
SMOKE_LARGE_ROWS = [10_007, 10_010]


def _mix(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


# ====================================================================== pascal-rows


class PascalRows:
    """One item is one Pascal row n: band, per-prime bands, valuations, range scans."""

    name = "pascal-rows"
    tail_pct = 99.0
    min_passes = 5
    valuation_positions = 8

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        rng = _mix(seed, 1)
        large = SMOKE_LARGE_ROWS if smoke else LARGE_ROWS
        self.limit = max(large)
        self.primes = ref.primes_upto(self.limit)
        self.gaps = ref.GapTable(self.limit)
        # min_band scans once per candidate b, so a small row's cost follows its
        # gap (0.5 to 18 ms near n = 2000): one row from each of equal groups of
        # 2..3000 ordered by (gap, n) gives every seed the same mix of gaps.
        # With 120 groups the list median moved by 0.068 (quartile distance
        # over median) from seed to seed; with 240, by 0.028.
        groups = 3 if smoke else 240
        order = sorted(range(2, 3001), key=lambda n: (self.gaps.gap[n], n))
        cuts = [len(order) * k // groups for k in range(groups + 1)]
        small = [order[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
        self.items = small + large
        self.large = set(large)

    def row_primes(self, n: int) -> list[int]:
        return self.primes[: bisect.bisect_right(self.primes, n)]

    def positions(self, n: int) -> list[int]:
        k = self.valuation_positions - 1
        return [(n // 2) * i // k for i in range(k + 1)]

    def prepare(self, mods):
        return mods.arith.build_sieve(self.limit)

    def run(self, mods, sieve, i):
        n = self.items[i]
        primes = self.row_primes(n)
        positions = self.positions(n)
        bands, arith = mods.bands, mods.arith
        t0 = clock()
        record = bands.prime_power_gap(n, sieve)
        band = bands.min_band(n)
        pbands = [bands.prime_band(n, p) for p in primes]
        vals = [arith.kummer_valuation(n, pos, p) for p in primes for pos in positions]
        quarter = bands.verify_quarter_bound(n, sieve) if n >= 30 else True
        report = bands.asymptotic_report(n, 0.535, sieve)
        dt = clock() - t0
        return dt, (record.gap, record.witness_prime_power, band, pbands, vals, quarter, report.partial_sum)

    def check(self, i, out):
        n = self.items[i]
        gap, witness, band, pbands, vals, quarter, partial_sum = out
        want_gap = n - ref.largest_prime_power(n)
        if band != want_gap or gap != want_gap or witness != n - want_gap:
            return f"n={n}: band {band}, gap {gap}, witness {witness}; expected gap {want_gap}"
        primes = self.row_primes(n)
        if len(pbands) != len(primes):
            return f"n={n}: {len(pbands)} prime bands for {len(primes)} primes"
        # explicit binomials cost ~1 ms each at 5*10^4, so large rows check a sample
        # of primes by math.comb; a small row builds its half-row of binomials once
        if n in self.large:
            step = max(1, len(primes) // 16)
            idx = sorted(set(range(0, len(primes), step)) | {len(primes) - 1})
            binomial = lambda b: math.comb(n, b)  # noqa: E731
        else:
            idx = range(len(primes))
            binomial = ref.binomial_row(n).__getitem__
        for j in idx:
            p, b = primes[j], pbands[j]
            if not 0 <= b <= n // 2 or binomial(b) % p == 0:
                return f"n={n}, p={p}: prime band {b} is not prime to p"
        if n not in self.large:
            for j in {0, len(primes) // 2, len(primes) - 1}:
                if any(binomial(k) % primes[j] for k in range(pbands[j] + 1, n // 2 + 1)):
                    return f"n={n}, p={primes[j]}: band {pbands[j]} is not the largest"
        positions = self.positions(n)
        it = iter(vals)
        for p in primes:
            for pos in positions:
                if next(it) != ref.legendre_binomial_valuation(n, pos, p):
                    return f"n={n}, m={pos}, p={p}: carry count differs from Legendre"
        if quarter is not True or not self.gaps.quarter_holds(n):
            return f"n={n}: quarter bound reported {quarter}"
        if partial_sum != self.gaps.gap_sum(n):
            return f"n={n}: partial sum {partial_sum} != {self.gaps.gap_sum(n)}"
        return None


# ====================================================================== lattice-lab


def random_gram(rng: random.Random, rank: int, spread: int = 2) -> list[list[int]]:
    """A^T A for a random integer A with entries in [-spread, spread], redrawn until definite."""
    while True:
        a = [[rng.randint(-spread, spread) for _ in range(rank)] for _ in range(rank)]
        g = [[sum(a[r][i] * a[r][j] for r in range(rank)) for j in range(rank)] for i in range(rank)]
        if ref.positive_definite(g):
            return g


def monomials(degree: int, slots: int) -> list[tuple[int, ...]]:
    if slots == 1:
        return [(degree,)]
    return [(i,) + rest for i in range(degree + 1) for rest in monomials(degree - i, slots - 1)]


def random_form(rng: random.Random, num_vars: int, degree: int) -> dict[tuple[int, ...], int]:
    while True:
        terms = {e: rng.randint(-5, 5) for e in monomials(degree, num_vars) if rng.random() < 0.5}
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return terms


def gram_text(g) -> str:
    return f"{len(g)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in g)


def form_text(terms) -> str:
    return "".join(f"{c} {' '.join(map(str, e))}\n" for e, c in sorted(terms.items()))


class LatticeLab:
    """One item is one Gram: minima, dual, heights, transference, avoidance."""

    name = "lattice-lab"
    tail_pct = 98.0
    min_passes = 10

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        counts = (2, 2, 1) if smoke else (30, 50, 8)
        rng = _mix(seed, 2)
        r4 = random.Random(RANK4_SEED)
        self.items = []
        for rank, count in zip((2, 3, 4), counts):
            src = r4 if rank == 4 else rng
            for k in range(count):
                g = random_gram(src, rank)
                form = random_form(src, rank, 1 + k % 3)
                self.items.append((g, form))

    def prepare(self, mods):
        read_gram, read_form = mods.lattice.read_gram, mods.lattice.read_form
        return [(read_gram(gram_text(g)), read_form(form_text(f))) for g, f in self.items]

    def run(self, mods, parsed, i):
        lat, form = parsed[i]
        lattice = mods.lattice
        t0 = clock()
        prof = lattice.successive_minima(lat)
        dual = lattice.dual_lattice(lat)
        heights = lattice.sublattice_heights(lat)
        transference = lattice.verify_transference(lat)
        avoid = lattice.avoid_hypersurface(form, prof)
        dt = clock() - t0
        return dt, (prof.sq_minima, prof.witnesses, dual.entries, heights.covol2,
                    [r.ok for r in transference.rows], avoid.grid_vector, avoid.lattice_vector, avoid.value)

    def check(self, i, out):
        g, form = self.items[i]
        sq, witnesses, dual, covol2, rows_ok, grid, vector, value = out
        return check_lattice_outputs(g, form, sq=sq, witnesses=witnesses, dual=dual, covol2=covol2,
                                     rows_ok=rows_ok, grid=grid, vector=vector, value=value)


def check_lattice_outputs(g, form, *, sq=None, witnesses=None, dual=None, covol2=None,
                          rows_ok=None, grid=None, vector=None, value=None):
    """Shared by lattice-lab and cli-cold; an output left out is not checked."""
    if sq is not None:
        err = ref.check_minima(g, sq, witnesses)
        if err:
            return f"{g}: {err}"
    if dual is not None and not ref.matmul_is_identity(g, dual):
        return f"{g}: G * dual != I"
    if covol2 is not None:
        if len(covol2) != len(g) or covol2[-1] != ref.int_det(g):
            return f"{g}: covol2 {covol2} does not end at det {ref.int_det(g)}"
        if sq is not None and covol2[0] != sq[0]:
            return f"{g}: covol2[0] = {covol2[0]} != lambda_1^2 = {sq[0]}"
    if rows_ok is not None and (len(rows_ok) != len(g) or not all(rows_ok)):
        return f"{g}: transference rows {rows_ok}"
    if grid is not None:
        n = len(g)
        expect = tuple(sum(grid[k] * witnesses[k][j] for k in range(n)) for j in range(n))
        if tuple(vector) != expect:
            return f"{g}: avoided vector {vector} != grid * witnesses {expect}"
        own = ref.eval_form(form, grid)
        if own == 0 or own != value:
            return f"{g}: form value {value} at {grid}, expected nonzero {own}"
    return None


# ====================================================================== secant-sweep


class SecantSweep:
    """One item is one (g, m, d): series oracle, closed sum, and the bound evaluators."""

    name = "secant-sweep"
    tail_pct = 99.0
    min_passes = 20
    fields = [(1, 1, 0, 0.0), (2, 0, 1, math.log(3))]  # Q and Q(sqrt(-3))

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        rng = _mix(seed, 3)
        genera, indices = ([2, 5], [1, 3]) if smoke else (range(2, 11), range(1, 11))
        self.items = []
        for g in genera:
            for d in indices:
                degk, r1, r2, log_disc = self.fields[rng.randrange(2)]
                field = {"degK": degk, "r1": r1, "r2": r2, "log_disc": log_disc}
                m = rng.randint(300, 600)
                n_omega = rng.randint(2, 6)
                item = {
                    "g": g, "m": m, "d": d, "field": field,
                    "L2": rng.uniform(1.0, 50.0), "Lw": rng.uniform(0.0, 5.0), "w2": rng.uniform(0.0, 3.0),
                    "n": n_omega, "k_omega": min(d, (g - 1) * n_omega - 1),
                }
                self.items.append(item)

    def reports(self, it) -> list[tuple[str, dict]]:
        g, m, d, f = it["g"], it["m"], it["d"], it["field"]
        surface = {"g": g, "m": m, "L2": it["L2"], "Lw": it["Lw"], "w2": it["w2"], **f}
        omega = {"g": g, "n": it["n"], "k": it["k_omega"], "w2": it["w2"], **f}
        return [
            ("constant", {"N": m + g - 2, "rank_shift": False, **f}),
            ("height", surface),
            ("lambda", {**surface, "k": d + 1}),
            ("mu", {**surface, "k": d + 1}),
            ("top-odd" if m % 2 else "top-even", surface),
            ("omega-lambda", omega),
            ("omega-mu", omega),
        ]

    def prepare(self, mods):
        SecantParams = mods.secant.SecantParams
        params = []
        for it in self.items:
            p = SecantParams(it["g"], it["m"], it["d"])
            p.require_valid()
            params.append(p)
        return params

    def run(self, mods, params, i):
        it = self.items[i]
        secant, bounds = mods.secant, mods.bounds
        specs = self.reports(it)
        t0 = clock()
        oracle = secant.degree_oracle(params[i])
        formula = secant.degree_formula(it["g"], it["m"], it["d"])
        values, replays = [], []
        for kind, inputs in specs:
            report = bounds.make_report(kind, **inputs)
            values.append(report.value)
            replays.append(report.replay())
        dt = clock() - t0
        return dt, (oracle, formula, values, replays)

    def check(self, i, out):
        it = self.items[i]
        g, m, d, f = it["g"], it["m"], it["d"], it["field"]
        oracle, formula, values, replays = out
        want = ref.secant_degree(g, m, d)
        if oracle != want or formula != want:
            return f"(g={g}, m={m}, d={d}): oracle {oracle}, formula {formula}, expected {want}"
        if d == 1 and want != m + 2 * g - 2:
            return f"(g={g}, m={m}): curve degree {want} != m + 2g - 2"
        for (kind, _), v, r in zip(self.reports(it), values, replays):
            if not (v == r and math.isfinite(v)):
                return f"(g={g}, m={m}, d={d}): {kind} replay {r!r} != {v!r}"
        deg = f["degK"]
        expected = {
            0: ref.transference_constant(m + g - 2, f["r1"], f["r2"], f["log_disc"]),
            1: ref.height_floor(g, m, it["L2"], it["Lw"], it["w2"]),
            2: ref.lambda_floor(g, m, d + 1, it["L2"], it["Lw"], it["w2"], deg),
            5: ref.omega_lambda_floor(g, it["n"], it["k_omega"], it["w2"], deg),
        }
        for j, want_v in expected.items():
            if not ref.close(values[j], want_v):
                return f"(g={g}, m={m}, d={d}): {self.reports(it)[j][0]} = {values[j]!r}, formula gives {want_v!r}"
        return None


# ====================================================================== cli-cold

CHILD = Path(__file__).resolve().parent / "cli_child.py"
KV = re.compile(r"(\w+)=(\S*)")


def _kv(line: str) -> dict[str, str]:
    return dict(KV.findall(line))


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


class CliCold:
    """One item is one `secmin` process, run through secmin.cli.console_main.

    `run` returns the process's latency already scaled by the child's own
    calibration (calib.py), less the kernel's runs; set-up samples are the
    child's scaled import times.
    """

    name = "cli-cold"
    self_calibrated = True
    tail_pct = 90.0
    min_passes = 10

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        rng = _mix(seed, 4)
        self.data = out_dir / f"cli-data-{seed}"
        self.data.mkdir(parents=True, exist_ok=True)
        g = random_gram(rng, 2)
        form = random_form(rng, 2, 1 + rng.randrange(3))
        gram, form_file = self.data / "rank2.gram", self.data / "rank2.form"
        gram.write_text(gram_text(g))
        form_file.write_text(form_text(form))
        self.gram = (g, form)
        g, m, d = rng.randint(2, 6), rng.randint(20, 60), rng.randint(2, 5)
        bg, bm, bk = rng.randint(2, 6), rng.randint(40, 120), rng.randint(2, 8)
        l2, lw, w2 = (repr(rng.uniform(lo, hi)) for lo, hi in ((1, 50), (0, 5), (0, 3)))
        # eleven items, so that p90 of the item latencies falls on a verify-all call
        self.items = [
            ["verify-all", "--quick"],
            ["--json", "verify-all", "--quick"],
            ["bands", "single", "--n", str(rng.randint(1000, 3000))],
            ["bands", "verify", "--max", str(rng.randint(100, 200))],
            ["secant", "--g", str(g), "--m", str(m), "--d", str(d)],
            ["bounds", "lambda", "--g", str(bg), "--m", str(bm), "--k", str(bk),
             "--L2", l2, "--Lw", lw, "--w2", w2],
        ]
        for action in ("minima", "dual", "heights", "transference"):
            self.items.append(["lattice", action, "--gram", str(gram)])
        self.items.append(["lattice", "avoid", "--gram", str(gram), "--form", str(form_file)])
        if smoke:
            self.items = [self.items[k] for k in (0, 2, 4, 5, 6, 7, 8, 9, 10)]
        self.env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        self.trace_dir: Path | None = None
        self.import_samples: list[float] = []
        self.rss_samples_kb: list[int] = []
        self.child_traces: list[tuple[int, dict]] = []
        self.minima: tuple | None = None  # the minima payload, read by the heights and avoid checks

    def prepare(self, mods):
        return None

    def run(self, mods, state, i):
        env = self.env
        trace_file = None
        if self.trace_dir is not None:
            trace_file = self.trace_dir / f"child-{i}.json"
            env = dict(env, SECMIN_BENCH_TRACE=str(trace_file))
        t0 = clock()
        proc = subprocess.run([sys.executable, str(CHILD), *self.items[i]], env=env,
                              capture_output=True, text=True, timeout=120)
        dt = clock() - t0
        report = dict(line[len("bench."):].split("=", 1) for line in proc.stderr.splitlines()
                      if line.startswith("bench."))
        import_s = None
        if "cal_s" in report:
            # the child's CPU, which need not be this process's, sets the scale
            before, after = map(float, report["cal_s"].split(","))
            factor = calib.scale(before, after)
            dt = (dt - before - after) * factor
            if "import_s" in report:
                import_s = float(report["import_s"]) * factor
                self.import_samples.append(import_s)
        if "peak_rss_kb" in report:
            self.rss_samples_kb.append(int(report["peak_rss_kb"]))
        if trace_file is not None and trace_file.exists():
            self.child_traces.append((i, json.loads(trace_file.read_text())))
            trace_file.unlink()
        return dt, (proc.returncode, proc.stdout, proc.stderr, import_s)

    def check(self, i, out):
        args = self.items[i]
        code, stdout, stderr, import_s = out
        if code != 0:
            return f"{' '.join(args)}: exit {code}: {stderr.strip()[-300:]}"
        if import_s is None or "bench.peak_rss_kb=" not in stderr:
            return f"{' '.join(args)}: child reported no calibration, import time or peak memory"
        if args[0] == "--json":
            payload = json.loads(stdout)
            bad = [r for r in payload["records"] if r["status"] != "pass"]
            if payload["status"] != "pass" or bad or len(payload["records"]) < 1:
                return f"verify-all --json: status {payload['status']}, failing {bad}"
            return None
        lines = stdout.splitlines()
        if len(lines) < 3 or not lines[-1].startswith("elapsed_ms="):
            return f"{' '.join(args)}: malformed output {stdout[-300:]!r}"
        status = lines[-2]
        records = [_kv(line) for line in lines[:-2]]
        if args[0] == "verify-all":
            bad = [r for r in records if r.get("status") != "pass"]
            return f"verify-all: failing checks {bad}" if bad or status != "status=pass" else None
        if status not in ("status=pass", "status=report"):
            return f"{' '.join(args)}: {status}"
        return self._check_payload(args, records)

    def _check_payload(self, args, records):
        rec = records[0]
        if args[0] == "bands":
            if args[1] == "single":
                n = int(args[3])
                gap = n - ref.largest_prime_power(n)
                got = (int(rec["band"]), int(rec["gap"]), int(rec["witness"]))
                return None if got == (gap, gap, n - gap) else f"bands single {n}: {got}, expected gap {gap}"
            hi = int(args[3])
            gaps = [(j - ref.largest_prime_power(j), j) for j in range(2, hi + 1)]
            worst = max(gaps, key=lambda t: t[0])
            got = (int(rec["checked"]), int(rec["largest_gap"]), int(rec["at"]))
            return None if got == (hi - 1, *worst) else f"bands verify {hi}: {got}, expected {worst}"
        if args[0] == "secant":
            g, m, d = int(args[2]), int(args[4]), int(args[6])
            want = ref.secant_degree(g, m, d)
            got = (int(rec["closed"]), int(rec["oracle"]), rec["agree"])
            return None if got == (want, want, "true") else f"secant {g},{m},{d}: {got}, expected {want}"
        if args[0] == "bounds":
            v = float(rec["value"])
            want = ref.lambda_floor(int(rec["g"]), int(rec["m"]), int(rec["k"]), float(rec["L2"]),
                                    float(rec["Lw"]), float(rec["w2"]), int(rec["degK"]))
            return None if ref.close(v, want) else f"bounds lambda: {v!r}, formula gives {want!r}"
        return self._check_lattice(args[1], records)

    def _check_lattice(self, action, records):
        g, form = self.gram
        rec = records[0]
        if action == "minima":
            sq = _ints(rec["sq_minima"])
            witnesses = tuple(_ints(w) for w in rec["witnesses"].split(";"))
            self.minima = (sq, witnesses)
            return check_lattice_outputs(g, form, sq=sq, witnesses=witnesses)
        if action == "dual":
            dual = [[Fraction(x) for x in r["entries"].split(",")] for r in records]
            return check_lattice_outputs(g, form, dual=dual)
        if action == "transference":
            return check_lattice_outputs(g, form, rows_ok=[r["ok"] == "true" for r in records[:-1]])
        if self.minima is None:
            return f"lattice {action}: no minima payload earlier in the pass"
        sq, witnesses = self.minima
        if action == "heights":
            covol2 = [Fraction(r["covol2"]) for r in records]
            return check_lattice_outputs(g, form, sq=sq, witnesses=witnesses, covol2=covol2)
        if rec["within"] != "true":
            return "lattice avoid: not within the norm bound"
        return check_lattice_outputs(g, form, sq=sq, witnesses=witnesses, grid=_ints(rec["grid"]),
                                     vector=_ints(rec["vector"]), value=int(rec["value"]))


WORKLOADS = {w.name: w for w in (PascalRows, LatticeLab, SecantSweep, CliCold)}
