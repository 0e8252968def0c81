"""The three benchmark workloads: seeded inputs, the operations, and their checks.

Each workload builds its inputs in `__init__` (that is part of set-up time)
and runs one pass of fixed work in `run_pass`, handing every operation to
the runner as `runner.op(kind, fn, check)`.  A check raises `Wrong` when an
output is incorrect; the runner calls the checks after the pass, outside
the timed region, so a fast wrong answer counts as a failed operation.
The checks hold for any correct program and any seed.
"""
from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import torusdyn
from torusdyn import cli

# Lyapunov exponent of the cat map [[2,1],[1,1]]: log of its larger eigenvalue.
XI = math.log((3.0 + math.sqrt(5.0)) / 2.0)

# The criterion-8 breaking tuple at sizes 128..4096 is (10, 11, 12, 14, 15, 17).
LADDER = {
    "full": {"sizes": (256, 512, 1024, 2048), "n_max": 20, "samples": 200_000},
    "tiny": {"sizes": (64, 128), "n_max": 12, "samples": 20_000},
}
EGOROV_SIZES = {"full": (256, 512, 1024, 2048), "tiny": (256, 512)}

# Relative tolerance on Egorov defects against the recorded values: loose
# enough for an exact-integer mesh, which moves them by rounding only.
DEFECT_RTOL = 1e-6

# The criterion-12 CLI requests.  The entropy one also takes --output and
# --manifest paths.
C12_ENTROPY = ["entropy", "--matrix", "2", "1", "1", "1", "--sizes", "64", "32", "--n-max", "5",
               "--samples", "20000", "--seed", "11"]
C12_EGOROV = ["egorov", "--matrix", "2", "1", "1", "1", "--sizes", "48", "32", "--steps-max", "3",
              "--grid-factor", "2", "--quadrature", "2"]


def reference() -> dict:
    """Values recorded by record_reference.py at the commit that defined the benchmark."""
    return json.loads((Path(__file__).parent / "reference.json").read_text())


class Wrong(Exception):
    """An operation returned an incorrect result."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def sin_x1(x1, x2):
    return np.sin(2 * np.pi * x1)


def egorov_sweep(size: int):
    """Criterion 6's loop at one size: the cell-average table of sin(2 pi x1),
    then cat-map defects for j = 0, 1, ... until one passes 0.5."""
    cat = torusdyn.cat_map()
    f = torusdyn.Observable.from_function(sin_x1, 1.0, "sin-x1")
    cfg = torusdyn.LatticeConfig(size)
    table = torusdyn.discretize_aw(f, cfg, 4)
    defects = []
    for j in range(int(3 * math.log(size) / XI) + 1):
        defects.append(torusdyn.egorov_defect(cat, cfg, f, j, 2 * size, table=table))
        if defects[-1] > 0.5:
            break
    return table, defects


# ---------------------------------------------------------------------------
# ladder: criterion-8 entropy production
# ---------------------------------------------------------------------------


class Ladder:
    """One `compare_entropy_production` of the cat map over a ladder of sizes."""

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.config = LADDER[scale]
        self.ref = reference()["ladder"][scale]
        self.matrix = torusdyn.cat_map()
        self.partition = torusdyn.partition_quadrants()
        self.results: list = []

    def run_pass(self, runner) -> None:
        c = self.config
        result = runner.op(
            "compare_entropy_production",
            lambda: torusdyn.compare_entropy_production(
                self.matrix, self.partition, n_max=c["n_max"], sizes=c["sizes"],
                samples=c["samples"], seed=self.seed,
            ),
            self.check,
        )
        if result is not None:
            self.results.append(result)

    def check(self, r) -> None:
        c = self.config
        expect(tuple(r.sizes) == c["sizes"], f"sizes {r.sizes}")
        expect(tuple(r.breaking) == tuple(self.ref["breaking"]), f"breaking {r.breaking}")
        ref = np.array(self.ref["s_cs"])
        expect(r.s_cs.shape == ref.shape, f"s_cs shape {r.s_cs.shape}")
        worst = float(np.max(np.abs(r.s_cs - ref)))
        expect(worst <= 1e-9, f"s_cs differs from the recorded values by {worst}")
        for i, size in enumerate(r.sizes):
            for n in range(1, int(0.5 * math.log(size) / XI) + 1):
                gap = abs(r.s_ks[i, n] - r.s_cs[i, n]) / n
                expect(gap < 0.05, f"window gap {gap} at N={size}, n={n}")
        expect(r.fannes_violations == 0, f"{r.fannes_violations} Fannes violations")
        expect(r.slope is not None and r.slope > 0, f"slope {r.slope}")

    def layer_facts(self) -> dict[str, float]:
        c = self.config
        checked = sum(r.fannes_checked for r in self.results)
        possible = len(self.results) * len(c["sizes"]) * c["n_max"]
        return {"entropy.fannes_checked_frac": checked / possible if possible else 0.0}


# ---------------------------------------------------------------------------
# egorov: criterion-6 observable defect sweep
# ---------------------------------------------------------------------------


class Egorov:
    """The criterion-6 sweep of sin(2 pi x1) under the cat map.

    One operation per lattice size: build the cell-average table, then
    evaluate defects for j = 0, 1, ... until one passes 0.5.  Deterministic:
    the seed is recorded but does not change the inputs.
    """

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.sizes = EGOROV_SIZES[scale]
        self.ref = reference()["egorov"][scale]

    def run_pass(self, runner) -> None:
        stars: dict[int, float] = {}
        for size in self.sizes:
            runner.op("egorov_sweep", lambda: egorov_sweep(size), self.sweep_check(size, stars))
        runner.check_pass(lambda: self.check_slope(stars))

    def sweep_check(self, size: int, stars: dict):
        """Criterion 6 at one size, plus the recorded defects; notes the crossing."""
        ref = self.ref[str(size)]

        def check(output) -> None:
            table, defects = output
            e = table.entries
            expect(bool(np.all(np.isfinite(e))), "non-finite cell average")
            expect(float(np.max(np.abs(e))) <= 1.0 + 1e-12, "cell average above sup |f|")
            expect(abs(float(e.mean())) < 1e-9, f"cell averages of sin have mean {e.mean()}")
            expect(len(defects) == len(ref), f"{len(defects)} steps at N={size}, recorded {len(ref)}")
            for j, (d, r) in enumerate(zip(defects, ref)):
                expect(abs(d - r) <= DEFECT_RTOL * r + 1e-12,
                       f"defect {d} at N={size}, j={j}; recorded {r}")
            good = int(0.4 * math.log(size) / XI)
            expect(all(d < 0.05 for d in defects[: good + 1]), f"window at N={size}")
            expect(all(b > a for a, b in zip(defects, defects[1:])), f"not increasing at N={size}")
            crossing = next((j for j, d in enumerate(defects) if d >= 0.1), None)
            expect(crossing is not None and 0 < crossing <= 3 * math.log(size) / XI,
                   f"crossing {crossing} at N={size}")
            lo, hi = math.log(defects[crossing - 1]), math.log(defects[crossing])
            stars[size] = (crossing - 1) + (math.log(0.1) - lo) / (hi - lo)

        return check

    def check_slope(self, stars: dict) -> None:
        if len(stars) < len(self.sizes):
            return  # a sweep failed and is counted already
        slope = float(np.polyfit([math.log(s) for s in stars], list(stars.values()), 1)[0])
        expect(abs(slope - 1 / XI) * XI < 0.3, f"crossing slope {slope}, 1/xi = {1 / XI}")


# ---------------------------------------------------------------------------
# mixed-calls: closed loop of short CLI and library requests
# ---------------------------------------------------------------------------

ACCEPTANCE_MATRICES = (
    (2, 1, 1, 1), (3, 2, 1, 1), (1, 1, 0, 1), (1, 0, 2, 1), (0, 1, -1, 0), (1, 1, -1, 0),
)
PARTITIONS = ("quadrants", "halves-x1", "halves-x2", "bands-x2:3", "bands-x2:4")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`torusdyn.cli.main` in-process; an escaping exception is a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


def between(x: float, lo: int, hi: int) -> int:
    """The integer at fraction x of the way from lo to hi."""
    return lo + round(x * (hi - lo))


def random_matrix(rng) -> tuple[int, int, int, int]:
    """Small-entry unimodular matrix that is not plus or minus the identity."""
    while True:
        a, b, c, d = (int(v) for v in rng.integers(-3, 4, 4))
        if a * d - b * c == 1 and not (b == 0 and c == 0):
            return a, b, c, d


def spectral(m) -> tuple[str, float]:
    """Family and largest singular value, from the closed forms."""
    tr = m[0] + m[3]
    q = sum(v * v for v in m)
    eta = math.sqrt((q + math.sqrt(q * q - 4.0)) / 2.0)
    family = "hyperbolic" if abs(tr) > 2 else "parabolic" if abs(tr) == 2 else "elliptic"
    return family, eta


def shadowing_threshold(m, steps: int) -> float:
    family, eta = spectral(m)
    tr = m[0] + m[3]
    q = sum(v * v for v in m)
    if family == "hyperbolic":
        lam = (abs(tr) + math.sqrt(tr * tr - 4.0)) / 2.0
        sin_beta = math.sqrt(tr * tr - 4.0) / math.sqrt(q - 2.0)
        return math.sqrt(2.0) * lam**steps / sin_beta
    if family == "parabolic":
        return math.sqrt(2.0) * (steps * math.sqrt(q - 2.0) + 1.0)
    return math.sqrt(2.0) * eta


def order_mod(m, size: int) -> int:
    """Order of m in SL(2, Z/size), by Python-integer multiplication."""
    ident = (1 % size, 0, 0, 1 % size)
    base = tuple(v % size for v in m)
    power = base
    for k in range(1, 6 * size + 13):
        if power == ident:
            return k
        p = power
        power = (
            (p[0] * base[0] + p[1] * base[2]) % size,
            (p[0] * base[1] + p[1] * base[3]) % size,
            (p[2] * base[0] + p[3] * base[2]) % size,
            (p[2] * base[1] + p[3] * base[3]) % size,
        )
    raise AssertionError(f"{m} has no order below {6 * size + 13} mod {size}")


def snapped_cells(start: Fraction, span: Fraction, size: int) -> int:
    """Cells covered along one axis after snapping the boundaries to cell edges."""
    if span == 1:
        return size
    k0 = math.floor(start * size)
    k1 = math.floor(((start + span) % 1) * size)
    return (k1 - k0) % size


PARTITION_ATOMS = {
    # (x_start, x_span, y_start, y_span) per atom, in the presets' atom order.
    "quadrants": [(Fraction(a), Fraction(1, 2), Fraction(b), Fraction(1, 2))
                  for a in (0, Fraction(1, 2)) for b in (0, Fraction(1, 2))],
    "halves-x1": [(Fraction(a), Fraction(1, 2), Fraction(0), Fraction(1)) for a in (0, Fraction(1, 2))],
    "halves-x2": [(Fraction(0), Fraction(1), Fraction(a), Fraction(1, 2)) for a in (0, Fraction(1, 2))],
    "bands-x2:3": [(Fraction(0), Fraction(1), Fraction(j, 3), Fraction(1, 3)) for j in range(3)],
    "bands-x2:4": [(Fraction(0), Fraction(1), Fraction(j, 4), Fraction(1, 4)) for j in range(4)],
}


def static_entropy(partition: str, size: int) -> float:
    """Entropy of the snapped partition's cell counts on the size x size lattice."""
    counts = [
        snapped_cells(xs, xw, size) * snapped_cells(ys, yw, size)
        for xs, xw, ys, yw in PARTITION_ATOMS[partition]
    ]
    total = size * size
    return math.fsum(-c / total * math.log(c / total) for c in counts if c)


def read_csv(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(body))


class MixedCalls:
    """About 300 short requests per pass, one client, closed loop.

    The seed draws the matrices, check seeds and request order.  The count
    of each request type per pass is fixed, and the parameters that set a
    request's cost (lattice sizes, word lengths, step counts) are spread
    evenly over their range, so the latency mix is the same for every seed.
    """

    # Requests of each type per pass at full scale; tiny scale uses one tenth.
    # About a third are cheap (classify, refusals), a third take a few
    # milliseconds (the two localize checks), and a third are heavy, so the
    # median falls inside the middle group and p90 inside the heavy tail.
    MIX = {
        "classify": 80, "invalid": 15, "localize": 50, "shadowing": 50,
        "diameters": 20, "components-identity": 15, "components-matrix": 15,
        "orbit_period": 25, "cs_probabilities": 25, "entropy-c12": 3, "egorov-c12": 3,
    }

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.small = scale == "tiny"
        self.c12 = reference()["criterion12"]
        self.counter = 0
        requests = []
        for kind, count in self.MIX.items():
            count = max(1, count // 10) if self.small else count
            make = getattr(self, "make_" + kind.replace("-", "_"))
            requests.extend(make(i, i / max(1, count - 1)) for i in range(count))
        order = self.rng.permutation(len(requests))
        self.requests = [requests[i] for i in order]

    # -- input generation ---------------------------------------------------

    def matrix(self) -> tuple[int, int, int, int]:
        if self.rng.random() < 0.5:
            return ACCEPTANCE_MATRICES[int(self.rng.integers(len(ACCEPTANCE_MATRICES)))]
        return random_matrix(self.rng)

    def path(self, suffix: str) -> str:
        self.counter += 1
        return str(self.workdir / f"r{self.counter}{suffix}")

    def cli_request(self, kind: str, argv: list, check, files=()):
        argv = [str(a) for a in argv]

        def run():
            code, out, err = run_cli(argv)
            return code, out, err, [Path(f).read_text() if Path(f).exists() else None for f in files]

        return kind, run, check

    def make_classify(self, i, x):
        m = self.matrix()
        steps = between(x, 1, 10)
        size = int(self.rng.integers(16, 4097))

        def check(res):
            code, out, err, _ = res
            expect(code == 0, f"exit {code}: {err}")
            doc = json.loads(out[out.index("\n{") + 1:])["results"]
            family, eta = spectral(m)
            expect(doc["family"] == family, f"family {doc['family']} for {m}")
            expect(doc["determinant"] == 1 and doc["trace"] == m[0] + m[3], "det/trace")
            expect(abs(doc["eta"] - eta) <= 1e-9 * eta, f"eta {doc['eta']}")

        return self.cli_request("classify", ["classify", "--matrix", *m, "--size", size,
                                             "--steps", steps], check)

    def make_diameters(self, i, x):
        m = self.matrix()
        steps_max = between(x, 6, 14)

        def check(res):
            code, out, err, _ = res
            expect(code == 0, f"exit {code}: {err}")
            rows = read_csv(out)
            expect(len(rows) == steps_max + 1, f"{len(rows)} rows")
            power = np.eye(2)
            for n, row in enumerate(rows):
                formula, rel = float(row["formula"]), float(row["rel_err"])
                expect(int(row["n"]) == n and rel < 1e-6, f"row {row}")
                svd = float(np.linalg.svd(power, compute_uv=False)[0])
                expect(abs(formula - svd) <= 1e-6 * svd, f"D({n}) = {formula}, svd {svd}")
                power = power @ np.array(m, dtype=float).reshape(2, 2)

        return self.cli_request("diameters", ["diameters", "--matrix", *m, "--steps-max", steps_max,
                                              "--samples", 100_000], check)

    def make_localize(self, i, x):
        m = self.matrix()
        steps = between(x, 1, 4)
        size = int(self.rng.integers(32, 20001))

        def check(res):
            code, out, err, _ = res
            expect(code == 0, f"exit {code}: {err}")
            r = json.loads(out)["results"]
            expect(0 <= r["violations"] <= r["tested_pairs"] <= r["trials"], f"counts {r}")
            if r["premise_satisfied"]:
                expect(r["violations"] == 0, f"{r['violations']} violations above threshold")

        return self.cli_request("localize", [
            "localize", "--matrix", *m, "--size", size, "--steps", steps,
            "--trials", 20_000, "--seed", int(self.rng.integers(1 << 30)),
        ], check)

    def make_shadowing(self, i, x):
        m = self.matrix()
        steps = between(x, 1, 4)
        size = math.ceil(shadowing_threshold(m, steps) * float(self.rng.uniform(1.5, 50.0)))

        def check(res):
            code, out, err, _ = res
            expect(code == 0, f"exit {code}: {err}")
            r = json.loads(out)["results"]
            expect(r["max_ratio"] <= 1.0 and r["max_distance"] <= r["bound"], f"ratio {r['max_ratio']}")

        return self.cli_request("shadowing", [
            "localize", "--matrix", *m, "--size", size, "--steps", steps, "--check", "shadowing",
            "--trials", 20_000, "--seed", int(self.rng.integers(1 << 30)),
        ], check)

    def components_request(self, kind: str, dynamics: list, i: int, x: float):
        partition = PARTITIONS[i % len(PARTITIONS)]
        sizes = sorted({between(x, 8, 128), between(1.0 - x, 8, 96)})
        n_max = 2 + i % 4
        out, manifest = self.path(".csv"), self.path(".json")
        identity = not dynamics
        alphabet = len(PARTITION_ATOMS[partition])

        def check(res):
            code, _, err, (text, _) = res
            expect(code == 0 and text is not None, f"exit {code}: {err}")
            rows = read_csv(text)
            expect(len(rows) == len(sizes) * n_max, f"{len(rows)} rows")
            for size in sizes:
                mine = [r for r in rows if int(r["N"]) == size]
                s1 = static_entropy(partition, size)
                prev = 0.0
                for n, r in enumerate(mine, 1):
                    total, meas = float(r["total"]), float(r["measurement"])
                    expect(abs(meas - s1) <= 1e-12, f"measurement {meas}, cell counts give {s1}")
                    if identity:
                        # Criterion 10: frozen dynamics reproduce the static entropy exactly.
                        expect(total == meas, f"identity total {total} != {meas} at n={n}")
                    cap = min(n * math.log(alphabet), math.log(size * size)) + 1e-12
                    expect(prev - 1e-12 <= total <= cap, f"total {total} at N={size}, n={n}")
                    prev = total

        return self.cli_request(kind, [
            "entropy", "--mode", "components", *dynamics, "--partition", partition,
            "--sizes", *sizes, "--n-max", n_max, "--output", out, "--manifest", manifest,
        ], check, files=(out, manifest))

    def make_components_identity(self, i, x):
        return self.components_request("components-identity", ["--identity-dynamics"], i, x)

    def make_components_matrix(self, i, x):
        return self.components_request("components-matrix", ["--matrix", *self.matrix()], i, x)

    def make_entropy_c12(self, i, x):
        out, manifest = self.path(".csv"), self.path(".json")
        ref = self.c12["entropy"]

        def check(res):
            code, _, err, (text, _) = res
            expect(code == 0 and text is not None, f"exit {code}: {err}")
            rows = read_csv(text)
            expect(len(rows) == len(ref), f"{len(rows)} rows")
            for row, (s_cs, s_ks) in zip(rows, ref):
                expect(abs(float(row["S_cs"]) - s_cs) <= 1e-9, f"S_cs {row}")
                # S_ks is a 20000-sample Monte Carlo estimate; a new stream may move it.
                expect(abs(float(row["S_ks"]) - s_ks) <= 0.05, f"S_ks {row}")

        return self.cli_request("entropy-c12", [*C12_ENTROPY, "--output", out, "--manifest", manifest],
                                check, files=(out, manifest))

    def make_egorov_c12(self, i, x):
        ref = self.c12["egorov"]

        def check(res):
            code, out, err, _ = res
            expect(code == 0, f"exit {code}: {err}")
            got = [float(r["defect"]) for r in read_csv(out)]
            expect(len(got) == len(ref), f"{len(got)} rows")
            for d, r in zip(got, ref):
                expect(abs(d - r) <= DEFECT_RTOL * r + 1e-12, f"defect {d}, recorded {r}")

        return self.cli_request("egorov-c12", C12_EGOROV, check)

    def make_orbit_period(self, i, x):
        m = self.matrix()
        size = between(x, 64, 128 if self.small else 512)

        def run():
            return torusdyn.orbit_period(torusdyn.ToralMatrix(*m), torusdyn.LatticeConfig(size))

        def check(period):
            want = order_mod(m, size)
            expect(period == want, f"period {period} of {m} at N={size}; order mod N is {want}")

        return "orbit_period", run, check

    def make_cs_probabilities(self, i, x):
        m = self.matrix()
        size = 2 * between(x, 4, 32 if self.small else 64)
        length = 3 + i % 3

        def run():
            return torusdyn.cs_probabilities(
                torusdyn.ToralMatrix(*m), torusdyn.LatticeConfig(size),
                torusdyn.partition_quadrants(), length,
            )

        def check(table):
            p = table.probs
            expect(bool(np.all(p >= 0)) and abs(float(p.sum()) - 1.0) <= 1e-9, "probabilities")
            # The lattice map preserves the uniform measure, so every step's
            # marginal is the atom area 1/4; the step-0 symbol is code mod 4.
            marginal = np.bincount(table.codes % 4, weights=p, minlength=4)
            expect(bool(np.all(np.abs(marginal - 0.25) <= 1e-9)), f"marginal {marginal}")

        return "cs_probabilities", run, check

    # Invalid or out-of-range requests and the exit code a correct CLI gives.
    INVALID = (
        (["classify", "--matrix", 2, 1, 1, 2], 2),  # determinant 3
        (["classify", "--matrix", 1, 0, 0, 1], 2),  # identity
        (["localize", "--matrix", 2, 1, 1, 1, "--size", 8, "--steps", 3, "--check",
          "shadowing", "--seed", 1], 2),  # below the tracking threshold
        (["localize", "--matrix", 2, 1, 1, 1, "--size", 64, "--steps", 2], 2),  # no seed
        (["entropy", "--identity-dynamics", "--sizes", 16, "--n-max", 0, "--mode",
          "components", "--output", "{out}"], 2),
        (["entropy", "--matrix", 2, 1, 1, 1, "--sizes", 16, "--n-max", 3,
          "--output", "{out}"], 2),  # compare mode needs a seed
        (["entropy", "--matrix", 2, 1, 1, 1, "--sizes", 64, "--n-max", 2, "--mode",
          "components", "--capacity", 1000, "--output", "{out}"], 3),
        (["egorov", "--matrix", 2, 1, 1, 1, "--sizes", 16, "--steps-max", 2,
          "--grid-factor", 0], 2),
        (["diameters", "--matrix", 1, 1, 0, 1, "--steps-max", -1], 2),
        (["entropy", "--identity-dynamics", "--partition", "pentagons", "--sizes", 16,
          "--n-max", 2, "--mode", "components", "--output", "{out}"], 2),
    )

    def make_invalid(self, i, x):
        template, want = self.INVALID[i % len(self.INVALID)]
        out = self.path(".csv")
        argv = [out if a == "{out}" else a for a in template]
        return self.cli_request("invalid", argv, refusal_check(want))

    def run_pass(self, runner) -> None:
        for kind, run, check in self.requests:
            runner.op(kind, run, check)


def refusal_check(want: int):
    def check(res):
        code, _, err, _ = res
        expect(code == want and err.strip() != "", f"exit {code} (want {want}), stderr {err!r}")
    return check


# Requests that crash with OverflowError (exit 1, traceback) at the commit the
# benchmark was defined on.  They run once per run, outside the timed passes,
# and are reported on their own; a fix shows as these passing.
KNOWN_DEFECTS = (
    ["diameters", "--matrix", "2", "1", "1", "1", "--steps-max", "800"],
    ["classify", "--matrix", "2", "1", "1", "1", "--steps", "800"],
)


def probe_known_defects() -> list[dict]:
    outcomes = []
    for argv in KNOWN_DEFECTS:
        try:
            code, _, err = run_cli(list(argv))
            ok = code in (2, 3) and err.strip() != ""
            detail = f"exit {code}"
        except Exception as exc:  # the defect: an exception escapes the CLI
            ok = False
            detail = f"{type(exc).__name__} escaped the CLI"
        outcomes.append({"argv": " ".join(argv), "ok": ok, "outcome": detail})
    return outcomes


WORKLOADS = {"ladder": Ladder, "egorov": Egorov, "mixed-calls": MixedCalls}
