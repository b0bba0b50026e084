"""The four benchmark workloads: inputs drawn from a seed, one timed
round each, and correctness gates that trust as little of apinc as is
cheap.

Importing this module puts the checkout's ``src`` first on the import
path and refuses any other copy of apinc, so the benchmark always
measures the code next to it.
"""

import bisect
import contextlib
import io
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

sys.path.insert(0, str(SRC))
import apinc  # noqa: E402
import apinc.cli  # noqa: E402
import apinc.engine  # noqa: E402
from apinc.gowers import DenseSet  # noqa: E402

if Path(apinc.__file__).resolve().parent.parent != SRC.resolve():
    raise ImportError(f"apinc resolved to {apinc.__file__}, not to {SRC}")

TOL = 2.0**-30
SLACK = Fraction(1, 2**30)

# certificate inputs at seed 0 (acceptance criteria 5 and 6)
PHASE_N, PHASE_EPS = 20000, 0.05
HEIS_N, HEIS_EPS = 5000, 0.1
# roth-digit: base-3 {0,1}-digit set in [1..3^10]; roth-random: sets in [1..8192]
DIGITS = 10
RANDOM_SETS, RANDOM_N = 100, 8192
FLOOR = 8


def _window_start(seed):
    """First element of the certificate workloads' range: 1 at seed 0,
    else drawn from [2, 10^5].  Shifting the window keeps the leading
    coefficients, and so the work the partitions do, while the points,
    and for the phase the linear coefficient, are new."""
    return 1 if seed == 0 else random.Random(seed).randint(2, 10**5)


def run_cli(argv):
    """apinc.cli.main(argv) in this process; returns (exit code, stdout).
    An exception that escapes main is reported as its repr in place of
    the exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = apinc.cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a crash is a failed operation, not a stopped benchmark
        code = repr(e)
    return code, out.getvalue()


# ---------------------------------------------------------------------
# Certificate workloads


def _phase_values(phase, ns):
    """Exact residues mod D of a serialized binomial-basis phase at ns."""
    exact = phase.get("exact", True)
    coeffs = [Fraction(c) if exact else Fraction(float(c)) for c in phase["coeffs"]]
    D = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (D // c.denominator) for c in coeffs]
    return D, [sum(a * math.comb(n, j) for j, a in enumerate(nums)) % D for n in ns]


def _circle_diameter(vals, D):
    """Largest circle distance between residues mod D: for each value the
    farthest one is a neighbour of its antipode in sorted order."""
    u = sorted(set(vals))
    ext2 = [2 * v for v in u] + [2 * (v + D) for v in u]
    best = 0
    for v in u:
        j = bisect.bisect_left(ext2, 2 * v + D)
        for k in (j - 1, j):
            if 0 <= k < len(ext2):
                d = (ext2[k] // 2 - v) % D
                best = max(best, min(d, D - d))
    return best


def check_certificate(cert, lo, source_len, eps):
    """Problems found in a certificate without calling apinc, and its
    quality counts.  Coverage, disjointness and the stated bounds are
    checked for every channel; the diameters of a binomial-basis phase,
    the form `apinc partition-phase` writes, are recomputed exactly."""
    problems = []
    if cert.get("source") != {"base": lo, "step": 1, "len": source_len}:
        problems.append(f"source is {cert.get('source')}")
    parts = cert["parts"]
    covered = bytearray(source_len)
    for p in parts:
        xs = range(p["base"], p["base"] + p["len"] * p["step"], p["step"]) if p["len"] > 0 else ()
        if p["len"] < 1 or p["step"] == 0 or not (lo <= min(xs) and max(xs) < lo + source_len):
            problems.append(f"part {p} leaves the source")
            continue
        for x in xs:
            if covered[x - lo]:
                problems.append(f"element {x} covered twice")
            covered[x - lo] = 1
    if sum(covered) != source_len:
        problems.append(f"{source_len - sum(covered)} elements uncovered")
    if any(p["diam"] > eps + TOL for p in parts):
        problems.append("a diameter witness exceeds epsilon")
    lens = [p["len"] for p in parts]
    if lens and cert["min_len"] > min(lens):
        problems.append("stated min_len exceeds the shortest part")
    phase = cert["payload"].get("phase", {})
    if phase.get("basis") == "binomial" and not problems:
        for p in parts:
            D, vals = _phase_values(phase, range(p["base"], p["base"] + p["len"] * p["step"], p["step"]))
            d = Fraction(_circle_diameter(vals, D), D)
            if d > eps + TOL or abs(d - Fraction(p["diam"])) > TOL:
                problems.append(f"part at {p['base']}: diameter {float(d)}, witness {p['diam']}")
                break
    quality = {
        "parts": len(parts),
        "min_len": min(lens) if lens else 0,
        "singletons": sum(1 for n in lens if n == 1),
    }
    return problems, quality


class CertWorkload:
    """Build a certificate with an `apinc partition-*` command, then
    re-check it with `apinc verify`, both through apinc.cli.main."""

    def __init__(self, name, argv, lo, source_len, eps, seed):
        self.argv = argv + ["--range", f"{lo}..{lo + source_len - 1}", "--eps", str(eps)]
        self.lo = lo
        self.source_len = source_len
        self.eps = eps
        self.path = WORK / f"{name}-{seed}.json"

    def round(self):
        t0 = time.perf_counter()
        build_code, _ = run_cli(self.argv + ["--out", str(self.path)])
        t1 = time.perf_counter()
        verify_code, verify_out = run_cli(["verify", "--cert", str(self.path)])
        t2 = time.perf_counter()
        rnd = {"wall_s": t2 - t0, "build_s": t1 - t0, "verify_s": t2 - t1, "attempted": 2}
        rnd.update(self.check(build_code, verify_code, verify_out))
        return rnd

    def check(self, build_code, verify_code, verify_out):
        """Failures of one build and verify (0, 1 or 2), the problems
        found, and the certificate's quality counts."""
        if build_code != 0:
            return {"failed": 2, "problems": [f"partition exited {build_code}, nothing to verify"]}
        try:
            text = self.path.read_text()
            cert = json.loads(text)
            problems, quality = check_certificate(cert, self.lo, self.source_len, self.eps)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return {"failed": 2, "problems": [f"unreadable certificate: {e!r}"]}
        failed = int(bool(problems))
        try:
            report = json.loads(verify_out) if verify_code == 0 else {}
        except ValueError:
            report = {"unparsed": verify_out[:200]}
        if not (report.get("ok") is True and report.get("num_parts") == len(cert["parts"])):
            failed += 1
            problems.append(f"apinc verify exited {verify_code} with {report}")
        return {"failed": failed, "problems": problems,
                "cert_bytes": len(text.encode()), **quality}


SQRT2, SQRT3 = math.sqrt(2), math.sqrt(3)


def phase_cert(seed, n=PHASE_N):
    argv = ["partition-phase", "--phase", f"{SQRT2!r} n + {SQRT3!r} C(n,2)"]
    return CertWorkload("phase-cert", argv, _window_start(seed), n, PHASE_EPS, seed)


def heisenberg_cert(seed, n=HEIS_N):
    argv = ["partition-nil", "--manifold", "heisenberg", "--seq", f"{SQRT2!r} n; {SQRT3!r} n; 0",
            "--fn", "e(x)*cutoff"]
    return CertWorkload("heisenberg-cert", argv, _window_start(seed), n, HEIS_EPS, seed)


# ---------------------------------------------------------------------
# Density-increment workloads


def digit_set(seed, digits=DIGITS):
    """An AP-free subset of [1..3^digits].  Seed 0: the members whose
    base-3 digits are all 0 or 1.  Other seeds: a translate of that set,
    each digit drawn from {0,1} or {1,2}, which stays AP-free."""
    N = 3**digits
    base = [sum(3**i for i in range(digits) if m >> i & 1) for m in range(2**digits)]
    if seed == 0:
        members = sorted(x for x in base if x) + [N]
    else:
        rng = random.Random(seed)
        shift = sum(3**i for i in range(digits) if rng.random() < 0.5)
        members = sorted(1 + shift + x for x in base)
    return N, members


class RothDigit:
    """szemeredi_search (k = 3, floor 8, fft oracle) on an AP-free digit set."""

    def __init__(self, seed, digits=DIGITS):
        self.N, members = digit_set(seed, digits)
        self.members = frozenset(members)
        self.A = DenseSet(self.N, members)

    def round(self):
        t0 = time.perf_counter()
        try:
            outcome, trace = apinc.engine.szemeredi_search(
                self.A, 3, floor_n0=FLOOR, oracle=apinc.engine.fft_oracle()
            )
            problems = []
        except Exception as e:  # a crash is a failed operation, not a stopped benchmark
            outcome, trace, problems = None, None, [f"szemeredi_search raised {e!r}"]
        t1 = time.perf_counter()
        increments = 0
        if not problems:
            problems, increments = self.check(outcome, trace)
        return {"wall_s": t1 - t0, "build_s": t1 - t0, "attempted": 1,
                "failed": int(bool(problems)), "problems": problems, "increments": increments}

    def check(self, outcome, trace):
        """Re-derive every increment on the original set: map each part
        back, recount members, and re-check the exact inequality
        |A'|/|P'| >= alpha + delta_eff/4 - 2^-30 and the rise in density."""
        problems = []
        if outcome.variant == "ap-found":
            return [f"AP {outcome.progression} reported in an AP-free set"], 0
        base, step = 1, 1
        n_cur, size = self.N, len(self.members)
        increments = 0
        for r in trace.records:
            if (r["N"], r["size"]) != (n_cur, size):
                problems.append(f"trace says |A|={r['size']} on [{r['N']}], recount {size} on [{n_cur}]")
                break
            if r["outcome"] != "incremented":
                break
            p = r["part"]
            first = base + (p["base"] - 1) * step
            mapped = range(first, first + p["len"] * p["step"] * step, p["step"] * step)
            hits = sum(1 for x in mapped if x in self.members)
            alpha, new = Fraction(size, n_cur), Fraction(hits, p["len"])
            if not new >= alpha + Fraction(r["delta_eff"]) / 4 - SLACK:
                problems.append(f"increment {increments}: {new} < alpha + delta_eff/4")
            if not new > alpha:
                problems.append(f"increment {increments}: density did not rise")
            base, step, n_cur, size = first, p["step"] * step, p["len"], hits
            increments += 1
        return problems, increments


class RothRandom:
    """szemeredi_search on random density-1/2 sets until an AP is found."""

    def __init__(self, seed, sets=RANDOM_SETS, n=RANDOM_N):
        rng = np.random.default_rng(seed)
        self.members = [frozenset(int(x) for x in np.flatnonzero(rng.random(n) < 0.5) + 1)
                        for _ in range(sets)]
        self.sets = [DenseSet(n, m) for m in self.members]

    def round(self):
        outcomes, latencies = [], []
        t0 = time.perf_counter()
        for A in self.sets:
            ts = time.perf_counter()
            try:
                outcomes.append(apinc.engine.szemeredi_search(A, 3, floor_n0=FLOOR)[0])
            except Exception as e:  # counted as a failed search
                outcomes.append(e)
            latencies.append(time.perf_counter() - ts)
        t1 = time.perf_counter()
        problems = [p for members, out in zip(self.members, outcomes) for p in self.check(members, out)]
        return {"wall_s": t1 - t0, "build_s": sum(latencies), "latencies": latencies,
                "attempted": len(self.sets), "failed": len(problems), "problems": problems}

    @staticmethod
    def check(members, outcome):
        """At most one problem: the outcome must be a nontrivial 3-AP
        inside the benchmark's own copy of the set."""
        if getattr(outcome, "variant", None) != "ap-found":
            return [f"no AP: {outcome!r}"]
        p = outcome.progression
        xs = [p.base + i * p.step for i in range(p.len)]
        if p.len != 3 or p.step <= 0 or not all(x in members for x in xs):
            return [f"{p} is not a nontrivial 3-AP in the set"]
        return []


WORKLOADS = {
    "phase-cert": phase_cert,
    "heisenberg-cert": heisenberg_cert,
    "roth-digit": RothDigit,
    "roth-random": RothRandom,
}
