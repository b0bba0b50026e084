"""The density-increment engine.

One step: if A contains a nontrivial k-term progression, extract one
explicitly (seeded at the common difference contributing the most
progressions).  Otherwise the balanced function f = 1_A - alpha 1_[N]
must be non-uniform; an inverse oracle supplies a structured witness w
with |E_{n in Z_M} f(n) conj(w(n))| = delta.  Renormalizing to the
window (f vanishes off [1..N]) gives |sum_[N] f conj(w)| >= delta_eff N
with delta_eff = delta M / N.  Partition [1..N] so the witness values
move by at most delta_eff / 2 on each part; since f sums to zero over
the window, the pigeonhole argument yields a part on which the sum of f
is at least delta_eff |part| / 4, i.e. the relative density of A rises
by delta_eff / 4.  Iterating must terminate: density cannot exceed 1.

Every claimed inequality is re-verified in exact rational arithmetic
before an outcome is returned.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import gowers, polyphase
from .errors import InvalidArgumentError
from .gowers import DenseSet, InverseWitness, ap_count, ap_scan, catalog_inverse
from .polyphase import lift
from .progressions import Progression

# The partition and inverse entry points are read through their modules
# at call time, as in nil: a name bound while a tracer had patched its
# module would keep the wrapper after the module is restored, and the
# package imports this module on first use.  ap_count alone stays bound,
# because perfbench/test_perfbench.py pins the engine.ap_count wrapper
# (see the memo in gowers).

SLACK = Fraction(1, 2**30)
FFT_THRESHOLD = 2.0**-20  # the U^2 norm below which the fft oracle finds nothing


# ---------------------------------------------------------------------
# Outcomes


@dataclass(frozen=True)
class APFound:
    variant = "ap-found"
    progression: Progression

    def to_json(self):
        return {"variant": self.variant, "progression": self.progression.to_json()}


@dataclass(frozen=True)
class Incremented:
    variant = "incremented"
    part: Progression
    new_set: DenseSet
    new_density: float
    witness: InverseWitness
    delta_eff: float

    def to_json(self):
        return {
            "variant": self.variant,
            "part": self.part.to_json(),
            "new_density": self.new_density,
            "delta": self.witness.correlation,
            "delta_eff": self.delta_eff,
        }


@dataclass(frozen=True)
class Inconclusive:
    variant = "inconclusive"
    reason: str  # "length-floor" | "oracle" | "increment-shortfall" | "iteration-cap"
    stage: str = ""

    def to_json(self):
        return {"variant": self.variant, "reason": self.reason, "stage": self.stage}


@dataclass
class IncrementTrace:
    records: list = field(default_factory=list)
    terminal: object = None

    def add(self, **kw):
        self.records.append(kw)

    def densities(self):
        return [r["alpha"] for r in self.records]

    def to_json_lines(self):
        import json

        lines = [json.dumps(r) for r in self.records]
        if self.terminal is not None:
            lines.append(json.dumps({"terminal": self.terminal.to_json()}))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# Oracles


def fft_oracle():
    """Inverse-U^2 oracle: the dominant Fourier mode of f."""

    def oracle(f):
        return gowers.inverse_u2(f, FFT_THRESHOLD)

    return oracle


def catalog_oracle(grid=64, threshold=0.05):
    """Grid quadratic-phase oracle for k = 4."""

    def oracle(f):
        return catalog_inverse(f, 4, grid=grid, threshold=threshold)

    return oracle


ORACLES = {"fft": fft_oracle, "catalog": catalog_oracle}


# ---------------------------------------------------------------------
# AP extraction


def find_ap(A, k):
    """A nontrivial k-AP inside A, or None.  Deterministic: the common
    difference with the most progressions (smallest on ties), then the
    smallest starting point, both read from `ap_scan`; right after
    `ap_count` on the same A this reuses that scan."""
    _, d, n = ap_scan(A, k)
    if not d:
        return None
    ms = A.members  # sorted: check by bisection, apart from the scan
    for x in range(n, n + k * d, d):
        j = bisect_left(ms, x)
        if j == len(ms) or ms[j] != x:
            raise AssertionError(f"AP scan chose {n} + {d} * [0..{k - 1}], not inside A")
    return Progression(n, d, k)


# ---------------------------------------------------------------------
# The increment step


def increment_from_witness(A, witness, floor_n0=2):
    """Pigeonhole a witness correlation into a density increment.

    The returned Incremented outcome satisfies, exactly in integers
    after clearing denominators,
        |A'| / |P'|  >=  alpha + delta_eff / 4 - 2^-30.
    """
    N = A.N
    # f vanishes off the window [1..N], so the correlation measured on
    # Z_M renormalizes to the window as delta * M / N
    alpha = A.density_exact
    delta_eff = lift(witness.correlation) * witness.M / N
    classes = {}  # |step| -> {residue: the members in that class, in order}

    def inside(base, step, n):
        """The members of A in the part (base, step, n), in increasing
        order, found by bisection in the members of its residue class."""
        last, s = base + (n - 1) * step, abs(step)
        if s not in classes:
            classes[s] = {}
            for x in A.members:
                classes[s].setdefault(x % s, []).append(x)
        xs = classes[s].get(base % s, [])
        return xs[bisect_left(xs, min(base, last)) : bisect_right(xs, max(base, last))]

    min_len = max(2, floor_n0)

    def select(cert, floor):
        best = None
        for base, step, n in cert.parts:
            if n < floor:
                continue
            hits = len(inside(base, step, n))
            ratio = Fraction(hits, n) - alpha  # mean of f over the part
            if best is None or ratio > best[0] or (ratio == best[0] and base < best[1]):
                best = (ratio, base, step, n, hits)
        return best

    # partition [1..N] so the witness phase moves by at most `target` on
    # each part: start at the coarse target delta_eff/2 and refine; at the
    # floor delta_eff/(4 pi) the witness-value diameter is provably
    # <= delta_eff/2 and the pigeonhole gain delta_eff/4 is guaranteed.
    # Prefer the best part meeting the length floor when it carries the
    # guaranteed gain; otherwise the max-ratio rule applies regardless
    # of length and a short selection disqualifies the run.
    floor_target = delta_eff / (4 * lift(math.pi))
    target = min(delta_eff / 2, Fraction(1, 2))
    need = alpha + delta_eff / 4 - SLACK
    while True:
        cert = polyphase.partition_polyphase(witness.phase, Progression(1, 1, N), target)
        long_best = select(cert, min_len)
        if long_best is not None and alpha + long_best[0] >= need:
            ratio, base, step, n, hits = long_best
            break
        if target <= floor_target:
            ratio, base, step, n, hits = select(cert, 1)
            break
        target = max(target / 2, floor_target)

    if n < min_len:
        return Inconclusive("length-floor", stage="pigeonhole")

    new_density = Fraction(hits, n)
    # the crucial inequality, exact after clearing denominators
    if not new_density >= need:
        return Inconclusive("increment-shortfall", stage="pigeonhole")

    Aprime = DenseSet(n, [(x - base) // step + 1 for x in inside(base, step, n)])
    return Incremented(
        part=Progression(base, step, n),
        new_set=Aprime,
        new_density=float(new_density),
        witness=witness,
        delta_eff=float(delta_eff),
    )


def density_increment_step(A, k, oracle=None, floor_n0=2):
    """One step of the dichotomy: extract a k-AP, or increment density
    on a subprogression where A correlates with the oracle's witness."""
    if k < 3:
        raise InvalidArgumentError("k must be >= 3")
    if not A.members:
        return Inconclusive("length-floor", stage="empty-set")
    if A.N <= floor_n0:
        return Inconclusive("length-floor", stage="entry")

    if ap_count(A, k, nontrivial=True) > 0:
        return APFound(find_ap(A, k))

    oracle = oracle or fft_oracle()
    f = gowers.balanced(A, k)
    witness = oracle(f)
    if witness is None:
        return Inconclusive("oracle", stage="inverse")
    return increment_from_witness(A, witness, floor_n0)


def szemeredi_search(A, k, floor_n0=2, oracle=None):
    """Iterate the increment step, rescaling each chosen part to
    [1..len]; returns the terminal outcome (APFound mapped back to the
    original coordinates) and the full trace."""
    trace = IncrementTrace()
    # current index i in [1..N_cur] corresponds to orig_base + (i-1)*orig_step
    orig_base, orig_step = 1, 1
    cur = A
    for _ in range(4 * A.N.bit_length() + 64):
        out = density_increment_step(cur, k, oracle=oracle, floor_n0=floor_n0)
        rec = {"N": cur.N, "alpha": float(cur.density), "size": len(cur.members)}
        if isinstance(out, APFound):
            p = out.progression
            out = APFound(Progression(
                orig_base + (p.base - 1) * orig_step, p.step * orig_step, p.len
            ))
            trace.add(**rec, outcome="ap-found")
            break
        if isinstance(out, Inconclusive):
            trace.add(**rec, outcome=f"inconclusive:{out.reason}")
            break
        part = out.part
        trace.add(
            **rec,
            outcome="incremented",
            delta=out.witness.correlation,
            delta_eff=out.delta_eff,
            part=part.to_json(),
            new_density=out.new_density,
        )
        orig_base = orig_base + (part.base - 1) * orig_step
        orig_step = orig_step * part.step
        cur = out.new_set
        if cur.density >= 1.0 and cur.N < k:
            out = Inconclusive("length-floor", stage="density-full")
            break
    else:
        out = Inconclusive("iteration-cap", stage="loop")
    trace.terminal = out
    return out, trace
