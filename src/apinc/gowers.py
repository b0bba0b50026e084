"""Functions on Z_M, Gowers uniformity norms, the Lambda_k average and
its generalised von Neumann control, and constructive inverse oracles.

Conventions.  The U^k norm is the standard 2^k-fold cube average

    ||f||_{U^k}^{2^k} = E_{n, h_1..h_k in Z_M}
        prod_{omega in {0,1}^k} C^{|omega|} f(n + omega . h),

computed recursively through multiplicative derivatives
(D_h f)(n) = f(n+h) conj(f(n)), with a closed FFT form at k = 2:
||f||_{U^2}^4 = sum_r |f^(r)|^4 for f^(r) = E_n f(n) e(-rn/M).

Sets A in [1..N] embed into Z_M with M the smallest power of two
>= 2kN, so no counted k-term progression wraps around and the FFT is
cheap.  Lambda_k over the embedded window then relates to the genuine
AP count of A by  count_with_trivial = Lambda_k(1_A,..,1_A) * M^2
restricted to the window (each AP and its mirror both counted).
"""

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError, charge
from .polyphase import PolyPhase

TOL = 2.0**-30


@dataclass(frozen=True)
class DenseSet:
    """Subset of [1..N], kept sorted and distinct.  N and the members
    must be integers (Python or numpy, not bool): nothing is rounded."""

    N: int
    members: tuple

    def __init__(self, N, members):
        members = list(members)  # read twice below
        # operator.index refuses floats and numpy bools, but reads a bool as 0 or 1
        if type(N) is bool or bool in map(type, members):
            raise InvalidArgumentError("N and the members must be integers, not bools")
        try:
            N, ms = operator.index(N), tuple(sorted(set(map(operator.index, members))))
        except TypeError as e:
            raise InvalidArgumentError(f"N and the members must be integers: {e}") from None
        if N < 1:
            raise InvalidArgumentError("N must be positive")
        if ms and not (1 <= ms[0] and ms[-1] <= N):
            raise InvalidArgumentError("members must lie in [1..N]")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "members", ms)

    @property
    def density(self):
        return len(self.members) / self.N

    @property
    def density_exact(self):
        return Fraction(len(self.members), self.N)

    def __len__(self):
        return len(self.members)

    def mask(self):
        """Python int with bit n set iff n is a member."""
        bits = np.zeros(self.N + 1, dtype=bool)
        bits[np.array(self.members, dtype=np.int64)] = True
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def to_json(self):
        return {"N": self.N, "members": list(self.members)}

    @classmethod
    def from_json(cls, obj):
        N, members = _fields(obj, "N", "members")
        if not isinstance(members, list):  # the constructor checks N and each member
            raise InvalidArgumentError("a set needs a list of integer members")
        return cls(N, members)


class GroupFunction:
    """Complex-valued function on Z_M with an optional 1-bounded flag."""

    __slots__ = ("M", "values", "bounded")

    def __init__(self, values, bounded=False):
        self.values = np.asarray(values, dtype=complex)
        if self.values.ndim != 1 or len(self.values) < 1:
            raise InvalidArgumentError("values must be a nonempty 1-d array")
        self.M = len(self.values)
        if bounded and np.max(np.abs(self.values)) > 1 + TOL:
            raise InvalidArgumentError("bounded flag set but sup norm exceeds 1")
        self.bounded = bounded

    @classmethod
    def character(cls, M, r):
        n = np.arange(M)
        return cls(np.exp(2j * np.pi * r * n / M), bounded=True)

    def fourier(self):
        """f^(r) = E_n f(n) e(-rn/M)."""
        return np.fft.fft(self.values) / self.M

    def to_json(self):
        return {
            "M": self.M,
            "re": [float(v) for v in self.values.real],
            "im": [float(v) for v in self.values.imag],
        }

    @classmethod
    def from_json(cls, obj):
        M, re, im = _fields(obj, "M", "re", "im")
        if not _is_int(M) or not all(
            isinstance(v, list) and len(v) == M and all(map(_is_real, v)) for v in (re, im)
        ):
            raise InvalidArgumentError(
                "a function needs an integer M and lists re, im of M numbers each"
            )
        return cls(np.array(re, dtype=float) + 1j * np.array(im, dtype=float))


def _fields(obj, *keys):
    """The values of `keys` in the JSON object obj."""
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise InvalidArgumentError(f"expected a JSON object with keys {', '.join(keys)}")
    return [obj[k] for k in keys]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class InverseWitness:
    """An exact phase w = e(phase) on Z_M correlating with f:
    |E_n f(n) conj(w(n))| = correlation.  A Fourier character e(rn/M)
    is the degree-1 case."""

    phase: PolyPhase
    M: int
    correlation: float


def m_embed(N, k):
    """Smallest power of two >= 2kN: FFT-friendly, no wraparound APs."""
    M = 1
    while M < 2 * k * N:
        M *= 2
    return M


def balanced(A, k=3):
    """Balanced function 1_A - alpha 1_[N] embedded in Z_{m_embed(N,k)}.

    The window mean is zero exactly: values are the rationals 1 - |A|/N
    and -|A|/N, materialized as doubles but summed to zero in exact
    arithmetic by construction (N * alpha = |A| is an integer identity).
    The M doubles and the FFTs over them are charged as M * bitlen(M)
    before anything is allocated.
    """
    M = m_embed(A.N, k)
    charge(M * M.bit_length(), f"balanced function on Z_{M}")
    alpha = A.density_exact
    vals = np.zeros(M)
    vals[1 : A.N + 1] = float(-alpha)
    if A.members:
        vals[np.array(A.members, dtype=np.int64)] += 1.0
    return GroupFunction(vals, bounded=True)


def _derivative(values, h):
    return np.roll(values, -h) * np.conj(values)


def gowers_norm(f, k):
    """U^k norm on Z_M via the multiplicative-derivative recursion;
    k = 2 has an FFT fast path agreeing with the recursion to 2^-30."""
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    values = f.values if isinstance(f, GroupFunction) else np.asarray(f, dtype=complex)
    M = len(values)
    if k == 1:
        return float(abs(np.mean(values)))
    if k == 2:
        fh = np.fft.fft(values) / M
        return float(np.sum(np.abs(fh) ** 4)) ** 0.25
    charge(M ** (k + 1), f"U^{k} on Z_{M}")

    def power(vals, j):
        # ||vals||_{U^j}^{2^j}
        if j == 2:
            fh = np.fft.fft(vals) / len(vals)
            return float(np.sum(np.abs(fh) ** 4))
        return float(
            np.mean([power(_derivative(vals, h), j - 1) for h in range(len(vals))])
        )

    return max(power(values, k), 0.0) ** (1.0 / 2**k)


def _lambda_sum(vals, M):
    """sum_{n,d} prod_i vals[i][(n + i d) mod M], accumulated in Python
    (complex for complex slots, an exact int for integer slots)."""
    idx = np.arange(M)
    total = 0
    for d in range(M):
        prod = vals[0].copy()
        for i in range(1, len(vals)):
            prod = prod * vals[i][(idx + i * d) % M]
        total += prod.sum().item()
    return total


def lambda_k(fs):
    """Lambda_k(f_0..f_{k-1}) = E_{n,d} prod_i f_i(n + i d) on Z_M."""
    if not fs:
        raise InvalidArgumentError("need at least one slot")
    vals = [f.values if isinstance(f, GroupFunction) else np.asarray(f, complex) for f in fs]
    M = len(vals[0])
    if any(len(v) != M for v in vals):
        raise InvalidArgumentError("all slots must share one modulus")
    return _lambda_sum(vals, M) / M**2


def lambda_k_exact(sets_as_indicators, M):
    """Integer sum_{n,d} prod_i a_i(n + i d) for 0/1 integer arrays."""
    return _lambda_sum([np.asarray(a, dtype=np.int64) for a in sets_as_indicators], M)


def ap_scan(A, k):
    """(count, d, hits) from one pass over d = 1..(N-1)//(k-1): `count`
    is the number of nontrivial k-APs in A, `d` the first difference
    with the most of them and bit n of the int `hits` is set iff n, n+d,
    .., n+(k-1)d all lie in A.  (0, 0, 0) when A has no k-AP.

    A is packed once into the int B = A.mask(), and for each d the
    starts are B & (B >> d) & .. & (B >> (k-1)d); no window bound is
    needed because B has no bits above N.  Sets with fewer than k
    members scan nothing.  The scan costs about (k-1) ceil((N+1)/64)
    word operations per d, and that total is checked against the work
    budget on every call, before the memoised pass.
    """
    if k < 3:
        raise InvalidArgumentError("k must be >= 3")
    if len(A.members) < k:
        return 0, 0, 0
    N = A.N
    charge((N - 1) // (k - 1) * (k - 1) * -(-(N + 1) // 64), f"k-AP scan of [1..{N}]")
    return _ap_pass(A, k)


# Memoised on the last (A, k) so that the engine's ap_count(A, k) > 0 then
# find_ap(A, k) costs one pass.  The engine keeps that ap_count call only
# because perfbench/test_perfbench.py pins the engine.ap_count wrapper;
# once a benchmark change re-points that test, the engine can call
# find_ap alone and this memo can go.
@functools.lru_cache(maxsize=1)
def _ap_pass(A, k):
    B = A.mask()
    count, best_d, best_hits, best = 0, 0, 0, 0
    for d in range(1, (A.N - 1) // (k - 1) + 1):
        hits = B & (B >> d)
        for i in range(2, k):
            hits &= B >> (i * d)
        c = hits.bit_count()
        count += c
        if c > best:
            best, best_d, best_hits = c, d, hits
    return count, best_d, best_hits


def ap_count(A, k, nontrivial=True):
    """Exact number of k-term APs in A (d > 0 if nontrivial, else d >= 0
    with each trivial progression counted once).

    Direct enumeration: the count of the bitmask scan `ap_scan`, whose
    pass `engine.find_ap` then reuses on the same A.  The Lambda_k
    embedding identity (count over all signed d equals Lambda_k * M^2 on
    the window) is exercised in tests, not relied on here.
    """
    return (0 if nontrivial else len(A.members)) + ap_scan(A, k)[0]


def von_neumann_check(fs):
    """|Lambda_k| <= min_i ||f_i||_{U^{k-1}} + 2^-30 for 1-bounded slots."""
    for f in fs:
        if not (isinstance(f, GroupFunction) and f.bounded):
            raise InvalidArgumentError("all slots must be certified 1-bounded")
    k = len(fs)
    lhs = abs(lambda_k(fs))
    rhs = min(gowers_norm(f, k - 1) for f in fs)
    return {"lhs": float(lhs), "rhs": float(rhs), "ok": bool(lhs <= rhs + TOL)}


def inverse_u2(f, delta):
    """Largest-Fourier-coefficient witness when ||f||_{U^2} >= delta.

    Since ||f||_{U^2}^4 = sum_r |f^(r)|^4 <= max_r |f^(r)|^2 sum |f^(r)|^2
    and sum_r |f^(r)|^2 = E|f|^2 <= 1, the returned correlation is at
    least delta^2.  Returns None when the norm is below delta.
    """
    if gowers_norm(f, 2) < delta:
        return None
    fh = f.fourier()
    r = int(np.argmax(np.abs(fh)))
    return InverseWitness(PolyPhase.binomial([0, Fraction(r, f.M)]), f.M, float(abs(fh[r])))


def catalog_inverse(f, k, grid=64, threshold=0.1):
    """Best correlating grid quadratic phase e(theta C(n,2) + c n), the
    constructive stand-in for the degree-(k-2) inverse oracle at k = 4.

    Scans theta, c in (1/grid) Z; grid must divide M so each candidate
    is well-defined on Z_M.  Documented incomplete: genuine two-step
    nilsequence witnesses fall outside this catalog and come back
    not-found (None).
    """
    if k != 4:
        raise InvalidArgumentError("the catalog oracle is implemented for k = 4")
    M = f.M
    if M % grid != 0:
        raise InvalidArgumentError("grid must divide the modulus")
    charge(grid * grid * M, f"catalog scan of a {grid}x{grid} grid on Z_{M}")
    n = np.arange(M)
    cn2 = (n * (n - 1) // 2) % grid
    best = (0.0, None)
    for a in range(grid):
        phase_a = (a * cn2) % grid
        for b in range(grid):
            w = np.exp(2j * np.pi * ((phase_a + b * n) % grid) / grid)
            corr = abs(np.mean(f.values * np.conj(w)))
            if corr > best[0] + TOL:
                best = (float(corr), (a, b))
    corr, ab = best
    if ab is None or corr < threshold:
        return None
    a, b = ab
    return InverseWitness(PolyPhase.binomial([0, Fraction(b, grid), Fraction(a, grid)]), M, corr)
