"""Polynomial phases Z -> R/Z and their constructive partitions.

A phase is held exactly as Python integers: one common denominator D
and the numerators p_j of its binomial coefficients,

    phi(n) = sum_j p_j C(n, j) / D,

so phi(n) mod 1 is the residue (sum_j p_j C(n, j)) mod D, over D.  A
phase entered with float coefficients is lifted through the (exact)
dyadic value of each double, so every mod-1 computation in this module
is integer arithmetic and a diameter witness is the true supremum for
the stored coefficients; the `exact` flag only records how the phase
was entered and how it serializes.

The binomial basis keeps this kernel cheap.  Composing with an integer
affine map n = b + a*t keeps D, because C(b + a*t, j) is an integer
combination of the C(t, k); the new numerators are the forward
differences at t = 0 of the first deg+1 values; and summing that
difference table walks the residues along a progression with a few
integer additions per point.  Fractions appear only at the interface:
the coefficients a phase was entered with (binomial, phi(n) =
sum a_j C(n,j), or monomial, phi(n) = sum t_j n^j), `eval`, and the
diameters handed back.
"""

from fractions import Fraction
from functools import partial
from itertools import accumulate, islice
from math import factorial, isfinite, isqrt, lcm

from .errors import InvalidArgumentError, PreconditionError
from .progressions import PartitionCertificate, check_budget, index_slice, refine, repair, subdivide

HALF = Fraction(1, 2)
# strictly below 6/pi^2, so the per-degree budgets sum to < epsilon
BUDGET_WEIGHT = Fraction(6079271018540266, 10**16)
# the block-length formula never divides by less than 2^-40
EPS0_FLOOR_BITS = 40


def lift(x):
    """Exact rational representative of a coefficient."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not isfinite(x):
            raise InvalidArgumentError(f"{x!r} is not a finite number")
        return Fraction(x)  # exact dyadic value of the double
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InvalidArgumentError(f"cannot read {x!r} as a rational number") from e
    raise InvalidArgumentError(f"cannot use {x!r} as a phase coefficient")


# ---------------------------------------------------------------------
# Integer kernel: numerator vectors over a common denominator


def _common(xs):
    """Common denominator D and the integer numerators of rationals xs."""
    D = lcm(*(x.denominator for x in xs))
    return D, [x.numerator * (D // x.denominator) for x in xs]


def _eval_num(num, n):
    """sum_j num[j] * C(n, j) at integer n."""
    acc, c = 0, 1
    for j, p in enumerate(num):
        acc += p * c
        c = c * (n - j) // (j + 1)  # C(n, j+1), exact
    return acc


def _horner(num, x):
    """sum_i num[i] * x^i."""
    acc = 0
    for c in reversed(num):
        acc = acc * x + c
    return acc


def _differences(vals):
    """Forward differences at the first point: the binomial numerators
    of the polynomial taking vals at 0, 1, ..., len(vals) - 1."""
    vals = list(vals)
    n = len(vals)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            vals[i] -= vals[i - 1]
    return vals


def _frame(num, base, step):
    """Binomial numerators, same denominator, of t -> phi(base + step*t)."""
    return _differences([_eval_num(num, base + step * t) for t in range(len(num))])


def _walk(diffs, length):
    """Values at t = 0 .. length-1 of the polynomial whose forward
    differences at 0 are diffs: each level is a running sum of the next."""
    k = len(diffs) - 1
    while k > 0 and not diffs[k]:
        k -= 1
    vals = [diffs[k]] * length
    for c in reversed(diffs[:k]):
        vals = list(accumulate(islice(vals, length - 1), initial=c))
    return vals


def _values(num, base, step, length, den=0):
    """sum_j num[j] C(n, j) at n = base + step*t for t < length, reduced
    mod den when den is given: a walk of the frame's differences."""
    vals = _walk(_frame(num, base, step), length)
    return [v % den for v in vals] if den else vals


def _diam_num(res, den, limit):
    """Numerator over den of the circle diameter of residues in [0, den),
    exact when it is at most `limit`, and otherwise some circle distance
    between two of them above `limit` (pass den for the exact value).

    When 4 * limit <= den, one pass over the signed offsets from the
    first residue: the first offset past `limit` is returned, and if
    none is, every point lies on an arc of at most half the circle, on
    which the diameter is the offsets' range.  Otherwise a sorted
    antipode scan: the farthest point from v is a neighbour of its
    antipode v + den/2 in circular order, and the antipode only moves
    forward as v does, so one pointer sweep finds them all.
    """
    if 4 * limit <= den:
        half = den // 2
        shift, lo, hi = half - res[0], 0, 0
        for r in res:
            u = (r + shift) % den - half  # in [-den/2, den/2): the distance from res[0] is |u|
            if not -limit <= u <= limit:
                return abs(u)
            if u > hi:
                hi = u
            elif u < lo:
                lo = u
        return hi - lo
    u = sorted(set(res))
    if len(u) < 2:
        return 0
    ext = u + [v + den for v in u]
    best, j = 0, 0
    for v in u:
        antipode = 2 * v + den  # compared against 2 * ext[j]
        while 2 * ext[j] < antipode:
            j += 1
        best = max(best, ext[j - 1] - v, v + den - ext[j])
    return best


def _linear_diameters(phi, limit):
    """Diameter numerators over phi.den, exact up to `limit`, of a phase
    of degree at most 1 on progressions.  Such a phase is c*n/den plus a
    constant mod 1 (its higher numerators are multiples of den), so two
    points j apart differ by j*c*step and a part's diameter is the prefix
    maximum of ||j*c*step|| over 0 < j < len.  One table is kept per
    c*step mod den, extended only as far as a part asks and no further
    than its first value above `limit`, which then stands for every
    longer part."""
    den, c, tables = phi.den, phi.num[1] if len(phi.num) > 1 else 0, {}

    def diam_num(Q):
        _, step, n = Q
        g = c * step % den
        if not g:
            return 0
        t = tables.setdefault(g, [0])  # t[j]: the diameter of j + 1 points
        j, best = len(t), t[-1]
        while j < n and best <= limit:
            r = j * g % den
            best = max(best, min(r, den - r))
            t.append(best)
            j += 1
        return t[min(n, j) - 1]

    return diam_num


def _mono_from_bin(num):
    """Monomial numerators over d! (d = len(num) - 1) of sum num[j] C(n, j)."""
    d = len(num) - 1
    out = [0] * (d + 1)
    fall = [1]  # n(n-1)...(n-j+1), lowest degree first
    w = factorial(d)  # d! / j!
    for j, p in enumerate(num):
        if j:
            fall = [a - (j - 1) * b for a, b in zip([0] + fall, fall + [0])]
            w //= j
        if p:
            for i, c in enumerate(fall):
                out[i] += p * w * c
    return out


def _bin_from_mono(num):
    """Binomial numerators, same denominator, of sum num[i] n^i."""
    return _differences([_horner(num, n) for n in range(len(num))])


def _iroot(x, s):
    """floor(x^(1/s)) for integers x >= 0 and s >= 1."""
    r = int(x ** (1.0 / s))  # float seed, corrected exactly
    while r**s > x:
        r -= 1
    while (r + 1) ** s <= x:
        r += 1
    return r


class PolyPhase:
    """Polynomial phase held as integer binomial numerators `num` over
    one denominator `den`.  `coeffs` are its exact coefficients in
    `basis`, derived from `den` and `num`."""

    __slots__ = ("basis", "exact", "den", "num")

    def __init__(self, coeffs, basis="binomial"):
        if basis not in ("binomial", "monomial"):
            raise InvalidArgumentError(f"unknown basis {basis!r}")
        raw = list(coeffs) or [0]
        den, num = _common([lift(c) for c in raw])
        self.basis = basis
        self.exact = not any(isinstance(c, float) for c in raw)
        self.den = den
        self.num = tuple(_bin_from_mono(num) if basis == "monomial" else num)

    @classmethod
    def _from_kernel(cls, den, num, basis, exact):
        phi = cls.__new__(cls)
        phi.basis, phi.exact, phi.den, phi.num = basis, exact, den, tuple(num)
        return phi

    @classmethod
    def monomial(cls, coeffs):
        return cls(coeffs, basis="monomial")

    @classmethod
    def binomial(cls, coeffs):
        return cls(coeffs, basis="binomial")

    @classmethod
    def constant(cls, c):
        return cls([c], basis="binomial")

    @classmethod
    def zero(cls):
        return cls([0])

    # -- basis views ---------------------------------------------------

    @property
    def coeffs(self):
        """Exact coefficients in `basis`."""
        if self.basis == "binomial":
            q, ps = self.den, self.num
        else:
            q, ps = self.den * factorial(self.declared_degree), _mono_from_bin(self.num)
        return tuple(Fraction(p, q) for p in ps)

    # -- structure -----------------------------------------------------

    @property
    def declared_degree(self):
        return len(self.num) - 1

    @property
    def degree(self):
        """Largest j whose binomial coefficient is nonzero mod 1, else 0.

        The binomial basis is the right diagnostic: a phase is integer
        valued on Z exactly when all its binomial coefficients are
        integers.
        """
        den = self.den
        return next((j for j in range(len(self.num) - 1, 0, -1) if self.num[j] % den), 0)

    def residue(self, n):
        """Numerator over `den` of the value at integer n, in [0, den)."""
        return _eval_num(self.num, n) % self.den

    def residues(self, P):
        """`residue` at every element of the progression P, in order."""
        return _values(self.num, P.base, P.step, P.len, self.den)

    def numerators(self, P):
        """Unreduced numerators over `den` of the values on P's elements."""
        return _values(self.num, P.base, P.step, P.len)

    def eval(self, n):
        """Value of the phase at integer n, reduced to [0, 1)."""
        return Fraction(self.residue(n), self.den)

    # -- arithmetic ----------------------------------------------------

    def __sub__(self, other):
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, -(den // other.den)
        a, b = self.num, other.num
        n = max(len(a), len(b))
        a += (0,) * (n - len(a))
        b += (0,) * (n - len(b))
        out = [x * fa + y * fb for x, y in zip(a, b)]
        return PolyPhase._from_kernel(den, out, self.basis, self.exact and other.exact)

    def compose_affine_frac(self, a, b):
        """Phase m -> self(a*m + b) for rational a, b (exact)."""
        a, b = lift(a), lift(b)
        q = lcm(a.denominator, b.denominator)
        den, num = self.den, self.num
        if q > 1:
            # phi(u / q) as a polynomial in u; then u = q*b + q*a*m below
            d = len(num) - 1
            mono = _mono_from_bin(num)
            num = _bin_from_mono([t * q ** (d - i) for i, t in enumerate(mono)])
            den *= factorial(d) * q**d
        out = _frame(num, int(b * q), int(a * q))
        return PolyPhase._from_kernel(den, out, self.basis, self.exact)

    # -- serialization -------------------------------------------------

    def to_json(self):
        if self.exact:
            cs = [f"{c.numerator}/{c.denominator}" for c in self.coeffs]
        else:
            cs = [repr(float(c)) for c in self.coeffs]
        return {"basis": self.basis, "coeffs": cs, "exact": self.exact}

    def __repr__(self):
        cs = ", ".join(str(c) if self.exact else repr(float(c)) for c in self.coeffs)
        return f"PolyPhase({self.basis}; {cs})"


# ---------------------------------------------------------------------
# Diameter on the circle


def circle_diam(values):
    """Exact supremum of pairwise circle distances of rationals mod 1
    (sorted antipode scan over common-denominator residues)."""
    den, num = _common(list(values))
    return Fraction(_diam_num([p % den for p in num], den, den), den)


def diam_on(phi, P):
    """Exhaustive diameter of the phase over the elements of P."""
    d = Fraction(_diam_num(phi.residues(P), phi.den, phi.den), phi.den)
    return d if phi.exact else float(d)


# ---------------------------------------------------------------------
# Constructive partitions


def _local_monomial(phi, Q):
    """Monomial numerators, over den * d! (d the declared degree), of
    t -> phi(base + t*step) on Q's index line."""
    return _mono_from_bin(_frame(phi.num, Q[0], Q[1]))


def _within(num, den, length, bound):
    """Whether the phase num / den has circle diameter at most the
    Fraction bound on [0, length)."""
    # an integer numerator w over den is at most the bound exactly when w <= limit
    limit = bound.numerator * den // bound.denominator
    return _diam_num(_values(num, 0, 1, length, den), den, limit) <= limit


def companion(phi, R):
    """The companion psi of phi on R, of degree below s = phi.degree (a
    constant when s is 0): the local monomial terms of phi on R below
    degree s, so phi - psi is the tail `_tail_fits` checks on R."""
    s = max(phi.degree, 1)
    loc = _local_monomial(phi, R)
    base, step, _ = R
    # psi(n) = sum_{i<s} loc[i] u^i / (den d!) with u = (n - base) / step,
    # an integer polynomial in n over den * d! * |step|^(s-1)
    size, sign = abs(step), (1 if step > 0 else -1)
    w = [c * size ** (s - 1 - i) for i, c in enumerate(loc[:s])]
    vals = [_horner(w, sign * (n - base)) for n in range(s)]
    den = phi.den * factorial(len(loc) - 1) * size ** (s - 1)
    return PolyPhase._from_kernel(den, _differences(vals), "monomial", phi.exact)


def _tail_fits(phi, s, dl, theta, tested, R):
    """Whether phi less its degree < s companion leaves a diameter of at
    most theta on the multi-point part R.  `tested` memoises the check on
    (tail, len), the only inputs it reads for fixed s, dl and theta; at
    the top degree the tail is the top monomial term alone, which depends
    only on the part's step, so equal blocks share one check and no local
    expansion is built for them."""
    _, step, n = R
    if s == phi.declared_degree:
        # the top monomial numerator over den * s! is num[s]; on R's index
        # line it is scaled by step^s
        tail = (phi.num[s] * step**s,)
    else:
        tail = tuple(_local_monomial(phi, R)[s:])
    # phi - psi on R is the local tail sum_{i>=s} tail[i-s] t^i
    key = (tail, n)
    if key not in tested:
        tested[key] = _within(_bin_from_mono([0] * s + list(tail)), dl, n, theta)
    return tested[key]


def _block_len(ratio_floor, s, length, n_w):
    """The block-length formula, data-driven and clamped to 1: the
    integer s-th root of floor(theta / eps0), capped at length // n_w."""
    return max(1, min(_iroot(ratio_floor, s), max(1, length // n_w)))


def reduce_degree_partition(phi, P, theta_target):
    """One degree level of the phase partition: [(R, state)] in base
    order, the parts R of P each paired with a zero-argument builder of
    `companion(phi, R)`, a phase of one lower degree that agrees with phi
    on R up to diameter theta_target (verified exhaustively).  A phase
    constant mod 1 has nothing left to reduce: [(P, None)].

    Weyl step: kill the leading local coefficient along a common
    difference n_w, then chop into blocks whose leading-term variation
    stays below the target.  Parts that fail the exhaustive check are
    halved until they pass (length-1 parts always do).  Nothing is
    checked here: the one caller, `reduce` in `partition_polyphase`,
    passes a P of at least 3 points and a theta_target in (0, 1/2] from
    the eps checked at entry.
    """
    theta = lift(theta_target)
    _, _, length = P
    s = phi.degree
    if s == 0:
        return [(P, None)]

    dl = phi.den * factorial(phi.declared_degree)  # local monomial denominator
    lead = _local_monomial(phi, P)[s]
    tn, td = theta.numerator, theta.denominator
    # Weyl step: scan common differences up to max(sqrt(len), 64) and
    # keep the one whose induced block length is largest (ties to the
    # smallest difference).  The sqrt bound alone misses exact rational
    # kills whose denominator lies between sqrt(len) and len.
    bound = max(1, min(length - 1, max(isqrt(length), 64)))
    n_w, ell = 1, 0
    for n in range(1, bound + 1):
        r = lead * n**s % dl
        v = min(r, dl - r)  # eps0 = ||lead * n^s|| = v / dl, floored at 2^-40
        if v << EPS0_FLOOR_BITS < dl:
            ratio_floor = (tn << EPS0_FLOOR_BITS) // td
        else:
            ratio_floor = tn * dl // (td * v)
        b = _block_len(ratio_floor, s, length, n)
        if b > ell:
            n_w, ell = n, b
        if ell >= length // n:
            break  # no larger difference can allow a longer block

    # a module-level check, not a closure: closing over s and dl would
    # turn them into cells and slow the Weyl scan above
    parts = repair(subdivide(P, n_w, ell), partial(_tail_fits, phi, s, dl, theta, {}))
    return [(R, partial(companion, phi, R)) for R in parts]


def partition_polyphase(phi, P, eps):
    """Certificate partition of P with exhaustive diam(phi) <= eps on
    every part.

    Recurses on the degree, giving degree j the budget
    eps * (6/pi^2) / j^2 so the telescoping sum of the per-level
    companions stays below eps; a part is emitted early whenever the
    true phase already satisfies the target on it, and adjacent parts
    are greedily re-merged under the exhaustive check afterwards.

    The residues of phi over P are walked once; every part's check and
    each merge trial reads its slice of them, and the check that keeps a
    part measures its witness.  A phase of degree at most 1 builds no
    residue list: a part's diameter depends only on its step and length,
    and is read from a prefix-maximum table (`_linear_diameters`).

    Cost model, checked against the work budget before anything is
    built: a residue list over P walks d + 1 difference levels per point
    (d the declared degree), and the recursion walks such lists once per
    degree level and once more for the checks and merge trials, so P costs
    len(P) * (d + 1)^2.
    """
    eps_f = lift(eps)
    if not 0 < eps_f <= HALF:
        raise PreconditionError("eps must lie in (0, 1/2]")
    check_budget(P, len(phi.num) ** 2)
    den = phi.den
    # an integer numerator w over den is at most eps exactly when w <= limit
    limit = eps_f.numerator * den // eps_f.denominator
    if phi.degree <= 1:
        diam_num = _linear_diameters(phi, limit)
    else:
        res = phi.residues(P)

        def diam_num(Q):
            return _diam_num(res[index_slice(P, Q)], den, limit)

    def reduce(build, Q):  # a state builds its phase, only for a part reduced
        phase = build()
        # the budget of degree s >= 1; every companion has a lower degree than its phase
        return reduce_degree_partition(phase, Q, eps_f * BUDGET_WEIGHT / max(phase.degree, 1) ** 2)

    parts, witnesses, _ = refine(P, lambda: phi, diam_num, limit, reduce)
    assert max(witnesses) <= limit
    return PartitionCertificate(
        source=P,
        parts=parts,
        epsilon=float(eps_f),
        # int / int rounds correctly: the same double as float(Fraction(w, den))
        diam_witness=[w / den for w in witnesses],
        channel="polyphase",
        payload={"phase": phi.to_json()},
    )
