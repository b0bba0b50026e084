"""Independent brute-force reference implementations.

Everything here re-derives results from first principles and shares no
logic with the construction modules it checks: phases are re-evaluated
by a local Horner evaluator on integers, circle diameters are sorted
sweeps and complex ones pairwise scans, Gowers norms are the literal
cube sums, and certificates are verified structurally by
element enumeration.  These are the oracles behind every derived test
value and behind `apinc verify`.

A nilsequence point is built from integers too: each coordinate is the
exact Horner value of its phase over the phase's denominator, reduced to
the fundamental domain in integers and rounded to float once.  The
verifier parses a channel once per certificate and evaluates nothing on a
one-point part, whose diameter is 0.  numpy is imported only where
arrays are used, by `brute_gowers` and the nilsequence diameter, so
verifying a phase certificate never loads it.
"""

import cmath
import itertools
import math
from fractions import Fraction

from .errors import BudgetExceededError, CertificateError, InvalidArgumentError, charge
from .progressions import INT_BOUND, Progression


# ---------------------------------------------------------------------
# AP counting


def brute_ap_count(A, k, nontrivial=True):
    """Count k-term APs in A by direct enumeration over (start, diff)."""
    members = sorted(set(A.members if hasattr(A, "members") else A))
    if len(members) > 10**4:
        raise BudgetExceededError("brute_ap_count limited to |A| <= 10^4")
    S = set(members)
    count = 0
    if not nontrivial:
        count += len(members)
    if len(members) < k:
        return count
    lo, hi = members[0], members[-1]
    for a in members:
        max_d = (hi - a) // (k - 1)
        for d in range(1, max_d + 1):
            if all(a + i * d in S for i in range(1, k)):
                count += 1
    return count


def max_ap_free(N, k=3):
    """Exact maximum size of a k-AP-free subset of [1..N], by
    branch-and-bound search (largest-element-first AP checks)."""
    if k < 3:
        raise InvalidArgumentError("k must be >= 3")
    if k == 3 and N > 30:
        raise BudgetExceededError("exhaustive tier limited to N <= 30 for k = 3")
    if N > 40:
        raise BudgetExceededError("exhaustive tier limited to N <= 40")

    best = 0
    chosen = []
    in_set = [False] * (N + 1)

    def extends_ap(n):
        # would n complete a k-AP as its largest element?
        for d in range(1, (n - 1) // (k - 1) + 1):
            if all(in_set[n - i * d] for i in range(1, k)):
                return True
        return False

    def dfs(n):
        nonlocal best
        if len(chosen) + (N - n + 1) <= best:
            return
        if n > N:
            best = max(best, len(chosen))
            return
        if not extends_ap(n):
            chosen.append(n)
            in_set[n] = True
            dfs(n + 1)
            in_set[n] = False
            chosen.pop()
        dfs(n + 1)

    dfs(1)
    return best


# ---------------------------------------------------------------------
# Gowers norms by literal cube summation


def brute_gowers(f, k):
    """U^k norm via the 2^k-fold cube sum, no FFT, no recursion."""
    import numpy as np

    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    values = np.asarray(f.values if hasattr(f, "values") else f, dtype=complex)
    M = len(values)
    charge(M ** (k + 1), f"cube sum of U^{k} on Z_{M}")
    idx = np.arange(M)
    total = 0.0 + 0.0j
    for hs in itertools.product(range(M), repeat=k):
        prod = np.ones(M, dtype=complex)
        for omega in itertools.product((0, 1), repeat=k):
            shift = sum(w * h for w, h in zip(omega, hs)) % M
            term = values[(idx + shift) % M]
            if sum(omega) % 2 == 1:
                term = np.conj(term)
            prod = prod * term
        total += prod.sum()
    avg = total.real / M ** (k + 1)
    return max(avg, 0.0) ** (1.0 / 2**k)


# ---------------------------------------------------------------------
# Independent channel evaluation (certificate verification)


def _phase_poly(ph):
    """Integer monomial coefficients T and denominator D of a serialized
    phase, phi(n) = sum_i T[i] n^i / D; a binomial phase's expansion is
    charged first, (d+1)^3 for its d+1 coefficients."""
    exact, basis, coeffs = ph.get("exact", True), ph["basis"], ph["coeffs"]
    if type(exact) is not bool:  # bool("false") is True: read no string or number as a flag
        raise InvalidArgumentError(f"exact must be a JSON boolean, got {exact!r}")
    # tuple() reads an object as its keys, a string as its characters, and Fraction(False) is 0
    if type(coeffs) is not list or not all(type(c) in (str, int, float) for c in coeffs):
        raise InvalidArgumentError(f"coeffs must be a JSON list of strings and numbers, got {coeffs!r}")
    if basis not in ("binomial", "monomial"):
        raise InvalidArgumentError(f"unknown phase basis {basis!r}")
    if basis == "binomial":
        charge(len(coeffs) ** 3, f"expansion of a binomial phase of {len(coeffs)} coefficients")
    cs = [Fraction(c) if exact else Fraction(float(c)) for c in coeffs]
    D = math.lcm(*(c.denominator for c in cs))
    nums = [c.numerator * (D // c.denominator) for c in cs]
    if basis == "monomial":
        return D, tuple(nums)
    # C(n, j) = n(n-1)...(n-j+1) / j!: expand over the denominator D * d!
    d = len(nums) - 1
    T = [0] * (d + 1)
    falling = [1]
    for j, a in enumerate(nums):
        if j:
            falling = [0] + falling
            for i in range(j):
                falling[i] -= (j - 1) * falling[i + 1]
        w = a * (math.factorial(d) // math.factorial(j))
        for i, c in enumerate(falling):
            T[i] += w * c
    return D * math.factorial(d), tuple(T)


def _horner(T, n):
    acc = 0
    for t in reversed(T):
        acc = acc * n + t
    return acc


def _circle_sweep(u, D):
    """Largest circle distance min(d, D - d), d = b - a, over pairs a < b
    of the sorted residues u in [0, D).  For each a the distance grows
    with b until b - a reaches D/2 and shrinks after, so only the two
    members around that crossing can win, and the crossing moves right
    as a does: one sweep."""
    best, j, n = 0, 0, len(u)
    for i, a in enumerate(u):
        j = max(j, i + 1)
        while j < n and 2 * (u[j] - a) < D:
            j += 1
        if j - 1 > i:
            best = max(best, u[j - 1] - a)
        if j < n:
            best = max(best, D - (u[j] - a))
    return best


def _torus_point(coords, n):
    return [(_horner(T, n) % D) / D for D, T in coords]


def _heisenberg_point(coords, n):
    """Fundamental-domain representative of the point (a/Dx, b/Dy, c/Dz):
    x and y reduced to [0,1) by right lattice multiplication, z corrected
    by the group law, z - x*floor(y), then reduced.  Each coordinate is an
    exact residue over its denominator, rounded to float once."""
    (Dx, Tx), (Dy, Ty), (Dz, Tz) = coords
    a, b, c = _horner(Tx, n), _horner(Ty, n), _horner(Tz, n)
    fy = b // Dy
    return (a % Dx) / Dx, (b % Dy) / Dy, ((c * Dx - a * fy * Dz) % (Dx * Dz)) / (Dx * Dz)


def _nil_value_fn(payload):
    """Parse a nilsequence payload once; returns (value, steps): value(n)
    is its function's complex value at the serialized point of n, and
    `steps` the Horner steps of its highest-degree phase, at least 1."""
    manifold, seq = payload["manifold"], payload["sequence"]["coords"]
    kind, dim = manifold["kind"], manifold.get("dim")
    if kind not in ("torus", "heisenberg"):
        raise InvalidArgumentError(f"unknown manifold kind {kind!r}")
    # one coordinate per dimension, three on Heisenberg; a bool is an int to Python
    if type(dim) is not int or dim != len(seq) or (kind == "heisenberg" and dim != 3):
        raise InvalidArgumentError(f"{kind} of dim {dim!r} with a sequence of {len(seq)} coordinates")
    coords = [_phase_poly(ph) for ph in seq]
    point = _torus_point if kind == "torus" else _heisenberg_point
    fn = payload["function"]
    prefactor = complex(fn.get("prefactor_re", 1.0), fn.get("prefactor_im", 0.0))
    factors = []
    for fac in fn["factors"]:
        coord, k, fkind = fac["coord"], fac.get("k", 1), fac["kind"]
        shift = float(fac.get("shift", 0.0))
        # a bool is an int to Python and a negative index reads from the end
        if type(coord) is not int or not 0 <= coord < len(coords):
            raise InvalidArgumentError(f"coord must be an integer in [0, {len(coords)}), got {coord!r}")
        if type(k) is not int:
            raise InvalidArgumentError(f"k must be an integer, got {k!r}")
        if fkind not in ("bump", "exp", "exp_re", "exp_im"):
            raise InvalidArgumentError(f"unknown factor kind {fkind!r}")
        # |u + shift| <= 1 + |shift|: when this bound on the argument is
        # finite, no point's argument overflows into a NaN value or an error
        scale = math.pi if fkind == "bump" else 2 * math.pi * abs(k)
        if not math.isfinite(scale * (1 + abs(shift))):
            raise InvalidArgumentError(f"factor argument overflows: k={k!r}, shift={shift!r}")
        factors.append((coord, fkind, 2j * math.pi * k, shift))
    # a NaN value hides from the pairwise scan's max()
    if not cmath.isfinite(prefactor):
        raise InvalidArgumentError(f"prefactor must be finite, got {prefactor!r}")

    def value(n):
        u = point(coords, n)
        val = prefactor
        for coord, fkind, freq, shift in factors:
            x = u[coord] + shift
            if fkind == "bump":
                val *= math.cos(math.pi * x) ** 2
            else:
                w = cmath.exp(freq * x)
                val *= w if fkind == "exp" else w.real if fkind == "exp_re" else w.imag
        return val

    return value, max([1] + [len(T) - 1 for _, T in coords])


def _parse_channel(channel_payload, channel):
    """Parse a serialized channel; returns (diam, steps, pairwise):
    diam(ns) is its exhaustive diameter over the points ns, `steps` the
    work units of one point, the Horner steps of its highest-degree
    phase, at least 1, and `pairwise` whether diam scans every pair.

    Polyphase channel: circle metric, exact sorted sweep over integer
    residues.  Nilsequence channel: complex-modulus metric, pairwise scan.
    """
    if channel == "polyphase":
        D, T = _phase_poly(channel_payload["phase"])
        steps = max(1, len(T) - 1)
        return lambda ns: Fraction(_circle_sweep(sorted({_horner(T, n) % D for n in ns}), D), D), steps, False
    if channel == "nilsequence":
        import numpy as np

        value, steps = _nil_value_fn(channel_payload)

        def diam(ns):
            vals = np.array([value(n) for n in ns])
            best = 0.0
            for i in range(len(vals)):
                best = max(best, float(np.max(np.abs(vals[i:] - vals[i]))))
            return best

        return diam, steps, True
    raise InvalidArgumentError(f"unknown channel {channel!r}")


def brute_diam(chan, P):
    """Exhaustive diameter of a parsed channel over a progression.

    Charges `P.len` points of `steps` units each (`_parse_channel`) and,
    on a pairwise channel, `L(L-1)/2` pairs against the work budget.
    The points are walked, never listed; the phase channel holds the
    distinct residues, the nilsequence channel the `L` values.
    """
    diam, steps, pairwise = chan
    charge(P.len * steps, f"diameter over {P.len} points")
    if pairwise:
        charge(P.len * (P.len - 1) // 2, "pairwise nilsequence diameter")
    return diam(range(P.base, P.base + P.len * P.step, P.step))


# ---------------------------------------------------------------------
# Certificate verification

VERIFY_TOL = 2.0**-30


def _triple(obj):
    """(base, step, len) of a serialized progression, with the checks a
    `Progression` makes: integer fields (a bool, float or string is
    refused, never rounded), len >= 1, step != 0, and base, step and the
    last element inside the 64-bit range."""
    base, step, n = obj["base"], obj["step"], obj["len"]
    if not (type(base) is type(step) is type(n) is int):
        raise InvalidArgumentError(f"base, step and len must be integers, got {(base, step, n)!r}")
    if n < 1:
        raise InvalidArgumentError(f"len must be >= 1, got {n}")
    if not step:
        raise InvalidArgumentError("step must be nonzero")
    for x in base, step, base + (n - 1) * step:
        if not -INT_BOUND <= x < INT_BOUND:
            raise InvalidArgumentError(f"integer {x} outside the checked 64-bit range")
    return base, step, n


def _holds(base, step, n, x):
    """Whether x is an element of the progression (base, step, n)."""
    q, r = divmod(x - base, step)
    return r == 0 and 0 <= q < n


def verify_certificate(cert):
    """Re-verify a certificate JSON object from scratch; a
    `PartitionCertificate` is read through `to_json`, as the bytes the
    CLI writes.

    Checks disjointness, exact coverage of the source, the minimum part
    length, and recomputes every diameter witness with the independent
    channel evaluator, parsed once, after charging the source's points
    as `brute_diam` does and a pairwise channel's scans (L(L-1)/2 per
    part of length L) against the work budget.  The source and the parts
    are read as integer triples (base, step, len); only a multi-point
    part becomes a `Progression`, for `brute_diam`.  A one-point part's
    diameter is 0 without evaluation; its witness is still compared.
    Raises CertificateError with a machine-readable reason on the first
    violation ("malformed-certificate" when a field it reads is missing,
    unreadable, not finite or of another JSON type, a phase basis is
    unknown, a count, progression field, factor coord or k is not an
    integer, or a progression is empty, has step 0 or leaves the 64-bit
    range); returns a report dict on success.
    """
    try:  # every field read below, parsed up front
        if hasattr(cert, "to_json"):  # the object as the CLI writes it
            cert = cert.to_json()
        B, S, N = _triple(cert["source"])
        parts = [_triple(p) for p in cert["parts"]]
        stored, eps = [p["diam"] for p in cert["parts"]], cert["epsilon"]
        # float() reads true and "0.05"; NaN and infinity pass every comparison below
        if not all(type(x) in (int, float) and math.isfinite(x) for x in [eps, *stored]):
            raise InvalidArgumentError("epsilon and every diam must be finite JSON numbers")
        eps, stored, min_len = float(eps), [float(w) for w in stored], cert["min_len"]
        if type(min_len) is not int:
            raise InvalidArgumentError(f"min_len must be an integer, got {min_len!r}")
        channel, payload = cert.get("channel", "polyphase"), cert["payload"]
        chan = diam, steps, pairwise = _parse_channel(payload, channel)
        diam([B])  # one value evaluated
    except (
        InvalidArgumentError, LookupError, TypeError, ValueError, AttributeError, ArithmeticError
    ) as e:
        raise CertificateError("malformed-certificate", f"unreadable certificate: {e!r}") from e
    charge(N * steps, f"verification of {N} points")

    # disjoint parts inside the source hold at most N points, so the
    # walks stop one point past that: a huge bogus part costs about N
    # points and is refused as coverage-excess below
    covered = bytearray(N)  # covered[q]: source point B + q*S lies in a part walked so far
    walked, excess = 0, None  # excess: the smallest walked point outside the source
    for pi, (b, s, n) in enumerate(parts):
        n = min(n, N + 1 - walked)
        walked += n
        if n == 1:  # one index; a point to refuse is walked below, for the same message
            q, r = divmod(b - B, S)
            if not r and 0 <= q < N and not covered[q]:
                covered[q] = 1
                continue
        for x in range(b, b + n * s, s):
            q, r = divmod(x - B, S)
            if r or not 0 <= q < N:
                excess = x if excess is None else min(excess, x)
            elif covered[q]:
                # every earlier part was walked whole, so the first
                # part that holds x is the one that marked it
                first = next(j for j, (b2, s2, n2) in enumerate(parts) if _holds(b2, s2, n2, x))
                raise CertificateError(
                    "parts-not-disjoint", f"element {x} appears in parts {first} and {pi}"
                )
            else:
                covered[q] = 1
    if excess is not None:
        raise CertificateError("coverage-excess", f"element {excess} lies outside the source")
    # the smallest uncovered point has the lowest index iff the step is positive
    q = covered.find(0) if S > 0 else covered.rfind(0)
    if q >= 0:
        raise CertificateError("coverage-gap", f"element {B + q * S} is not covered by any part")

    for pi, (_, _, n) in enumerate(parts):
        if n < min_len:
            raise CertificateError("min-len-violated", f"part {pi} has length {n} < {min_len}")

    if pairwise:  # brute_diam scans every pair of a part
        charge(sum(n * (n - 1) // 2 for _, _, n in parts), "pairwise nilsequence diameters")

    witnesses = []
    for pi, ((b, s, n), w) in enumerate(zip(parts, stored)):
        # a one-point part has diameter 0: its witness is still compared
        d = float(brute_diam(chan, Progression(b, s, n))) if n > 1 else 0.0
        if d > eps + VERIFY_TOL:
            raise CertificateError(
                "diam-exceeds-epsilon",
                f"part {pi} has exhaustive diameter {d} > epsilon {eps}",
            )
        if abs(d - w) > VERIFY_TOL:
            raise CertificateError(
                "witness-mismatch",
                f"part {pi}: stored witness {w}, recomputed {d}",
            )
        witnesses.append(d)
    return {
        "ok": True,
        "channel": channel,
        "num_parts": len(parts),
        "min_len": min(n for _, _, n in parts),
        "max_diam": max(witnesses),
    }
