"""Explicit nilmanifolds, polynomial sequences, and nilsequence
partitions with exhaustive diameter certificates.

Two families are supported with their standard integer lattices:

  * the torus T^d = R^d / Z^d, whose points we store as coordinates in
    [0,1)^d with the max-of-circle-distances metric;
  * the Heisenberg quotient, upper triangular unipotent 3x3 matrices
    parameterized as (x, y, z) with group law
        (x,y,z) * (x',y',z') = (x+x', y+y', z+z'+x*y'),
    modulo the integer lattice on the right.  The fundamental-domain
    representative of (x,y,z) is ({x}, {y}, frac(z - x*floor(y))) —
    reduce y, then x, correcting z through the group law — and the
    metric is again the max of coordinate circle distances.

A polynomial sequence assigns each coordinate an exact-coefficient
polynomial: torus coordinates are phases (only their values mod 1
matter) while Heisenberg coordinates are genuine real polynomials,
because the z-correction x*floor(y) sees the integer parts.  Lipschitz
functions come from a small catalog of products of per-coordinate
periodic factors — complex exponentials e(k*u), their real and
imaginary parts, and the bump cos^2(pi*u) — times a 1-bounded
prefactor; since each factor is periodic in its coordinate, the value
at a group element equals the value at its reduced representative.

The dimension-reduction step exploits exactly this product structure:
partition P so the pivot coordinate's phase is nearly constant, freeze
the pivot factors at their value on each part, and recurse on the
remaining factors — a function of strictly fewer coordinates, read at
the same points of the same manifold.  `reduce_dimension` is one such
level, and it keeps the phase channel's contract
(`polyphase.reduce_degree_partition`): it returns the (part, next
state) pairs that `progressions.refine` consumes.  Every claimed
deviation and every certificate diameter is re-checked exhaustively.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import (
    InvalidArgumentError,
    PreconditionError,
    UnsupportedManifoldError,
)
from . import polyphase
from .polyphase import PolyPhase, lift
from .progressions import PartitionCertificate, Progression, check_budget, index_slice, refine, repair

TWO_PI = 2.0 * math.pi
# how far float rounding may lift a nilsequence witness above eps: the
# partition asserts every witness is within it, and measures up to it
WITNESS_SLACK = 2**-35


# ---------------------------------------------------------------------
# Manifolds


@dataclass(frozen=True)
class Nilmanifold:
    kind: str  # "torus" | "heisenberg"
    dim: int

    @classmethod
    def torus(cls, d):
        if d < 0:
            raise InvalidArgumentError("torus dimension must be >= 0")
        return cls("torus", d)

    @classmethod
    def heisenberg(cls):
        return cls("heisenberg", 3)

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim}


# ---------------------------------------------------------------------
# Polynomial sequences


@dataclass(frozen=True)
class PolySequence:
    """One polynomial per Mal'cev coordinate of the manifold.

    Torus coordinates are phases; Heisenberg coordinates are real
    polynomials (deg x, y <= s, deg z <= 2s for a degree-s sequence).
    """

    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(coords))

    @classmethod
    def torus_linear(cls, alphas):
        return cls([PolyPhase.monomial([0, a]) for a in alphas])

    def float_points(self, Mf, P):
        """Fundamental-domain coordinates of g(n)Gamma at every element
        n of P, as floats: computed on the integer numerators and divided
        only at the end."""
        if Mf.kind != "heisenberg":
            return _phase_points(self.coords, P)
        x, y, z = self.coords
        dx, dy, dz = x.den, y.den, z.den
        out = []
        # the representative ({x}, {y}, {z - x*floor(y)}): only {x}
        # enters the z correction mod 1
        for a, b, c in zip(x.residues(P), y.numerators(P), z.residues(P)):
            fy = b // dy
            zc = (c * dx - a * fy * dz) % (dx * dz)
            out.append((a / dx, (b - fy * dy) / dy, zc / (dx * dz)))
        return out

    def to_json(self):
        return {"coords": [c.to_json() for c in self.coords]}


# ---------------------------------------------------------------------
# Lipschitz function catalog

_FACTOR_LIPSCHITZ = {"exp": TWO_PI, "exp_re": TWO_PI, "exp_im": TWO_PI, "bump": math.pi}


@dataclass(frozen=True)
class Factor:
    coord: int
    kind: str  # "exp" | "exp_re" | "exp_im" | "bump"
    k: int = 1
    shift: float = 0.0

    def value(self, u):
        u = float(u) + self.shift
        if self.kind == "bump":
            return math.cos(math.pi * u) ** 2
        w = cmath.exp(2j * math.pi * self.k * u)
        if self.kind == "exp":
            return w
        if self.kind == "exp_re":
            return w.real
        if self.kind == "exp_im":
            return w.imag
        raise InvalidArgumentError(f"unknown factor kind {self.kind!r}")

    @property
    def lipschitz(self):
        return _FACTOR_LIPSCHITZ[self.kind] * max(abs(self.k), 1)


@dataclass(frozen=True)
class LipschitzFunction:
    """Product of periodic per-coordinate factors times a 1-bounded
    prefactor; Lipschitz constant (max-of-circle-distances metric) is
    the sum of factor constants, since each factor is 1-bounded."""

    name: str
    factors: tuple
    prefactor: complex = 1.0 + 0.0j

    def __post_init__(self):
        if abs(self.prefactor) > 1 + 2**-40:
            raise InvalidArgumentError("prefactor must be 1-bounded")

    @property
    def lipschitz(self):
        return float(sum(f.lipschitz for f in self.factors))

    def coord_lipschitz(self, coord):
        return float(sum(f.lipschitz for f in self.factors if f.coord == coord))

    @property
    def used_coords(self):
        return sorted({f.coord for f in self.factors})

    def value(self, coords):
        val = complex(self.prefactor)
        for f in self.factors:
            val *= f.value(coords[f.coord])
        return val

    def freeze(self, coord, u):
        """Fold the factors on `coord` into the prefactor at value u; the
        other factors keep their coordinates."""
        pref = complex(self.prefactor)
        kept = []
        for f in self.factors:
            if f.coord == coord:
                pref *= f.value(u)
            else:
                kept.append(f)
        # folding 1-bounded factors cannot push |pref| above 1; guard fp fuzz
        if abs(pref) > 1:
            pref /= abs(pref) * (1 + 2**-50)
        return LipschitzFunction(f"{self.name}|frozen", tuple(kept), pref)

    def to_json(self):
        return {
            "name": self.name,
            "prefactor_re": self.prefactor.real,
            "prefactor_im": self.prefactor.imag,
            "factors": [
                {"coord": f.coord, "kind": f.kind, "k": f.k, "shift": f.shift}
                for f in self.factors
            ],
        }


_COORD_NAMES = {"x": 0, "y": 1, "z": 2}


def lipschitz_catalog(name):
    """Built-in 1-bounded functions by name.

    Names: "const"; "e(x)", "e(y)", "e(z)" (and re-/im- prefixed
    variants); "bump(x)", "bump(y)"; "e(x)*cutoff" = e(x) * cos^2(pi y).
    """
    if name == "const":
        return LipschitzFunction("const", ())
    if name == "e(x)*cutoff":
        return LipschitzFunction(name, (Factor(0, "exp"), Factor(1, "bump")))
    for prefix, kind in (("re-e(", "exp_re"), ("im-e(", "exp_im"), ("e(", "exp")):
        if name.startswith(prefix) and name.endswith(")"):
            var = name[len(prefix) : -1]
            if var in _COORD_NAMES:
                return LipschitzFunction(name, (Factor(_COORD_NAMES[var], kind),))
    if name.startswith("bump(") and name.endswith(")"):
        var = name[5:-1]
        if var in _COORD_NAMES:
            return LipschitzFunction(name, (Factor(_COORD_NAMES[var], "bump"),))
    raise InvalidArgumentError(f"unknown catalog function {name!r}")


def _check_compat(Mf, g, F):
    if Mf.kind == "torus":
        if len(g.coords) != Mf.dim:
            raise InvalidArgumentError("sequence/manifold dimension mismatch")
        bad = [c for c in F.used_coords if c >= Mf.dim]
    else:
        if len(g.coords) != 3:
            raise InvalidArgumentError("Heisenberg sequences need 3 coordinates")
        # only x and y support functions that are well-defined through
        # the product-of-periodic-factors catalog on the quotient
        bad = [c for c in F.used_coords if c >= 2]
    if bad:
        raise UnsupportedManifoldError(
            f"function uses coordinate {bad[0]} unavailable on {Mf.kind}(dim {Mf.dim})"
        )


def _phase_points(phases, P):
    """Float residues of the phases at every element of P, one tuple
    per element."""
    if not phases:
        return [()] * P.len
    return list(zip(*([r / c.den for r in c.residues(P)] for c in phases)))


def nil_values(Mf, g, F, P):
    _check_compat(Mf, g, F)
    return np.array([F.value(u) for u in g.float_points(Mf, P)])


def convex_hull(vals):
    """Vertices of the convex hull of a complex point set, by Andrew's
    monotone chain (A. M. Andrew, IPL 9(5), 1979) over the distinct
    points sorted by real then imaginary part.  A turn that is not
    strictly left drops its middle point, so duplicate and collinear
    points need no second path: a collinear cloud keeps its two ends,
    a single point itself."""
    u = np.unique(vals)  # numpy orders complex values by real, then imaginary part
    pts = list(zip(u.real.tolist(), u.imag.tolist()))

    def chain(rows):
        h = []
        for x, y in rows:
            while len(h) > 1 and (
                (h[-1][0] - h[-2][0]) * (y - h[-2][1]) - (h[-1][1] - h[-2][1]) * (x - h[-2][0])
                <= 0
            ):
                h.pop()
            h.append((x, y))
        return h

    # the lower chain runs first to last point, the upper one back
    return np.array([complex(x, y) for x, y in chain(pts) + chain(pts[::-1])[1:-1]])


def complex_diam(vals, limit):
    """Exhaustive diameter of a complex point set (pairwise sup), exact
    when it is at most `limit`, and otherwise some pairwise distance
    above `limit` (pass math.inf for the exact value)."""
    vals = np.asarray(vals)
    if len(vals) > 1200:  # the diameter is attained on the convex hull
        reach = float(np.max(np.abs(vals - vals[0])))
        if reach > limit:  # a set that fails by its first point's reach builds no hull
            return reach
        vals = convex_hull(vals)
    best = 0.0
    for i in range(len(vals) - 1):
        best = max(best, float(np.max(np.abs(vals[i + 1 :] - vals[i]))))
        if best > limit:
            break
    return best


def _pair_distances(vals, s):
    """|vals[i + s] - vals[i]| for every i, as floats: the operations
    `complex_diam` performs on those two points, so each value is the
    pair's diameter bit for bit (Python's abs(complex) is not)."""
    return np.abs(vals[s:] - vals[:-s]).tolist()


# ---------------------------------------------------------------------
# Dimension reduction and the nilsequence partition


def reduce_dimension(Mf, g, F, P, eps):
    """One dimension level of the nilsequence partition: [(R, state)] in
    base order, the parts R of P each paired with a zero-argument builder
    of F_R, a function of one coordinate fewer whose nilsequence
    F_R(g(n)Gamma) agrees with F(g(n)Gamma) on R to within eps; state is
    None when F_R has no factor left to freeze.  A function with no
    factors has nothing to reduce: [(P, None)].  Every level reads the
    same manifold and sequence and checks nothing: the caller checked
    (Mf, g, F) and eps at the root and passes eps / dim, at most 1/2, and
    a frozen function uses a subset of F's coordinates.

    Pivot on the first coordinate F uses; partition P so the pivot
    coordinate phase moves by at most eps / L_pivot, then freeze the
    pivot factors at their value at each part's base point, only when
    the state is built.  Since the catalog functions are products of
    periodic per-coordinate factors, the deviation bound
    |F - F_frozen| <= L_pivot * coordinate-distance is exact; it is still
    re-checked exhaustively, with halving repair.  Whether a state is
    None is the same for every part: F's factors off the pivot do not
    depend on the part.
    """
    eps_f = lift(eps)
    if not F.factors:  # the only functions on a 0-dimensional manifold
        return [(P, None)]

    pivot = F.factors[0].coord
    Lp = F.coord_lipschitz(pivot)
    target = min(eps_f / lift(Lp), Fraction(1, 2))
    pivot_phase = g.coords[pivot]
    # read through the module, never bound here: nil is imported on first
    # use, and a name bound while a tracer had patched polyphase would
    # keep the wrapper after the module is restored (engine does the same)
    cert = polyphase.partition_polyphase(pivot_phase, Progression(*P), target)

    def frozen(R):
        return F.freeze(pivot, pivot_phase.residue(R[0]) / pivot_phase.den)

    def fits(R):
        F2 = frozen(R)
        points = g.float_points(Mf, Progression(*R))
        dev = max(abs(F.value(u) - F2.value(u)) for u in points)
        return dev <= float(eps_f) + 2**-30

    live = any(f.coord != pivot for f in F.factors)
    return [(R, partial(frozen, R) if live else None) for R in repair(cert.parts, fits)]


def partition_nilsequence(Mf, g, F, P, eps):
    """Certificate partition of P with exhaustive diameter of
    n -> F(g(n)Gamma) at most eps on every part (complex modulus).

    Induction on the dimension: each level gets deviation budget
    eps / dim(Mf) and freezes one coordinate via reduce_dimension, so
    the per-part value diameter — a sum of per-coordinate oscillations
    — telescopes below eps.  Parts whose true values already fit are
    emitted early, and adjacent parts are re-merged under the
    exhaustive check.  The values over P are computed once; every
    part's check and each merge trial reads its slice, a two-point part
    reads its distance from a table of one stride's pair distances, and
    the check that keeps a part measures its witness.

    Cost model, checked against the work budget before anything is
    built: one point costs c = 1 + sum_j (d_j + 1), the difference
    levels of every coordinate phase plus F, and the recursion evaluates
    it at most once per coordinate and once more for the checks and
    merge trials, so P costs len(P) * c^2.  That also covers the phase
    partition each level runs on its pivot coordinate.  The pair tables
    keep one float per source point per distinct stride of a two-point
    part, and are built only for the strides read.
    """
    _check_compat(Mf, g, F)
    eps_f = lift(eps)
    if not 0 < eps_f <= Fraction(1, 2):
        raise PreconditionError("eps must lie in (0, 1/2]")
    check_budget(P, (1 + sum(len(c.num) for c in g.coords)) ** 2)
    d0 = max(Mf.dim, 1)
    level_eps = eps_f / d0
    eps_val = float(eps_f)
    vals = nil_values(Mf, g, F, P)

    def diam(Q):
        # exact up to the slack the witness check allows, so a None-state
        # part kept a float rounding above eps still records its diameter
        return complex_diam(vals[index_slice(P, Q)], eps_val + WITNESS_SLACK)

    strides = {}  # s -> _pair_distances(vals, s), built on first use

    def pair(Q):
        s = Q[1] // P.step
        if s not in strides:
            strides[s] = _pair_distances(vals, s)
        return strides[s][(Q[0] - P.base) // P.step]

    def reduce(build, Q):  # a state builds its function, only for a part reduced
        # the module global, read at call time: a tracer's wrapper sees the call
        return reduce_dimension(Mf, g, build(), Q, level_eps)

    # a function with no factors is constant: refine keeps P at diameter 0
    parts, witnesses, max_depth = refine(P, lambda: F, diam, pair, eps_val, reduce)
    assert all(w <= eps_val + WITNESS_SLACK for w in witnesses)
    return PartitionCertificate(
        source=P,
        parts=parts,
        epsilon=eps_val,
        diam_witness=[float(w) for w in witnesses],
        channel="nilsequence",
        payload={
            "manifold": Mf.to_json(),
            "sequence": g.to_json(),
            "function": F.to_json(),
            "depth": max_depth,
        },
    )
