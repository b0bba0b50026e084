import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apinc.errors import (
    BudgetExceededError,
    InvalidArgumentError,
    UnsupportedManifoldError,
)
from apinc.nil import (
    Factor,
    LipschitzFunction,
    Nilmanifold,
    PolySequence,
    complex_diam,
    convex_hull,
    lipschitz_catalog,
    nil_values,
    partition_nilsequence,
    reduce_dimension,
)
from apinc import nil
from apinc.oracle import _nil_value_fn, verify_certificate
from apinc.polyphase import PolyPhase, companion, reduce_degree_partition
from apinc.progressions import Progression

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=32)


# Exact references: the reduced point of g(n)Gamma and F there, in Fractions


def real_value(phi, n):
    """phi(n) without the mod-1 reduction, from the exact coefficients
    it was entered with: sum c_j n^j, or sum c_j C(n, j) with C(n, j)
    the falling factorial over j!."""
    if phi.basis == "monomial":
        return sum(c * n**j for j, c in enumerate(phi.coeffs))
    return sum(
        c * math.prod(range(n - j + 1, n + 1)) / math.factorial(j)
        for j, c in enumerate(phi.coeffs)
    )


def heisenberg_reduce(x, y, z):
    """Fundamental-domain representative ({x}, {y}, {z - x*floor(y)}) of
    (x,y,z)Gamma, exact."""
    fy = math.floor(y)
    zc = z - x * fy
    return (x - math.floor(x), y - fy, zc - math.floor(zc))


def point(Mf, g, n):
    """Fundamental-domain coordinates of g(n)Gamma, exact Fractions."""
    values = [real_value(c, n) for c in g.coords]
    if Mf.kind == "torus":
        return tuple(v - math.floor(v) for v in values)
    return heisenberg_reduce(*values)


def nil_eval(Mf, g, F, n):
    return F.value(point(Mf, g, n))


def group_law(a, b):
    """(x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y') in the Heisenberg group."""
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


class TestGroupLaw:
    @given(coords=st.tuples(*[rationals] * 3), lat=st.tuples(*[st.integers(-3, 3)] * 3))
    @settings(max_examples=150, deadline=None)
    def test_reduce_is_orbit_invariant(self, coords, lat):
        # right multiplication by a lattice element leaves the reduced
        # representative unchanged
        moved = group_law(coords, lat)
        assert heisenberg_reduce(*moved) == heisenberg_reduce(*coords)

    def test_reduce_in_box(self):
        x, y, z = heisenberg_reduce(Fraction(7, 3), Fraction(-5, 4), Fraction(9, 7))
        for c in (x, y, z):
            assert 0 <= c < 1


def elements(Q):
    """The elements of the part Q = (base, step, len), in index order."""
    base, step, n = Q
    return [base + i * step for i in range(n)]


def read_back(Mf, g, F, P):
    """Values at P's elements of the serialized (Mf, g, F), as the
    verifier, their one reader, evaluates them."""
    value, _ = _nil_value_fn({"manifold": Mf.to_json(), "sequence": g.to_json(), "function": F.to_json()})
    return np.array([value(n) for n in P.elements()])


class TestManifold:
    def test_json_roundtrip(self):
        P = Progression(-30, 7, 40)
        g = PolySequence([PolyPhase.binomial([0, SQRT2, 0.3]), PolyPhase.monomial([0, SQRT3]),
                          PolyPhase.monomial([Fraction(1, 5), Fraction(1, 3), Fraction(1, 7)])])
        F = lipschitz_catalog("e(x)*cutoff")
        for Mf in (Nilmanifold.torus(3), Nilmanifold.heisenberg()):
            assert np.array_equal(read_back(Mf, g, F, P), nil_values(Mf, g, F, P))


class TestSequencesAndEval:
    def test_torus_rotation_fourth_roots(self):
        Mf = Nilmanifold.torus(1)
        g = PolySequence.torus_linear([Fraction(1, 4)])
        F = lipschitz_catalog("e(x)")
        vals = nil_values(Mf, g, F, Progression(0, 1, 4))
        expect = [1, 1j, -1, -1j]
        assert all(abs(v - e) < 1e-12 for v, e in zip(vals, expect))

    def test_heisenberg_z_sees_integer_parts(self):
        # g(n) = (n/2, n/2, 0): the reduced z-coordinate depends on
        # floor(y), so it is not a function of the coordinates mod 1
        Mf = Nilmanifold.heisenberg()
        g = PolySequence(
            [
                PolyPhase.monomial([0, Fraction(1, 2)]),
                PolyPhase.monomial([0, Fraction(1, 2)]),
                PolyPhase.zero(),
            ]
        )
        p1, p3 = g.float_points(Mf, Progression(1, 2, 2))
        assert (p1[0], p1[1]) == (p3[0], p3[1])  # same abelian part
        assert p1[2] != p3[2]  # different z after reduction

    def test_point_matches_direct_reduction(self):
        Mf = Nilmanifold.heisenberg()
        g = PolySequence(
            [
                PolyPhase.monomial([0, Fraction(2, 7)]),
                PolyPhase.monomial([0, 0, Fraction(3, 5)]),
                PolyPhase.monomial([0, Fraction(1, 3)]),
            ]
        )
        want = [
            tuple(float(u) for u in heisenberg_reduce(*(real_value(c, n) for c in g.coords)))
            for n in range(8)
        ]
        assert g.float_points(Mf, Progression(0, 1, 8)) == want

    @given(
        coeffs=st.lists(
            st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=40), min_size=1, max_size=3),
            min_size=3,
            max_size=3,
        ),
        base=st.integers(-1000, 1000),
        step=st.integers(-9, 9).filter(bool),
        length=st.integers(1, 12),
        kind=st.sampled_from(["heisenberg", "torus"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_float_points_match_point(self, coeffs, base, step, length, kind):
        # the integer walk along P agrees with the exact point at each n
        Mf = Nilmanifold.heisenberg() if kind == "heisenberg" else Nilmanifold.torus(3)
        g = PolySequence([PolyPhase.monomial(c) for c in coeffs])
        P = Progression(base, step, length)
        want = [tuple(float(u) for u in point(Mf, g, n)) for n in P.elements()]
        assert g.float_points(Mf, P) == want

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            nil_values(
                Nilmanifold.torus(2), PolySequence([PolyPhase.zero()]), lipschitz_catalog("const"),
                Progression(1, 1, 1),
            )


class TestLipschitzFunctions:
    def test_catalog_names(self):
        for name in ("const", "e(x)", "e(y)", "e(z)", "re-e(x)", "im-e(y)",
                      "bump(x)", "bump(y)", "e(x)*cutoff"):
            F = lipschitz_catalog(name)
            assert isinstance(F, LipschitzFunction)

    def test_unknown_name(self):
        with pytest.raises(InvalidArgumentError):
            lipschitz_catalog("e(w)")

    def test_cutoff_value(self):
        F = lipschitz_catalog("e(x)*cutoff")
        v = F.value((0.25, 0.25))
        assert abs(v - 1j * math.cos(math.pi * 0.25) ** 2) < 1e-12

    def test_lipschitz_constants(self):
        assert lipschitz_catalog("e(x)").lipschitz == 2 * math.pi
        assert lipschitz_catalog("bump(y)").lipschitz == math.pi
        F = lipschitz_catalog("e(x)*cutoff")
        assert F.lipschitz == 2 * math.pi + math.pi
        assert F.coord_lipschitz(0) == 2 * math.pi

    @given(
        u=st.floats(0, 1, exclude_max=True),
        v=st.floats(0, 1, exclude_max=True),
        w1=st.floats(0, 1, exclude_max=True),
        w2=st.floats(0, 1, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_lipschitz_bound_sampled(self, u, v, w1, w2):
        F = lipschitz_catalog("e(x)*cutoff")
        # max of the coordinate circle distances on the 2-torus
        d = max(min(abs(a - b), 1 - abs(a - b)) for a, b in ((u, v), (w1, w2)))
        assert abs(F.value((u, w1)) - F.value((v, w2))) <= F.lipschitz * d + 1e-9

    def test_freeze_folds_and_keeps_coordinates(self):
        F = lipschitz_catalog("e(x)*cutoff")
        F2 = F.freeze(0, 0.25)  # e(1/4) = i folded into the prefactor
        assert abs(F2.prefactor - 1j) < 1e-12
        # the bump on y is kept as it was, coordinate 1 included
        assert F2.factors == (F.factors[1],)
        # F2 reads the same point F reads, whatever its frozen coordinate holds
        for x in (0.25, 0.7):
            assert abs(F2.value((x, 0.5)) - F.value((0.25, 0.5))) < 1e-12

    def test_bounded_everywhere(self):
        F = lipschitz_catalog("e(x)*cutoff")
        for u in np.linspace(0, 1, 23, endpoint=False):
            for v in np.linspace(0, 1, 23, endpoint=False):
                assert abs(F.value((u, v))) <= 1 + 1e-12

    def test_json_roundtrip(self):
        # a frozen function keeps its prefactor and its factor on y
        F = lipschitz_catalog("e(x)*cutoff").freeze(0, 0.3)
        Mf, g = Nilmanifold.torus(2), PolySequence.torus_linear([SQRT2, SQRT3])
        P = Progression(1, 1, 30)
        assert np.array_equal(read_back(Mf, g, F, P), nil_values(Mf, g, F, P))


def pairwise_diam(vals):
    """The largest |a - b| over all pairs, with no hull and no early exit."""
    return max(float(np.max(np.abs(vals - a))) for a in vals)


def assert_limit_aware(got, exact, limit):
    """A diameter exact when it is at most `limit`, and otherwise in
    (limit, exact]: a distance between two of the points."""
    if exact <= limit:
        assert got == exact
    else:
        assert limit < got <= exact


class TestComplexDiam:
    def test_small_exact(self):
        assert complex_diam([1, -1], math.inf) == 2.0
        assert complex_diam([1 + 0j], math.inf) == 0.0

    def test_hull_path_matches_pairwise(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        brute = max(
            abs(a - b) for a in vals[::97] for b in vals[::97]
        )  # subsample lower bound
        d = complex_diam(vals, math.inf)
        full = 0.0
        for i in range(0, len(vals), 1):
            full = max(full, float(np.max(np.abs(vals[i:] - vals[i]))))
        assert abs(d - full) < 1e-9
        assert d >= brute - 1e-9

    def test_collinear_cloud(self):
        vals = np.linspace(-3, 7, 2000) * (1 + 1j) / math.sqrt(2)
        assert abs(complex_diam(vals, math.inf) - 10.0) < 1e-9

    @given(
        pts=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=40),
        line=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        ts=st.lists(st.integers(-6, 6), max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_hull_diameter_is_the_pairwise_diameter(self, pts, line, ts):
        # small integer coordinates keep every cross product exact; the
        # points on a line through pts[0] and the repeated draws bring in
        # collinear and duplicate points
        (x0, y0), (dx, dy) = pts[0], line
        vals = np.array([complex(x, y) for x, y in pts + [(x0 + t * dx, y0 + t * dy) for t in ts]])
        pairwise = max(abs(a - b) for a in vals for b in vals)
        hull = convex_hull(vals)
        assert set(hull) <= set(vals)
        assert max(abs(a - b) for a in hull for b in hull) == pairwise

    @pytest.mark.parametrize("n", [2, 40, 1201, 2000])
    def test_limit_below_and_above_the_diameter(self, n):
        # the pairs, and past 1200 the first point's reach, then the hull
        # and its pairs, each stop at the first distance above the limit
        rng = np.random.default_rng(n)
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        exact = pairwise_diam(vals)
        reach = float(np.max(np.abs(vals - vals[0])))
        assert reach < exact or n == 2
        for limit in (0.0, reach / 2, reach, np.nextafter(exact, 0), exact, math.inf):
            assert_limit_aware(complex_diam(vals, limit), exact, limit)

    @given(
        pts=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=30),
        limit=st.one_of(st.floats(0, 12), st.just("reach")),
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_up_to_the_limit(self, pts, limit):
        # a limit anywhere, or equal to the first point's reach: the
        # largest distance the first pass of pairs sees
        vals = np.array([complex(x, y) for x, y in pts])
        if limit == "reach":
            limit = float(np.max(np.abs(vals - vals[0])))
        assert_limit_aware(complex_diam(vals, limit), pairwise_diam(vals), limit)

    def test_heisenberg_builds_no_hull(self, monkeypatch):
        # the root of Heisenberg 1..5000 is over eps by its first point's
        # reach, so it builds no convex hull (it built one, of 5000 points)
        hulls = []
        monkeypatch.setattr(nil, "convex_hull", lambda vals: hulls.append(len(vals)) or convex_hull(vals))
        g = PolySequence(
            [PolyPhase.monomial([0, SQRT2]), PolyPhase.monomial([0, SQRT3]), PolyPhase.zero()]
        )
        P = Progression(1, 1, 5000)
        cert = partition_nilsequence(Nilmanifold.heisenberg(), g, lipschitz_catalog("e(x)*cutoff"), P, 0.1)
        assert cert.num_parts == 5000
        assert hulls == []


HEISENBERG = (
    Nilmanifold.heisenberg(),
    [PolyPhase.monomial([0, SQRT2]), PolyPhase.monomial([0, SQRT3]), PolyPhase.zero()],
)
TORUS2 = (
    Nilmanifold.torus(2),
    [PolyPhase.binomial([0, Fraction(1, 7), Fraction(3, 11)]), PolyPhase.monomial([0, 0.3183098861837907])],
)


class TestPairDistances:
    @given(
        parts=st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=2, max_size=40
        ),
        scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e150]),
        s=st.integers(1, 7),
    )
    @settings(max_examples=300, deadline=None)
    def test_table_is_the_pair_diameter(self, parts, scale, s):
        # bit for bit: each table value is what complex_diam returns for
        # those two points, over magnitudes from subnormal to huge
        vals = np.array([complex(x, y) for x, y in parts]) * scale
        table = nil._pair_distances(vals, s)
        assert len(table) == max(len(vals) - s, 0)
        for i, d in enumerate(table):
            assert d == complex_diam(vals[[i, i + s]], math.inf)

    # each golden nil case reads one stride: its pair tables hold every
    # two-point part's distance as complex_diam measures it
    @pytest.mark.parametrize(
        "space, N, eps, stride",
        [(HEISENBERG, 5000, 0.1, 1), (HEISENBERG, 5000, 0.5, 70), (TORUS2, 3000, 0.2, 154)],
        ids=["heisenberg-5000", "heisenberg-5000-eps05", "torus2-3000"],
    )
    def test_golden_cases_read_one_stride(self, monkeypatch, space, N, eps, stride):
        (Mf, coords), F = space, lipschitz_catalog("e(x)*cutoff")
        g, P = PolySequence(coords), Progression(1, 1, N)
        seen, strides, refine = {}, set(), nil.refine

        def spy_refine(P, root, diam, pair, limit, reduce):
            seen["pair"] = pair

            def spy_pair(Q):
                strides.add(Q[1] // P.step)
                return pair(Q)

            return refine(P, root, diam, spy_pair, limit, reduce)

        monkeypatch.setattr(nil, "refine", spy_refine)
        partition_nilsequence(Mf, g, F, P, eps)
        assert strides == {stride}
        vals = nil_values(Mf, g, F, P)
        for i in range(N - stride):
            Q = (P.base + i * P.step, stride * P.step, 2)
            assert seen["pair"](Q) == complex_diam(vals[[i, i + stride]], math.inf)

    def test_heisenberg_measures_only_the_root(self, monkeypatch):
        # every part of Heisenberg 1..5000 at eps 0.1 is a point, and each
        # of the 4999 merge trials is a pair read from the stride-1 table:
        # complex_diam measures the root alone (it measured every trial)
        calls = []
        monkeypatch.setattr(
            nil, "complex_diam", lambda vals, limit: calls.append(len(vals)) or complex_diam(vals, limit)
        )
        Mf, coords = HEISENBERG
        cert = partition_nilsequence(
            Mf, PolySequence(coords), lipschitz_catalog("e(x)*cutoff"), Progression(1, 1, 5000), 0.1
        )
        assert cert.num_parts == 5000
        assert calls == [5000]


class TestReduceDimension:
    def test_torus_two_to_one(self):
        Mf = Nilmanifold.torus(2)
        g = PolySequence.torus_linear([Fraction(1, 8), Fraction(1, 5)])
        # a factor off the pivot leaves the next level something to freeze
        F = LipschitzFunction("e(x)e(y)", (Factor(0, "exp"), Factor(1, "exp")))
        P = (1, 1, 200)
        out = reduce_dimension(Mf, g, F, P, Fraction(1, 4))
        covered = []
        for R, state in out:
            F2 = state()
            covered.extend(elements(R))
            # the pivot x is frozen; y keeps its coordinate number
            assert F2.used_coords == [1]
            for n in elements(R):
                approx = nil_eval(Mf, g, F2, n)
                assert abs(nil_eval(Mf, g, F, n) - approx) <= 0.25 + 1e-9
        assert sorted(covered) == elements(P)

    def test_constant_function_single_part(self):
        Mf = Nilmanifold.torus(2)
        g = PolySequence.torus_linear([SQRT2, SQRT3])
        P = (1, 1, 500)
        # nothing is left to reduce: the part is kept whole, with no state
        assert reduce_dimension(Mf, g, lipschitz_catalog("const"), P, 0.1) == [(P, None)]

    def test_point_parts_never_frozen(self, monkeypatch):
        # refine reads no point's state: on Heisenberg 1..5000 every pivot
        # part is a point, so no part's function is frozen (5000 were)
        freeze, frozen = LipschitzFunction.freeze, []
        monkeypatch.setattr(
            LipschitzFunction, "freeze", lambda F, coord, u: frozen.append(u) or freeze(F, coord, u)
        )
        g = PolySequence(
            [PolyPhase.monomial([0, math.sqrt(2)]), PolyPhase.monomial([0, math.sqrt(3)]), PolyPhase.zero()]
        )
        F = lipschitz_catalog("e(x)*cutoff")
        cert = partition_nilsequence(Nilmanifold.heisenberg(), g, F, Progression(1, 1, 5000), 0.1)
        assert cert.num_parts == 5000
        assert frozen == []

    def test_partition_calls_reduce_dimension_by_its_module_name(self, monkeypatch):
        # partition_nilsequence reads reduce_dimension from the module at
        # call time, so a wrapper put there (a tracer's span) sees the one
        # reduction of Heisenberg 1..500
        calls = []
        real = nil.reduce_dimension
        monkeypatch.setattr(nil, "reduce_dimension", lambda *a: calls.append(a[3]) or real(*a))
        g = PolySequence(
            [PolyPhase.monomial([0, SQRT2]), PolyPhase.monomial([0, SQRT3]), PolyPhase.zero()]
        )
        P = Progression(1, 1, 500)
        partition_nilsequence(Nilmanifold.heisenberg(), g, lipschitz_catalog("e(x)*cutoff"), P, 0.1)
        assert calls == [(1, 1, 500)]

    # every level reads the root's manifold and sequence: none is built
    # below the root, and a level's function keeps the root's factors off
    # the pivots, coordinate numbers included
    @pytest.mark.parametrize(
        "Mf, coords, N, eps",
        [
            (Nilmanifold.heisenberg(),
             [PolyPhase.monomial([0, SQRT2]), PolyPhase.monomial([0, SQRT3]), PolyPhase.zero()],
             5000, 0.5),
            (Nilmanifold.torus(2),
             [PolyPhase.binomial([0, Fraction(1, 7), Fraction(3, 11)]),
              PolyPhase.monomial([0, 0.3183098861837907])],
             3000, 0.2),
        ],
        ids=["heisenberg-5000", "torus2-3000"],
    )
    def test_levels_share_the_root_manifold_and_sequence(self, monkeypatch, Mf, coords, N, eps):
        g, F = PolySequence(coords), lipschitz_catalog("e(x)*cutoff")
        built, levels = [], []
        torus, init, real = Nilmanifold.torus.__func__, PolySequence.__init__, nil.reduce_dimension
        monkeypatch.setattr(Nilmanifold, "torus", classmethod(lambda cls, d: built.append(d) or torus(cls, d)))
        monkeypatch.setattr(PolySequence, "__init__", lambda h, c: built.append(c) or init(h, c))
        monkeypatch.setattr(nil, "reduce_dimension", lambda *a: levels.append(a[:3]) or real(*a))
        cert = partition_nilsequence(Mf, g, F, Progression(1, 1, N), eps)
        assert cert.payload["depth"] == 2
        assert len(built) == 0
        assert all(M is Mf and h is g for M, h, _ in levels)
        below = [F2 for _, _, F2 in levels if F2 is not F]
        assert below and all(F2.factors == F.factors[1:] for F2 in below)


def assert_pairs_cover(Q, pairs):
    """The parts of a reduction cover Q exactly, in base order."""
    bases = [R[0] for R, _ in pairs]
    assert bases == sorted(bases)
    assert sorted(x for R, _ in pairs for x in elements(R)) == sorted(elements(Q))


_FACTOR_KINDS = st.sampled_from(["exp", "exp_re", "exp_im", "bump"])


@st.composite
def _nilsequences(draw):
    """A manifold, a sequence on it and a catalog-style function of up to
    three factors on the coordinates its functions may use."""
    if draw(st.booleans()):
        Mf, usable = Nilmanifold.heisenberg(), 2
    else:
        Mf = Nilmanifold.torus(draw(st.integers(0, 3)))
        usable = Mf.dim
    # large denominators leave a part's pivot phase spread out, so the
    # point a function is frozen at matters
    coeffs = st.lists(st.fractions(-3, 3, max_denominator=10**4), min_size=1, max_size=3)
    g = PolySequence([PolyPhase.monomial(draw(coeffs)) for _ in range(Mf.dim)])
    factors = draw(
        st.lists(
            st.builds(Factor, st.integers(0, max(usable - 1, 0)), _FACTOR_KINDS, st.integers(1, 2)),
            max_size=3 if usable else 0,
        )
    )
    return Mf, g, LipschitzFunction("drawn", tuple(factors))


_PARTS = st.tuples(st.integers(-50, 50), st.sampled_from([1, 2, -1, -3]), st.integers(2, 40))


class TestReductionContract:
    # both channels' one-level steps return the (part, state) pairs refine
    # consumes: parts covering Q in base order, each with a builder of its
    # next-level input, or None exactly when nothing is left to reduce

    @given(
        coeffs=st.lists(rationals, min_size=1, max_size=3),
        basis=st.sampled_from(["binomial", "monomial"]),
        Q=_PARTS,
        theta=st.fractions(min_value=Fraction(1, 64), max_value=Fraction(1, 2), max_denominator=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_degree_step(self, coeffs, basis, Q, theta):
        phi = PolyPhase(coeffs, basis)
        pairs = reduce_degree_partition(phi, Q, theta)
        assert_pairs_cover(Q, pairs)
        if phi.degree == 0:
            assert pairs == [(Q, None)]
        for R, state in pairs:
            if state is not None:
                psi, ref = state(), companion(phi, R)
                assert (psi.den, psi.num) == (ref.den, ref.num)

    @given(nilsequence=_nilsequences(), Q=_PARTS,
           eps=st.fractions(min_value=Fraction(1, 16), max_value=Fraction(1, 2), max_denominator=64))
    @settings(max_examples=150, deadline=None)
    def test_dimension_step(self, nilsequence, Q, eps):
        Mf, g, F = nilsequence
        pairs = reduce_dimension(Mf, g, F, Q, eps)
        assert_pairs_cover(Q, pairs)
        if not F.factors:
            assert pairs == [(Q, None)]
            return
        pivot = F.factors[0].coord
        left = any(f.coord != pivot for f in F.factors)
        for R, state in pairs:
            assert (state is None) == (not left)
            if state is not None:
                u = float(g.coords[pivot].eval(R[0]))
                assert state() == F.freeze(pivot, u)


class TestPartitionNilsequence:
    def test_torus_character_matches_phase_partition(self):
        Mf = Nilmanifold.torus(1)
        g = PolySequence.torus_linear([Fraction(1, 12)])
        F = lipschitz_catalog("e(x)")
        cert = partition_nilsequence(Mf, g, F, Progression(1, 1, 144), 0.2)
        assert verify_certificate(cert)["ok"]
        assert cert.channel == "nilsequence"
        vals = nil_values(Mf, g, F, Progression(1, 1, 144))
        for p, w in zip(cert.parts, cert.diam_witness):
            pv = [vals[n - 1] for n in elements(p)]
            assert complex_diam(pv, math.inf) <= 0.2 + 1e-9
            assert abs(complex_diam(pv, math.inf) - w) < 1e-9

    def test_heisenberg_small(self):
        Mf = Nilmanifold.heisenberg()
        g = PolySequence(
            [
                PolyPhase.monomial([0, SQRT2]),
                PolyPhase.monomial([0, SQRT3]),
                PolyPhase.zero(),
            ]
        )
        F = lipschitz_catalog("e(x)*cutoff")
        cert = partition_nilsequence(Mf, g, F, Progression(1, 1, 300), 0.25)
        report = verify_certificate(cert)
        assert report["ok"] and report["max_diam"] <= 0.25
        assert cert.payload["depth"] <= 3

    def test_constant_sequence_single_part(self):
        Mf = Nilmanifold.torus(1)
        g = PolySequence([PolyPhase.constant(Fraction(1, 3))])
        cert = partition_nilsequence(Mf, g, lipschitz_catalog("e(x)"), Progression(1, 1, 1000), 0.1)
        assert cert.num_parts == 1
        assert cert.diam_witness == [0.0]

    def test_epsilon_monotone(self):
        Mf = Nilmanifold.torus(1)
        g = PolySequence.torus_linear([SQRT2])
        F = lipschitz_catalog("e(x)")
        P = Progression(1, 1, 300)
        fine = partition_nilsequence(Mf, g, F, P, 0.15).num_parts
        coarse = partition_nilsequence(Mf, g, F, P, 0.45).num_parts
        assert coarse <= fine

    def test_singletons_skip_the_witness_scan(self, monkeypatch):
        # values (nil_values) and the points of the deviation check
        # (float_points) are computed only on parts of two or more points;
        # a single point's witness is 0.0
        lengths = []

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                lengths.append(args[-1].len)
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        spy(nil, "nil_values")
        spy(PolySequence, "float_points")
        g = PolySequence(
            [PolyPhase.monomial([0, SQRT2]), PolyPhase.monomial([0, SQRT3]), PolyPhase.zero()]
        )
        cert = partition_nilsequence(
            Nilmanifold.heisenberg(), g, lipschitz_catalog("e(x)*cutoff"),
            Progression(1, 1, 500), 0.1,
        )
        singles = [w for (_, _, n), w in zip(cert.parts, cert.diam_witness) if n == 1]
        assert singles and all(w == 0.0 for w in singles)
        assert lengths and min(lengths) >= 2

    def test_values_computed_once_on_the_root(self, monkeypatch):
        # every fit check, merge trial and witness reads a slice of the
        # root's values: nil_values runs once, on P itself
        calls = []
        real = nil.nil_values

        def spy(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(nil, "nil_values", spy)
        g = PolySequence(
            [PolyPhase.monomial([0, SQRT2]), PolyPhase.monomial([0, SQRT3]), PolyPhase.zero()]
        )
        P = Progression(1, 1, 500)
        cert = partition_nilsequence(
            Nilmanifold.heisenberg(), g, lipschitz_catalog("e(x)*cutoff"), P, 0.1
        )
        assert cert.num_parts > 1
        assert calls == [P]

    @pytest.mark.parametrize("kind", ["heisenberg", "torus"])
    def test_negative_step_source(self, kind):
        # witnesses sliced from the root's values equal a recompute on
        # each part, on a source walked downwards
        if kind == "heisenberg":
            Mf = Nilmanifold.heisenberg()
            g = PolySequence(
                [PolyPhase.monomial([0, Fraction(1, 7)]), PolyPhase.monomial([0, Fraction(1, 500)]),
                 PolyPhase.zero()]
            )
        else:
            Mf, g = Nilmanifold.torus(2), PolySequence.torus_linear([Fraction(1, 7), SQRT3 / 100])
        F = lipschitz_catalog("e(x)*cutoff")
        cert = partition_nilsequence(Mf, g, F, Progression(1500, -3, 400), 0.3)
        assert verify_certificate(cert)["ok"]
        assert any(n > 1 and step < 0 for _, step, n in cert.parts)
        for p, w in zip(cert.parts, cert.diam_witness):
            vals = nil_values(Mf, g, F, Progression(*p))
            assert w == (complex_diam(vals, math.inf) if p[2] > 1 else 0.0)

    def test_negative_step_heisenberg_digest(self):
        # SHA-256 of the certificate as the merge that measured every
        # trial wrote it, on Heisenberg 1..5000 walked downwards at eps
        # 0.5 (2473 parts, two levels): negative-step index and junction
        # arithmetic must reproduce it byte for byte
        g = PolySequence(
            [PolyPhase.monomial([0, SQRT2]), PolyPhase.monomial([0, SQRT3]), PolyPhase.zero()]
        )
        cert = partition_nilsequence(
            Nilmanifold.heisenberg(), g, lipschitz_catalog("e(x)*cutoff"), Progression(5000, -1, 5000), 0.5
        )
        assert (cert.num_parts, cert.payload["depth"]) == (2473, 2)
        digest = hashlib.sha256(cert.to_json_text().encode()).hexdigest()
        assert digest == "03d0c41a7d8e3f2fc9acc131b4c3f7b2b6e187bb189ce908d0a5e381f4f69e7d"

    def test_budget(self, monkeypatch):
        # torus:1, a linear coordinate, 100 points: 100 * (1 + 2)^2 work units
        args = (Nilmanifold.torus(1), PolySequence.torus_linear([SQRT2]),
                lipschitz_catalog("e(x)"), Progression(1, 1, 100), 0.1)
        monkeypatch.setenv("APINC_BUDGET", "900")
        assert partition_nilsequence(*args).num_parts >= 1
        monkeypatch.setenv("APINC_BUDGET", "899")
        with pytest.raises(BudgetExceededError):
            partition_nilsequence(*args)

    def test_function_on_unavailable_coordinate(self):
        Mf = Nilmanifold.heisenberg()
        g = PolySequence([PolyPhase.zero()] * 3)
        with pytest.raises(UnsupportedManifoldError):
            partition_nilsequence(Mf, g, lipschitz_catalog("e(z)"), Progression(1, 1, 10), 0.1)

    @given(
        a=st.fractions(min_value=0, max_value=1, max_denominator=24),
        length=st.integers(2, 120),
        eps=st.sampled_from([0.15, 0.3, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_soundness_torus(self, a, length, eps):
        Mf = Nilmanifold.torus(1)
        g = PolySequence.torus_linear([a])
        F = lipschitz_catalog("e(x)")
        P = Progression(1, 1, length)
        cert = partition_nilsequence(Mf, g, F, P, eps)
        covered = sorted(x for p in cert.parts for x in elements(p))
        assert covered == P.elements()
        assert verify_certificate(cert)["ok"]
