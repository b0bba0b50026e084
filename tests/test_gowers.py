import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apinc import gowers
from apinc.errors import BudgetExceededError, IntegerRangeError, InvalidArgumentError
from apinc.gowers import (
    DenseSet,
    GroupFunction,
    ap_count,
    ap_scan,
    balanced,
    catalog_inverse,
    gowers_norm,
    inverse_u2,
    lambda_k,
    lambda_k_exact,
    m_embed,
    von_neumann_check,
)
from apinc.oracle import brute_ap_count
from apinc.progressions import Progression


def recompute(w, f):
    """Reference: |E_n f(n) conj(e(phase(n)))| of the witness w on Z_M,
    re-measured from its phase's residues."""
    res = np.array(w.phase.residues(Progression(0, 1, w.M)), dtype=float)
    return abs(np.mean(f.values * np.exp(-2j * np.pi * res / w.phase.den)))


def numpy_ap_count(A, k, nontrivial=True):
    """Reference: the earlier numpy d-scan, k slices ANDed per difference."""
    count = 0 if nontrivial else len(A.members)
    if len(A.members) < k:
        return count
    N = A.N
    ind = np.zeros(N + 1, dtype=bool)
    ind[np.array(A.members, dtype=np.int64)] = True
    for d in range(1, (N - 1) // (k - 1) + 1):
        hits = ind[1 : N + 1 - (k - 1) * d]
        for i in range(1, k):
            hits = hits & ind[1 + i * d : N + 1 - (k - 1) * d + i * d]
        count += int(hits.sum())
    return count


def bigint_mask_scan(A, k):
    """Reference: the earlier `_mask_scan`, one Python int per shift.  A
    is packed into the int B with bit n set iff n is a member, and for
    each d the starts are the bits of B & (B >> d) & .. & (B >> (k-1)d)."""
    B = sum(1 << m for m in A.members)
    count, best_d, start, best = 0, 0, 0, 0
    for d in range(1, (A.N - 1) // (k - 1) + 1):
        hits = B & (B >> d)
        for i in range(2, k):
            hits &= B >> (i * d)
        c = hits.bit_count()
        count += c
        if c > best:
            best, best_d, start = c, d, (hits & -hits).bit_length() - 1  # the lowest set bit
    return count, best_d, start


def digit_set(N):
    """The members of [1..N] one more than a number whose base-3 digits
    are all 0 or 1: free of 3-APs, and so of k-APs for every k >= 3."""
    return DenseSet(N, [n for n in range(1, N + 1) if "2" not in np.base_repr(n - 1, 3)])


@st.composite
def scan_sets(draw, k):
    """Subsets of [1..N], N <= 300: empty, full, fewer than k members, or
    random at a drawn density, the last optionally forced to contain N."""
    N = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["empty", "full", "few", "random"]))
    if shape == "empty":
        return DenseSet(N, [])
    if shape == "full":
        return DenseSet(N, range(1, N + 1))
    if shape == "few":
        return DenseSet(N, draw(st.lists(st.integers(1, N), max_size=k - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = np.flatnonzero(rng.random(N) < draw(st.floats(0.05, 0.95))) + 1
    return DenseSet(N, [*members, N] if draw(st.booleans()) else members)


def random_bounded(M, seed):
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 2 * np.pi, M)
    r = rng.uniform(0, 1, M)
    return GroupFunction(r * np.exp(1j * phase), bounded=True)


class TestDenseSet:
    def test_sorted_distinct(self):
        A = DenseSet(10, [5, 3, 3, 9])
        assert A.members == (3, 5, 9)
        assert A.density == 0.3

    def test_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            DenseSet(10, [0, 3])
        with pytest.raises(InvalidArgumentError):
            DenseSet(10, [11])

    @pytest.mark.parametrize(
        "N, members",
        [(10, [1.5, 2.9]), (10, [True]), (10, [2, np.True_]), (10, ["3"]), (10.7, [1]), (True, [1])],
        ids=["float-members", "bool-member", "numpy-bool-member", "str-member", "float-N", "bool-N"],
    )
    def test_non_integers_refused_not_truncated(self, N, members):
        with pytest.raises(InvalidArgumentError):
            DenseSet(N, members)

    @pytest.mark.parametrize(
        "obj",
        [{"N": 10, "members": [1.0]}, {"N": True, "members": [1]}, {"N": "10", "members": [1]},
         {"N": 10, "members": "12"}, {"N": 10, "members": None}, {"N": 10, "members": [[1]]}],
        ids=["float-member", "bool-N", "str-N", "str-members", "null-members", "nested-member"],
    )
    def test_from_json_refuses_non_integers(self, obj):
        with pytest.raises(InvalidArgumentError):
            DenseSet.from_json(obj)

    def test_integer_types_accepted(self):
        A = DenseSet(np.int32(10), (x for x in [np.int64(4), 2, np.uint8(4)]))
        assert (A.N, A.members) == (10, (2, 4))
        assert all(type(x) is int for x in (A.N, *A.members))

    def test_json_roundtrip(self):
        A = DenseSet(12, [2, 7, 11])
        assert DenseSet.from_json(A.to_json()).members == A.members


class TestEmbedding:
    def test_m_embed_powers_of_two(self):
        assert m_embed(10, 3) == 64
        assert m_embed(64, 3) == 512
        assert m_embed(729, 3) == 8192

    def test_balanced_window_sum(self):
        A = DenseSet(729, [3 * i + 1 for i in range(243)])
        f = balanced(A, 3)
        assert f.M == m_embed(729, 3)
        # exact rational identity: |A| (1 - alpha) + (N - |A|)(-alpha) = 0
        alpha = A.density_exact
        assert len(A) * (1 - alpha) + (A.N - len(A)) * (-alpha) == Fraction(0)
        # the double-precision materialization agrees to rounding error
        assert abs(f.values[1 : A.N + 1].sum()) < 1e-9
        assert np.all(f.values[A.N + 1 :] == 0)

    def test_balanced_bounded(self):
        f = balanced(DenseSet(16, [1, 5, 9]), 3)
        assert f.bounded


class TestGowersNorm:
    def test_u1_is_mean(self):
        f = GroupFunction([1, -1, 1, -1])
        assert gowers_norm(f, 1) == 0.0

    def test_gauss_sum_exact_value(self):
        M = 17
        n = np.arange(M)
        f = GroupFunction(np.exp(2j * np.pi * n * n / M))
        assert abs(gowers_norm(f, 2) - M**-0.25) < 2.0**-30

    def test_character_invisible_to_u2(self):
        f = GroupFunction.character(64, 7)
        assert abs(gowers_norm(f, 2) - 1.0) < 1e-12

    def test_quadratic_phase_u3_one(self):
        M = 16
        n = np.arange(M)
        f = GroupFunction(np.exp(2j * np.pi * (3 * n * n) / M))
        assert abs(gowers_norm(f, 3) - 1.0) < 1e-9

    @given(M=st.sampled_from([4, 8, 16]), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_k(self, M, seed):
        f = random_bounded(M, seed)
        u2 = gowers_norm(f, 2)
        u3 = gowers_norm(f, 3)
        u4 = gowers_norm(f, 4)
        assert u2 <= u3 + 1e-9 <= u4 + 2e-9

    @given(M=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_parseval(self, M, seed):
        f = random_bounded(M, seed)
        fh = f.fourier()
        assert abs(np.sum(np.abs(fh) ** 2) - np.mean(np.abs(f.values) ** 2)) < 1e-9

    @given(M=st.sampled_from([6, 9, 12]), seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_modulation_invariance(self, M, seed):
        f = random_bounded(M, seed)
        g = GroupFunction(f.values * GroupFunction.character(M, 3).values)
        assert abs(gowers_norm(f, 2) - gowers_norm(g, 2)) < 1e-9

    def test_u2_is_the_closed_form_bit_for_bit(self, monkeypatch):
        # the recursion's k = 2 base is the FFT sum _u2 reads, on complex
        # and on integer-valued inputs alike, and charges no M^3 work
        monkeypatch.setenv("APINC_BUDGET", "1")
        rng = np.random.default_rng(30)
        for M in range(1, 301):
            z = rng.normal(size=M) + 1j * rng.normal(size=M)
            for values in z, np.round(3 * z), np.round(z.real):
                f = GroupFunction(values)
                assert gowers_norm(f, 2) == gowers._u2(np.fft.fft(f.values) / M), (M, values)


class TestLambda:
    def test_constant(self):
        ones = GroupFunction(np.ones(10))
        assert abs(lambda_k([ones] * 3) - 1.0) < 1e-12

    def test_multilinearity(self):
        rng = np.random.default_rng(7)
        M = 12
        f = rng.normal(size=M) + 1j * rng.normal(size=M)
        g = rng.normal(size=M) + 1j * rng.normal(size=M)
        h = rng.normal(size=M) + 1j * rng.normal(size=M)
        c = 0.7 - 0.2j
        lhs = lambda_k([f + c * g, h, f])
        rhs = lambda_k([f, h, f]) + c * lambda_k([g, h, f])
        assert abs(lhs - rhs) < 1e-9

    def test_exact_integer_channel(self):
        M = 16
        a = np.zeros(M, dtype=np.int64)
        a[[1, 3, 5]] = 1
        total = lambda_k_exact([a, a, a], M)
        # cross-check against the complex channel
        approx = lambda_k([a.astype(complex)] * 3) * M**2
        assert abs(total - approx) < 1e-6

    @given(
        N=st.integers(3, 24),
        seed=st.integers(0, 2**16),
        k=st.sampled_from([3, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_identity(self, N, seed, k):
        # Lambda_k * M^2 over the embedded window counts each nontrivial
        # AP twice (once per sign of d) plus each member once (d = 0)
        rng = np.random.default_rng(seed)
        members = [i for i in range(1, N + 1) if rng.random() < 0.5]
        if not members:
            members = [1]
        A = DenseSet(N, members)
        M = m_embed(N, k)
        ind = np.zeros(M, dtype=np.int64)
        ind[np.array(A.members)] = 1
        total = lambda_k_exact([ind] * k, M)
        assert total == 2 * ap_count(A, k) + len(A)


class TestApCount:
    def test_interval(self):
        assert ap_count(DenseSet(8, range(1, 9)), 3) == 12

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            N = int(rng.integers(5, 80))
            members = [i for i in range(1, N + 1) if rng.random() < 0.4]
            if not members:
                continue
            A = DenseSet(N, members)
            for k in (3, 4):
                assert ap_count(A, k) == brute_ap_count(A, k)

    def test_nontrivial_flag(self):
        A = DenseSet(9, [1, 4, 9])
        assert ap_count(A, 3) == 0
        assert ap_count(A, 3, nontrivial=False) == 3

    @given(data=st.data(), k=st.sampled_from([3, 4, 5]), nontrivial=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_scan(self, data, k, nontrivial):
        A = data.draw(scan_sets(k))
        assert ap_count(A, k, nontrivial) == numpy_ap_count(A, k, nontrivial)

    def test_scan_result(self):
        # d = 1: 1,2,3; d = 2: 1,3,5 and 3,5,7; d = 3, 4: none
        A = DenseSet(10, [1, 2, 3, 5, 7, 10])
        assert ap_scan(A, 3) == (3, 2, 1)

    def test_small_k_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ap_count(DenseSet(8, range(1, 9)), 2)

    def test_budget(self, monkeypatch):
        # N = 8192, k = 3: 4095 differences, 2 shifts of 129 words each
        A = DenseSet(8192, range(1, 8193, 2))
        monkeypatch.setenv("APINC_BUDGET", str(4095 * 2 * 129))
        assert ap_count(A, 3) == numpy_ap_count(A, 3)
        monkeypatch.setenv("APINC_BUDGET", str(4095 * 2 * 129 - 1))
        with pytest.raises(BudgetExceededError):
            ap_count(A, 3)
        # a set with fewer than k members scans nothing, whatever N
        assert ap_count(DenseSet(10**9, [1, 10**9]), 3) == 0

    def test_pair_pass_budget(self, monkeypatch):
        # 10 members of [1..10^6], k = 4: 45 pairs of 2 lookups each,
        # against about 10^10 words to scan
        A = DenseSet(10**6, [1, 2, 3, 4, 9, 10, 11, 100, 10**6 - 1, 10**6])
        monkeypatch.setenv("APINC_BUDGET", str(45 * 2))
        assert ap_scan(A, 4) == (1, 1, 1)
        monkeypatch.setenv("APINC_BUDGET", str(45 * 2 - 1))
        with pytest.raises(BudgetExceededError):
            ap_scan(A, 4)

    def test_pair_pass_refuses_a_window_past_int64(self, monkeypatch):
        # a budget large enough to admit the 2^64-bit mask
        monkeypatch.setenv("APINC_BUDGET", str(2**65))
        with pytest.raises(IntegerRangeError):
            ap_scan(DenseSet(2**64, [1, 2, 3]), 3)

    @given(data=st.data(), k=st.sampled_from([3, 4, 5]))
    @settings(max_examples=200, deadline=None)
    def test_pair_pass_matches_scan(self, data, k):
        A = data.draw(scan_sets(k))
        assume(len(A.members) >= k)
        assert gowers._pair_pass(A, k) == gowers._mask_scan(A, k)


class TestMaskScan:
    """The word-packed `_mask_scan` against the big-int reference, also
    with blocks and padding small enough that a short window spans
    several blocks."""

    @given(
        data=st.data(),
        k=st.sampled_from([3, 4, 5]),
        block=st.sampled_from([64, 256, gowers.SCAN_BLOCK]),
        pad=st.sampled_from([1, gowers.SCAN_PAD]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_bigint_scan(self, data, k, block, pad):
        A = data.draw(scan_sets(k))
        with mock.patch.multiple(gowers, SCAN_BLOCK=block, SCAN_PAD=pad):
            assert gowers._mask_scan(A, k) == bigint_mask_scan(A, k)

    @pytest.mark.parametrize("N", [3, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_word_boundaries(self, N, k):
        rng = np.random.default_rng(N * k)
        sets = [
            DenseSet(N, []),
            DenseSet(N, range(1, N + 1)),
            digit_set(N),
            DenseSet(N, np.flatnonzero(rng.random(N) < 0.5) + 1),
            DenseSet(N, [1, N]),
        ]
        for A in sets:
            for block, pad in ((64, 1), (gowers.SCAN_BLOCK, gowers.SCAN_PAD)):
                with mock.patch.multiple(gowers, SCAN_BLOCK=block, SCAN_PAD=pad):
                    assert gowers._mask_scan(A, k) == bigint_mask_scan(A, k)
        assert gowers._mask_scan(digit_set(N), k) == (0, 0, 0)
        # [1..N] holds N - (k-1)d progressions of each difference d, the most at d = 1
        top = (N - 1) // (k - 1)
        full = sum(N - (k - 1) * d for d in range(1, top + 1))
        assert gowers._mask_scan(DenseSet(N, range(1, N + 1)), k) == ((full, 1, 1) if top else (0, 0, 0))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_benchmark_sets(self, k):
        # the first two of roth-random's sets at seeds 0 and 7
        for seed in (0, 7):
            rng = np.random.default_rng(seed)
            for _ in range(2):
                A = DenseSet(8192, np.flatnonzero(rng.random(8192) < 0.5) + 1)
                assert gowers._mask_scan(A, k) == bigint_mask_scan(A, k)

    @pytest.mark.parametrize("k", [3, 5])
    def test_memory_bound(self, k):
        # README "Budgets": the shift table, 8 bytes per point of N plus
        # its padding, one block temporary of SCAN_BLOCK words and as many
        # bytes, and numpy's buffers for two overlapping views; none of it
        # grows with k
        rng = np.random.default_rng(0)
        N = 8192
        A = DenseSet(N, np.flatnonzero(rng.random(N) < 0.5) + 1)
        table = 8 * 64 * (N // 64 + gowers.SCAN_PAD + 1)
        bound = table + 9 * gowers.SCAN_BLOCK + 2 * 8 * np.getbufsize() + 16384
        tracemalloc.start()
        try:
            gowers._mask_scan(A, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound < 400_000


class TestVonNeumann:
    def test_requires_bounded(self):
        f = GroupFunction(2 * np.ones(8))
        with pytest.raises(InvalidArgumentError):
            von_neumann_check([f, f, f])

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_random_triples(self, seed):
        fs = [random_bounded(16, seed + i) for i in range(3)]
        assert von_neumann_check(fs)["ok"]


class TestInverseU2:
    def test_recovers_character(self):
        M = 256
        f = GroupFunction(0.5 * GroupFunction.character(M, 37).values)
        w = inverse_u2(f, 0.1)
        assert w is not None
        assert w.phase.coeffs == (0, Fraction(37, M)) and w.M == M
        assert abs(w.correlation - 0.5) < 1e-12

    def test_guarantee_delta_squared(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            f = random_bounded(128, seed)
            delta = gowers_norm(f, 2)
            w = inverse_u2(f, delta * 0.999)
            assert w is not None
            assert w.correlation >= (delta * 0.999) ** 2 - 2.0**-30
            # the witness re-verifies against f
            assert abs(recompute(w, f) - w.correlation) < 1e-9

    def test_below_threshold_none(self):
        f = GroupFunction(np.zeros(16))
        assert inverse_u2(f, 0.5) is None

    def test_one_transform(self, monkeypatch):
        # the norm test and the witness read one FFT, and the norm is
        # the same double gowers_norm computes
        f = balanced(DenseSet(100, range(1, 101, 3)))
        norm, fft, calls = gowers_norm(f, 2), np.fft.fft, []
        monkeypatch.setattr(np.fft, "fft", lambda v: calls.append(1) or fft(v))
        assert inverse_u2(f, norm) is not None and len(calls) == 1
        assert inverse_u2(f, np.nextafter(norm, 1)) is None


class TestCatalogInverse:
    def test_recovers_planted_quadratic(self):
        M = 512
        n = np.arange(M)
        planted = np.exp(2j * np.pi * (5 * (n * (n - 1) // 2) + 3 * n) / 64)
        f = GroupFunction(0.4 * planted)
        w = catalog_inverse(f, 4, grid=64, threshold=0.1)
        assert w is not None and w.phase.coeffs == (0, Fraction(3, 64), Fraction(5, 64))
        assert abs(w.correlation - 0.4) < 1e-9
        assert abs(recompute(w, f) - w.correlation) < 1e-9

    def test_noise_not_found(self):
        rng = np.random.default_rng(0)
        f = GroupFunction(rng.choice([-1.0, 1.0], 512) * 0.01)
        assert catalog_inverse(f, 4, grid=64, threshold=0.5) is None

    def test_k_restriction(self):
        f = GroupFunction(np.ones(64))
        with pytest.raises(InvalidArgumentError):
            catalog_inverse(f, 3, grid=64, threshold=0.1)

    def test_grid_must_divide(self):
        f = GroupFunction(np.ones(100))
        with pytest.raises(InvalidArgumentError):
            catalog_inverse(f, 4, grid=64, threshold=0.1)
