import hashlib
import json
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apinc import gowers
from apinc.engine import (
    APFound,
    Incremented,
    Inconclusive,
    catalog_oracle,
    density_increment_step,
    fft_oracle,
    find_ap,
    increment_from_witness,
    szemeredi_search,
)
from apinc.errors import BudgetExceededError, InvalidArgumentError
from apinc.gowers import DenseSet, ap_count, balanced
from apinc.oracle import brute_ap_count
from apinc.progressions import Progression


def digit_restricted(N, base=3, allowed=(0, 1)):
    """Members of [1..N] whose base-`base` digits all lie in `allowed`;
    with base 3 and digits {0,1} this is 3-AP-free."""
    out = []
    for n in range(1, N + 1):
        m = n
        while m:
            if m % base not in allowed:
                break
            m //= base
        else:
            out.append(n)
    return out


def numpy_find_ap(A, k):
    """Reference: the earlier numpy d-scan with the same selection rule."""
    N = A.N
    if len(A.members) < k:
        return None
    ind = np.zeros(N + 1, dtype=bool)
    ind[np.array(A.members, dtype=np.int64)] = True
    best = None  # (count, d, first_n)
    for d in range(1, (N - 1) // (k - 1) + 1):
        hits = ind[1 : N + 1 - (k - 1) * d].copy()
        for i in range(1, k):
            hits &= ind[1 + i * d : N + 1 - (k - 1) * d + i * d]
        c = int(hits.sum())
        if c > 0 and (best is None or c > best[0]):
            best = (c, d, int(np.argmax(hits)) + 1)
    if best is None:
        return None
    _, d, n = best
    return Progression(n, d, k)


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


class TestFindAp:
    def test_full_set(self):
        A = DenseSet(4096, range(1, 4097))
        p = find_ap(A, 3)
        assert p.len == 3
        assert set(p.elements()) <= set(A.members)

    def test_evens(self):
        A = DenseSet(12, [2, 4, 6, 8, 10, 12])
        p = find_ap(A, 3)
        assert p.base == 2 and p.step == 2

    def test_none_when_free(self):
        A = DenseSet(9, [1, 2, 4, 5])  # no 3-AP
        assert find_ap(A, 3) is None

    @given(N=st.integers(6, 60), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_membership_and_consistency(self, N, seed):
        rng = np.random.default_rng(seed)
        members = [i for i in range(1, N + 1) if rng.random() < 0.5] or [1]
        A = DenseSet(N, members)
        p = find_ap(A, 3)
        if brute_ap_count(A, 3) > 0:
            assert p is not None
            assert all(x in set(A.members) for x in p.elements())
        else:
            assert p is None

    @given(data=st.data(), k=st.sampled_from([3, 4, 5]))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_scan(self, data, k):
        A = data.draw(scan_sets(k))
        assert find_ap(A, k) == numpy_find_ap(A, k)

    def test_tie_smallest_difference(self):
        # d = 1 (8,9,10), d = 2 (1,3,5) and d = 4 (1,5,9) each give one
        # progression; the smallest d wins over the smallest start
        A = DenseSet(10, [1, 3, 5, 8, 9, 10])
        assert find_ap(A, 3) == Progression(8, 1, 3) == numpy_find_ap(A, 3)

    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_small_k_rejected(self, k):
        with pytest.raises(InvalidArgumentError, match="k must be >= 3"):
            find_ap(DenseSet(8, range(1, 9)), k)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("APINC_BUDGET", "1000")
        with pytest.raises(BudgetExceededError):
            find_ap(DenseSet(512, range(1, 513)), 3)

    def test_postcondition_checks_the_set(self, monkeypatch):
        # a scan that reports a progression missing from A is caught
        A = DenseSet(16, [1, 2, 3])
        monkeypatch.setattr("apinc.engine.ap_scan", lambda A, k: (1, 4, 1))
        with pytest.raises(AssertionError):
            find_ap(A, 3)

    def test_memo_hit_still_checks_the_budget(self, monkeypatch):
        # N = 8192, k = 3: 4095 differences, 2 shifts of 129 words each
        A = DenseSet(8192, range(1, 8193, 3))
        monkeypatch.setenv("APINC_BUDGET", str(4095 * 2 * 129))
        assert ap_count(A, 3) > 0
        monkeypatch.setenv("APINC_BUDGET", str(4095 * 2 * 129 - 1))
        with pytest.raises(BudgetExceededError):
            find_ap(A, 3)

    def test_memo_is_keyed_by_value(self):
        # alternating sets and k, each answer matches the references
        rng = np.random.default_rng(5)
        sets = [DenseSet(200, np.flatnonzero(rng.random(200) < 0.4) + 1) for _ in range(2)]
        for A, k in [(sets[0], 3), (sets[1], 3), (sets[0], 3), (sets[0], 4), (sets[1], 4)] * 2:
            assert ap_count(A, k) == brute_ap_count(A, k)
            assert find_ap(A, k) == numpy_find_ap(A, k)


class TestStep:
    def test_dense_set_yields_ap(self):
        A = DenseSet(64, range(1, 65))
        out = density_increment_step(A, 3)
        assert isinstance(out, APFound)

    def test_ap_found_with_one_scan(self):
        # ap_count then find_ap on the same set: the pass runs once
        A = random_sets(3, 1, 512)[0]
        gowers._ap_pass.cache_clear()
        out = density_increment_step(A, 3)
        assert gowers._ap_pass.cache_info().misses == 1
        assert out == APFound(numpy_find_ap(A, 3))

    def test_small_k_rejected(self):
        with pytest.raises(InvalidArgumentError):
            density_increment_step(DenseSet(10, [1]), 2)

    def test_empty_inconclusive(self):
        out = density_increment_step(DenseSet(10, []), 3)
        assert isinstance(out, Inconclusive)

    def test_ap_free_set_increments(self):
        A = DenseSet(729, digit_restricted(729))
        assert ap_count(A, 3) == 0
        out = density_increment_step(A, 3, floor_n0=8)
        assert isinstance(out, Incremented)
        # the exact density inequality, re-checked here
        alpha = A.density_exact
        hits = sum(1 for x in out.part.elements() if x in set(A.members))
        gain = Fraction(hits, out.part.len) - alpha
        # the new set is A read in the part's own coordinates
        assert out.new_set == DenseSet(out.part.len, [
            i + 1 for i, x in enumerate(out.part.elements()) if x in set(A.members)])
        assert gain >= Fraction(out.delta_eff).limit_denominator(10**12) / 4 - Fraction(1, 2**29)

    def test_oracle_not_found_reported(self):
        A = DenseSet(64, digit_restricted(64))

        def silent_oracle(f):
            return None

        out = density_increment_step(A, 3, oracle=silent_oracle)
        assert isinstance(out, Inconclusive) and out.reason == "oracle"


class TestIncrementFromWitness:
    def test_fourier_witness_even_set(self):
        # A = evens has f correlating perfectly with the r = M/2 character
        N = 256
        A = DenseSet(N, range(2, N + 1, 2))
        f = balanced(A, 3)
        from apinc.gowers import inverse_u2

        w = inverse_u2(f, 0.01)
        assert w is not None
        out = increment_from_witness(A, w, floor_n0=2)
        assert isinstance(out, Incremented)
        assert out.new_density > A.density

    def test_length_floor_blocks(self):
        A = DenseSet(8, [2, 4, 6])
        f = balanced(A, 3)
        from apinc.gowers import inverse_u2

        w = inverse_u2(f, 0.01)
        out = increment_from_witness(A, w, floor_n0=6)
        assert isinstance(out, Inconclusive)
        assert out.reason in ("length-floor", "increment-shortfall")


class TestSearch:
    def test_interval_immediate(self):
        A = DenseSet(100, range(1, 101))
        out, trace = szemeredi_search(A, 3)
        assert isinstance(out, APFound)
        assert len(trace.records) == 1

    def test_ap_free_run_monotone_density(self):
        A = DenseSet(729, digit_restricted(729))
        out, trace = szemeredi_search(A, 3, floor_n0=8)
        ds = trace.densities()
        assert len(ds) >= 2
        assert all(b > a for a, b in zip(ds, ds[1:]))
        assert isinstance(out, Inconclusive) and out.reason == "length-floor"

    def test_ap_mapped_to_original_coordinates(self):
        # a set whose only structure lives on the odd numbers
        N = 200
        members = [n for n in range(1, N + 1, 2)]
        A = DenseSet(N, members)
        out, _ = szemeredi_search(A, 3)
        assert isinstance(out, APFound)
        assert all(x in set(members) for x in out.progression.elements())

    def test_trace_lines_parse(self):
        A = DenseSet(64, range(1, 65, 2))
        out, trace = szemeredi_search(A, 3)
        for line in trace.to_json_lines().strip().splitlines():
            json.loads(line)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_random_half_density_finds_ap(self, seed):
        rng = np.random.default_rng(seed)
        N = 512
        members = [i for i in range(1, N + 1) if rng.random() < 0.5]
        A = DenseSet(N, members)
        out, _ = szemeredi_search(A, 3, floor_n0=8)
        assert isinstance(out, APFound)
        assert brute_ap_count(DenseSet(N, out.progression.elements()), 3) >= 0
        assert all(x in set(members) for x in out.progression.elements())


def outcome_digest(random_sets, digit_sets):
    """SHA-256 over the JSON outcome of a k = 3 search on each random set,
    then the JSONL trace of an fft-oracle search on each digit set."""
    h = hashlib.sha256()
    for A in random_sets:
        h.update(json.dumps(szemeredi_search(A, 3, floor_n0=8)[0].to_json()).encode())
    for A in digit_sets:
        _, trace = szemeredi_search(A, 3, floor_n0=8, oracle=fft_oracle())
        h.update(trace.to_json_lines().encode())
    return h.hexdigest()


def random_sets(seed, count, N):
    rng = np.random.default_rng(seed)
    return [DenseSet(N, np.flatnonzero(rng.random(N) < 0.5) + 1) for _ in range(count)]


def bench_digit_set(seed, digits=10):
    """The AP-free digit set of the benchmark's roth-digit workload."""
    N = 3**digits
    base = [sum(3**i for i in range(digits) if m >> i & 1) for m in range(2**digits)]
    if seed == 0:
        return DenseSet(N, [x for x in base if x] + [N])
    rng = random.Random(seed)
    shift = sum(3**i for i in range(digits) if rng.random() < 0.5)
    return DenseSet(N, [1 + shift + x for x in base])


def test_benchmark_inputs_keep_their_ap_pass():
    # roth-digit's seed-0 set is sparse enough for the member-pair pass;
    # a roth-random set (density 1/2 in [1..8192]) takes the bitmask scan
    def pass_taken(A):
        gowers._ap_pass.cache_clear()
        with mock.patch.object(gowers, "_pair_pass", wraps=gowers._pair_pass) as pairs, \
                mock.patch.object(gowers, "_mask_scan", wraps=gowers._mask_scan) as scan:
            ap_count(A, 3)
        assert pairs.call_count + scan.call_count == 1
        return "pairs" if pairs.called else "scan"

    assert pass_taken(bench_digit_set(0)) == "pairs"
    assert pass_taken(random_sets(0, 1, 8192)[0]) == "scan"


class TestOutcomeDigest:
    """Outcomes and traces pinned to the values the numpy d-scan gave."""

    def test_small(self):
        sets = random_sets(0, 10, 512)
        digit = [DenseSet(729, digit_restricted(729))]
        assert outcome_digest(sets, digit) == (
            "3fc38d6cf7d95f74f1821d115ffedd94314e5d60f4a8f6b2d261401e0f6ef159"
        )

    def test_benchmark_inputs(self):
        # roth-random's 100 sets at seeds 0 and 7, roth-digit at seeds 0, 3, 7
        sets = random_sets(0, 100, 8192) + random_sets(7, 100, 8192)
        digit = [bench_digit_set(s) for s in (0, 3, 7)]
        assert outcome_digest(sets, digit) == (
            "56098449c49df436c8a42c293b83c7764c3b02bc953f58d83909e63a33bf7cd7"
        )


class TestCatalogOracle:
    def test_planted_quadratic_round_trip(self):
        # members of [1..512] where a grid quadratic phase sits near 0:
        # strongly non-uniform in U^3, recovered by the catalog
        N, grid = 512, 64
        theta, c = Fraction(5, grid), Fraction(3, grid)
        members = [
            n
            for n in range(1, N + 1)
            if float((theta * n * (n - 1) / 2 + c * n) % 1) < 0.25
        ]
        A = DenseSet(N, members)
        f = balanced(A, 4)
        w = catalog_oracle(grid=grid, threshold=0.02)(f)
        assert w is not None and w.M == f.M
        # correlation is measured on Z_M; renormalized to the window it
        # recovers the planted strength
        assert w.correlation * f.M / N >= 0.1
        assert w.phase.basis == "binomial" and w.phase.coeffs == (0, c, theta)

    def test_random_set_not_found(self):
        rng = np.random.default_rng(1)
        N = 512
        A = DenseSet(N, [i for i in range(1, N + 1) if rng.random() < 0.5])
        f = balanced(A, 4)
        assert catalog_oracle(grid=64, threshold=0.5)(f) is None


def test_outcomes_serialize():
    from apinc.progressions import Progression

    assert APFound(Progression(1, 2, 3)).to_json()["variant"] == "ap-found"
    assert Inconclusive("oracle").to_json()["reason"] == "oracle"
