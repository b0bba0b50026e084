import cmath
import copy
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apinc import oracle
from apinc.errors import BudgetExceededError, CertificateError
from apinc.gowers import DenseSet, GroupFunction
from apinc.nil import Nilmanifold, PolySequence, lipschitz_catalog, partition_nilsequence
from apinc.oracle import (
    VERIFY_TOL,
    _nil_value_fn,
    brute_ap_count,
    brute_diam,
    brute_gowers,
    max_ap_free,
    verify_certificate,
)
from apinc.polyphase import PolyPhase, partition_polyphase
from apinc.progressions import Progression


class TestBruteApCount:
    def test_full_interval(self):
        # [1..8]: sum over d of (8 - 2d) = 6 + 4 + 2 = 12
        assert brute_ap_count(DenseSet(8, range(1, 9)), 3) == 12

    def test_evens(self):
        assert brute_ap_count(DenseSet(10, [2, 4, 6, 8, 10]), 3) == 4

    def test_trivial_counted_once(self):
        A = DenseSet(10, [1, 5, 7])
        assert brute_ap_count(A, 3, nontrivial=False) == 3

    def test_four_term(self):
        assert brute_ap_count(DenseSet(10, [1, 3, 5, 7]), 4) == 1

    def test_ap_free(self):
        # {1, 2, 4, 5} in [5] has no 3-AP
        assert brute_ap_count(DenseSet(5, [1, 2, 4, 5]), 3) == 0

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_ap_count(DenseSet(20001, range(1, 20001)), 3)


class TestMaxApFree:
    def test_small_values(self):
        assert [max_ap_free(N, 3) for N in range(1, 9)] == [1, 2, 2, 3, 4, 4, 4, 4]

    def test_k4(self):
        # {1,2,3} has no 4-AP; [1..4] forces one
        assert max_ap_free(4, 4) == 3
        assert max_ap_free(8, 4) == 6

    def test_golden_file_matches(self):
        import pathlib

        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden" / "max_ap_free_k3.json").read_text()
        )
        for n_str, v in golden["values"].items():
            if int(n_str) <= 12:  # keep this spot check fast
                assert max_ap_free(int(n_str), 3) == v

    def test_budget_tiers(self):
        with pytest.raises(BudgetExceededError):
            max_ap_free(31, 3)
        with pytest.raises(BudgetExceededError):
            max_ap_free(41, 4)


class TestBruteGowers:
    def test_constant_all_norms_one(self):
        f = GroupFunction(np.ones(6))
        for k in (1, 2, 3):
            assert abs(brute_gowers(f, k) - 1.0) < 1e-12

    def test_gauss_sum(self):
        M = 17
        n = np.arange(M)
        f = GroupFunction(np.exp(2j * np.pi * n * n / M))
        assert abs(brute_gowers(f, 2) - M**-0.25) < 1e-12

    def test_character_u2_one(self):
        f = GroupFunction.character(12, 5)
        assert abs(brute_gowers(f, 2) - 1.0) < 1e-12

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("APINC_BUDGET", str(10**6))
        f = GroupFunction(np.ones(64))
        with pytest.raises(BudgetExceededError):
            brute_gowers(f, 4)

    @given(
        M=st.integers(2, 8),
        seed=st.integers(0, 2**16),
        k=st.integers(2, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_fft_recursion(self, M, seed, k):
        from apinc.gowers import gowers_norm

        rng = np.random.default_rng(seed)
        f = GroupFunction(rng.normal(size=M) + 1j * rng.normal(size=M))
        assert abs(brute_gowers(f, k) - gowers_norm(f, k)) < 1e-9


def _sample_cert():
    phi = PolyPhase.binomial([0, "1/8"])
    return partition_polyphase(phi, Progression(1, 1, 64), 0.05).to_json()


class TestVerify:
    def test_accepts_genuine(self):
        report = verify_certificate(_sample_cert())
        assert report["ok"] and report["num_parts"] >= 8

    def test_duplicate_part(self):
        cert = copy.deepcopy(_sample_cert())
        cert["parts"].append(dict(cert["parts"][0]))
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "parts-not-disjoint"

    def test_dropped_part(self):
        cert = copy.deepcopy(_sample_cert())
        cert["parts"].pop()
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "coverage-gap"

    def test_part_outside_source(self):
        cert = copy.deepcopy(_sample_cert())
        p = dict(cert["parts"][0])
        p["base"] = 65
        p["len"] = 1
        cert["parts"].append(p)
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "coverage-excess"

    @pytest.mark.parametrize(
        "huge, replace",
        [
            ({"base": 65, "step": 1, "len": 10**12}, False),
            ({"base": 1, "step": 1, "len": 10**12}, True),
            ({"base": 64, "step": -1, "len": 10**12}, True),
            ({"base": 1, "step": 7, "len": 10**12}, False),
        ],
        ids=["beyond-source", "over-source", "downwards", "overlapping"],
    )
    def test_huge_part_refused_without_listing(self, huge, replace):
        # the walks stop one point past the source's room, so a part of
        # 10^12 points costs about 65 and is never built as a list
        import tracemalloc

        cert = copy.deepcopy(_sample_cert())
        cert["parts"] = [] if replace else cert["parts"]
        cert["parts"].append(dict(huge, diam=0.0))
        tracemalloc.start()
        try:
            with pytest.raises(CertificateError) as ei:
                verify_certificate(cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = "parts-not-disjoint" if huge["step"] == 7 else "coverage-excess"
        assert ei.value.reason == want
        assert peak < 2**20

    def test_min_len_inflated(self):
        cert = copy.deepcopy(_sample_cert())
        cert["min_len"] = max(p["len"] for p in cert["parts"]) + 1
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "min-len-violated"

    def test_epsilon_shrunk(self):
        # use a phase with strictly positive part diameters
        phi = PolyPhase.monomial([0, 0.01])
        cert = partition_polyphase(phi, Progression(1, 1, 64), 0.05).to_json()
        assert max(p["diam"] for p in cert["parts"]) > 0
        cert["epsilon"] = 1e-9
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "diam-exceeds-epsilon"

    def test_witness_tampered(self):
        cert = copy.deepcopy(_sample_cert())
        big = max(range(len(cert["parts"])), key=lambda i: cert["parts"][i]["len"])
        cert["parts"][big]["diam"] = cert["parts"][big]["diam"] + 0.01
        cert["epsilon"] = 0.2  # keep the diameter check satisfied
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "witness-mismatch"

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: c.update(epsilon=float("nan")),
            lambda c: c.update(epsilon=float("inf")),
            lambda c: c["parts"][0].update(diam=float("nan")),
            lambda c: c["parts"][0].pop("len"),
            lambda c: c.update(channel="sphere"),
            lambda c: c["payload"]["phase"].pop("coeffs"),
            lambda c: c["payload"]["phase"].update(basis="bogus"),
            lambda c: c["parts"][0].update(step=0),
            lambda c: c.update(channel="nilsequence", payload={
                "manifold": {"kind": "sphere", "dim": 1},
                "sequence": {"coords": [c["payload"]["phase"]]},
                "function": {"factors": []},
            }),
        ],
        ids=["eps-nan", "eps-inf", "diam-nan", "part-no-len", "unknown-channel", "phase-no-coeffs",
             "phase-unknown-basis", "part-zero-step", "unknown-manifold"],
    )
    def test_malformed_refused(self, tamper):
        # NaN or infinite bounds would pass every comparison unnoticed
        cert = copy.deepcopy(_sample_cert())
        tamper(cert)
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "malformed-certificate"

    def test_nil_pairs_charged_to_budget(self, monkeypatch):
        # the nilsequence diameter is a pairwise scan: L(L-1)/2 per part
        Mf, g = Nilmanifold.torus(1), PolySequence.torus_linear([Fraction(1, 1000)])
        cert = partition_nilsequence(Mf, g, lipschitz_catalog("e(x)"), Progression(1, 1, 300), 0.25)
        assert cert.num_parts > 1
        pairs = sum(p.len * (p.len - 1) // 2 for p in cert.parts)
        monkeypatch.setenv("APINC_BUDGET", str(pairs))
        assert verify_certificate(cert)["ok"]
        monkeypatch.setenv("APINC_BUDGET", str(pairs - 1))
        with pytest.raises(BudgetExceededError):
            verify_certificate(cert)

    def test_error_payload_machine_readable(self):
        cert = copy.deepcopy(_sample_cert())
        cert["parts"].pop()
        try:
            verify_certificate(cert)
        except CertificateError as e:
            payload = e.payload()
            assert payload["error"] == "verification-failed"
            assert payload["reason"] == "coverage-gap"


def _cover_cert(source, parts):
    """A certificate of a constant phase over `source` with the given
    (base, step, len) parts, each of diameter 0."""
    return {
        "channel": "polyphase", "source": Progression(*source).to_json(), "epsilon": 0.1,
        "min_len": 1, "parts": [dict(Progression(*p).to_json(), diam=0.0) for p in parts],
        "payload": {"phase": PolyPhase.monomial([0]).to_json()},
    }


def _coverage_outcome(cert):
    try:
        verify_certificate(cert)
    except CertificateError as e:
        return e.reason, str(e)
    return None


def _coverage_reference(source, parts):
    """The coverage verdict computed point by point over sets: the parts
    are walked in order, at most len(source) + 1 points in all."""
    points = set(Progression(*source).elements())
    owner, outside, walked = {}, [], 0
    for pi, (base, step, n) in enumerate(parts):
        n = min(n, len(points) + 1 - walked)
        walked += n
        for x in (base + i * step for i in range(n)):
            if x not in points:
                outside.append(x)
            elif x in owner:
                return "parts-not-disjoint", f"element {x} appears in parts {owner[x]} and {pi}"
            else:
                owner[x] = pi
    if outside:
        return "coverage-excess", f"element {min(outside)} lies outside the source"
    if points - owner.keys():
        return "coverage-gap", f"element {min(points - owner.keys())} is not covered by any part"
    return None


class TestCoverage:
    """Each coverage fault alone gets its reason and message; a
    certificate with several gets the first of parts-not-disjoint,
    coverage-excess and coverage-gap, as README "Certificates, not
    trust" states."""

    @pytest.mark.parametrize(
        "source, parts, reason, message",
        [
            ((1, 1, 8), [(1, 1, 5), (5, 1, 4)], "parts-not-disjoint",
             "element 5 appears in parts 0 and 1"),
            ((1, 1, 8), [(1, 2, 4), (2, 2, 4), (6, 1, 1)], "parts-not-disjoint",
             "element 6 appears in parts 1 and 2"),
            ((8, -1, 8), [(8, -1, 8), (1, 3, 2)], "parts-not-disjoint",
             "element 1 appears in parts 0 and 1"),
            ((1, 1, 8), [(1, 1, 8), (9, 1, 3)], "coverage-excess",
             "element 9 lies outside the source"),
            ((1, 1, 8), [(10, -1, 10)], "coverage-excess", "element 9 lies outside the source"),
            ((0, 2, 4), [(0, 1, 4), (4, 2, 2)], "coverage-excess",
             "element 1 lies outside the source"),
            ((1, 1, 8), [(1, 1, 3), (6, 1, 3)], "coverage-gap",
             "element 4 is not covered by any part"),
            ((8, -1, 8), [(8, -1, 3), (4, -1, 2), (1, 1, 1)], "coverage-gap",
             "element 2 is not covered by any part"),
            ((-3, 3, 5), [(-3, 6, 3), (0, 3, 1)], "coverage-gap",
             "element 6 is not covered by any part"),
        ],
        ids=["overlap", "overlap-not-with-first-part", "overlap-downwards", "beyond-source",
             "smallest-outside-point", "off-the-source-step", "gap", "gap-downwards",
             "gap-negative-base"],
    )
    def test_single_fault(self, source, parts, reason, message):
        with pytest.raises(CertificateError) as ei:
            verify_certificate(_cover_cert(source, parts))
        assert (ei.value.reason, str(ei.value)) == (reason, message)

    @pytest.mark.parametrize(
        "parts, reason",
        [
            ([(9, 1, 1), (1, 1, 4), (3, 1, 1)], "parts-not-disjoint"),
            ([(1, 1, 4), (7, 1, 4)], "coverage-excess"),
            ([(7, 1, 4), (9, 1, 2)], "coverage-excess"),
        ],
        ids=["overlap-then-excess", "excess-and-gap", "overlap-outside-source"],
    )
    def test_first_reason_wins(self, parts, reason):
        with pytest.raises(CertificateError) as ei:
            verify_certificate(_cover_cert((1, 1, 8), parts))
        assert ei.value.reason == reason

    @given(
        source=st.tuples(st.integers(-6, 6), st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 12)),
        parts=st.lists(
            st.tuples(st.integers(-12, 24), st.sampled_from([-6, -3, -2, -1, 1, 2, 3, 4, 6]),
                      st.integers(1, 14)),
            max_size=6,
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_pointwise_reference(self, source, parts):
        assert _coverage_outcome(_cover_cert(source, parts)) == _coverage_reference(source, parts)

    @pytest.mark.parametrize(
        "source, parts",
        [
            ((1, 1, 8), [(1, 2, 4), (2, 2, 4)]),
            ((8, -1, 8), [(8, -2, 4), (7, -2, 4)]),
            ((-5, 3, 8), [(-5, 6, 4), (-2, 6, 4)]),
            ((1, 1, 9), [(7, -3, 3), (2, 3, 3), (9, -3, 3)]),
        ],
        ids=["up", "down", "negative-base", "parts-against-the-source"],
    )
    def test_exact_cover_passes(self, source, parts):
        assert verify_certificate(_cover_cert(source, parts))["ok"]


class TestBruteDiamChannels:
    def test_polyphase_exact(self):
        payload = {"phase": PolyPhase.monomial([0, "1/4"]).to_json()}
        from fractions import Fraction

        assert brute_diam(payload, Progression(1, 1, 2)) == Fraction(1, 4)

    def test_nil_torus_constant_function(self):
        payload = {
            "manifold": {"kind": "torus", "dim": 1, "complexity": 1},
            "sequence": {"coords": [PolyPhase.monomial([0, "1/3"]).to_json()]},
            "function": {"prefactor_re": 1.0, "prefactor_im": 0.0, "factors": []},
        }
        assert brute_diam(payload, Progression(1, 1, 30), channel="nilsequence") == 0.0

    def test_nil_torus_character(self):
        payload = {
            "manifold": {"kind": "torus", "dim": 1, "complexity": 1},
            "sequence": {"coords": [PolyPhase.monomial([0, "1/2"]).to_json()]},
            "function": {
                "prefactor_re": 1.0,
                "prefactor_im": 0.0,
                "factors": [{"coord": 0, "kind": "exp", "k": 1, "shift": 0.0}],
            },
        }
        # values alternate between -1 and 1
        d = brute_diam(payload, Progression(1, 1, 10), channel="nilsequence")
        assert abs(d - 2.0) < 1e-12


def _pairwise_circle_diam(vals):
    """Reference for the verifier's sweep: every pair of exact residues,
    one numpy row per point (needs the common denominator below 2^62)."""
    vals = [v - (v.numerator // v.denominator) for v in vals]
    D = math.lcm(*(v.denominator for v in vals))
    assert D < 2**62
    u = np.array([v.numerator * (D // v.denominator) for v in vals], dtype=np.int64)
    best = 0
    for i in range(len(u) - 1):
        d = np.abs(u[i + 1 :] - u[i])
        best = max(best, int(np.minimum(d, D - d).max()))
    return Fraction(best, D)


def test_brute_diam_sweep_matches_pairwise():
    rng = random.Random(2026)
    lengths = [1, 2, 3, 4, 5, 17, 250, 1000, 2000, 2000]
    for L in lengths + [rng.randint(1, 2000) for _ in range(6)]:
        basis = rng.choice(["binomial", "monomial"])
        deg = rng.randint(0, 3)
        if rng.random() < 0.3:
            coeffs = [rng.uniform(-4, 4) for _ in range(deg + 1)]  # dyadic denominators
        else:
            coeffs = [Fraction(rng.randint(-500, 500), rng.randint(1, 300)) for _ in range(deg + 1)]
        phi = PolyPhase(coeffs, basis)
        P = Progression(rng.randint(-(10**5), 10**5), rng.choice([-7, -1, 1, 3, 12]), L)
        if basis == "monomial":
            terms = [lambda n, j=j: n**j for j in range(deg + 1)]
        else:
            terms = [lambda n, j=j: Fraction(math.prod(n - i for i in range(j)), math.factorial(j))
                     for j in range(deg + 1)]
        vals = [sum(Fraction(c) * t(n) for c, t in zip(coeffs, terms)) for n in P.elements()]
        assert brute_diam({"phase": phi.to_json()}, P) == _pairwise_circle_diam(vals), (L, basis, coeffs)


# ---------------------------------------------------------------------
# Exact Fraction reference for the verifier's integer points


def _phase_value_real(ph, n):
    """phi(n) without the mod-1 reduction, exact, from the serialized
    coefficients: sum c_j n^j, or sum c_j C(n, j) with C(n, j) the
    falling factorial over j!."""
    cs = [Fraction(c) if ph["exact"] else Fraction(float(c)) for c in ph["coeffs"]]
    if ph["basis"] == "monomial":
        return sum(c * n**j for j, c in enumerate(cs))
    return sum(c * math.prod(n - i for i in range(j)) / math.factorial(j) for j, c in enumerate(cs))


def _ffrac(x):
    return x - (x.numerator // x.denominator)


def _heisenberg_reduce(x, y, z):
    """Fundamental-domain representative: reduce x, y to [0,1) by right
    lattice multiplication, correcting z by the group law, then reduce z."""
    return _ffrac(x), _ffrac(y), _ffrac(z - x * (y.numerator // y.denominator))


def _reference_value(payload, n):
    """The function's value at the reduced point of n: Fraction
    coordinates, each rounded to float once, then the catalog factors."""
    reals = [_phase_value_real(ph, n) for ph in payload["sequence"]["coords"]]
    if payload["manifold"]["kind"] == "heisenberg":
        coords = _heisenberg_reduce(*reals)
    else:
        coords = [_ffrac(v) for v in reals]
    fn = payload["function"]
    val = complex(fn["prefactor_re"], fn["prefactor_im"])
    for fac in fn["factors"]:
        u = float(coords[fac["coord"]]) + float(fac["shift"])
        if fac["kind"] == "bump":
            val *= math.cos(math.pi * u) ** 2
        else:
            w = cmath.exp(2j * math.pi * fac["k"] * u)
            val *= {"exp": w, "exp_re": w.real, "exp_im": w.imag}[fac["kind"]]
    return val


@st.composite
def _serialized_phase(draw):
    deg = draw(st.integers(1, 2))
    exact = draw(st.booleans())
    if exact:
        coeffs = [
            f"{draw(st.integers(-(10**7), 10**7))}/{draw(st.integers(1, 10**6))}"
            for _ in range(deg + 1)
        ]
    else:
        coeffs = [repr(draw(st.floats(-10, 10, allow_nan=False))) for _ in range(deg + 1)]
    basis = draw(st.sampled_from(["monomial", "binomial"]))
    return {"basis": basis, "coeffs": coeffs, "exact": exact}


@st.composite
def _nil_payload(draw):
    kind = draw(st.sampled_from(["heisenberg", "torus:1", "torus:2"]))
    dim = 3 if kind == "heisenberg" else int(kind[-1])
    factors = draw(st.lists(
        st.fixed_dictionaries({
            "coord": st.integers(0, dim - 1),
            "kind": st.sampled_from(["exp", "exp_re", "exp_im", "bump"]),
            "k": st.integers(-3, 3),
            "shift": st.floats(-1, 1, allow_nan=False),
        }),
        min_size=1, max_size=4,
    ))
    return {
        "manifold": {"kind": kind.split(":")[0], "dim": dim},
        "sequence": {"coords": [draw(_serialized_phase()) for _ in range(dim)]},
        "function": {
            "prefactor_re": draw(st.floats(-2, 2, allow_nan=False)),
            "prefactor_im": draw(st.floats(-2, 2, allow_nan=False)),
            "factors": factors,
        },
    }


@given(payload=_nil_payload(), ns=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_integer_points_bit_identical_to_fractions(payload, ns):
    value, _ = _nil_value_fn(payload)
    got = np.array([value(n) for n in ns], dtype=complex)
    want = np.array([_reference_value(payload, n) for n in ns], dtype=complex)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (got, want)


def test_brute_diam_negative_step_nil_pinned():
    # every coordinate read, z through the group law's correction
    payload = {
        "manifold": {"kind": "heisenberg", "dim": 3},
        "sequence": {"coords": [
            PolyPhase.binomial([0, "1/1000", "1/3"]).to_json(),
            PolyPhase.monomial([0, "7/1000"]).to_json(),
            PolyPhase.binomial([0, 0.0001]).to_json(),
        ]},
        "function": {"prefactor_re": 1.0, "prefactor_im": 0.0, "factors": [
            {"coord": 0, "kind": "exp", "k": 1, "shift": 0.0},
            {"coord": 1, "kind": "bump", "k": 1, "shift": 0.25},
            {"coord": 2, "kind": "exp_im", "k": 2, "shift": 0.0},
        ]},
    }
    P = Progression(700, -3, 40)
    d = brute_diam(payload, P, channel="nilsequence")
    assert d == 1.10077100053851
    vals = [_reference_value(payload, n) for n in P.elements()]
    assert abs(d - max(abs(a - b) for a in vals for b in vals)) < 1e-15


def _one_part_cert(channel, payload, P, diam, eps):
    return {
        "channel": channel, "source": P.to_json(), "epsilon": eps, "min_len": P.len,
        "parts": [dict(P.to_json(), diam=diam)], "payload": payload,
    }


def _torus1(phase, factors):
    return {
        "manifold": {"kind": "torus", "dim": 1},
        "sequence": {"coords": [phase.to_json()]},
        "function": {"prefactor_re": 1.0, "prefactor_im": 0.0, "factors": factors},
    }


_E_X = [{"coord": 0, "kind": "exp", "k": 1, "shift": 0.0}]


class TestBruteDiamBudget:
    def test_million_point_certificate_verifies(self):
        # over 10^6 points: the default budget is the only limit
        P = Progression(1, 1, 10**6 + 1)
        payload = {"phase": PolyPhase.monomial([0, 1]).to_json()}
        report = verify_certificate(_one_part_cert("polyphase", payload, P, 0.0, 0.1))
        assert report["ok"] and report["min_len"] == 10**6 + 1

    def test_million_point_certificate_lists_no_points(self):
        # neither the coverage check nor brute_diam lists the points, so
        # memory stays at a few bytes a point, where a list of them takes
        # 36.  A constant phase allocates no integer in its Horner steps,
        # each of which tracemalloc would trace
        import tracemalloc

        P = Progression(1, 1, 10**6 + 1)
        payload = {"phase": PolyPhase.monomial([0]).to_json()}
        tracemalloc.start()
        try:
            report = verify_certificate(_one_part_cert("polyphase", payload, P, 0.0, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["ok"]
        assert peak < 4 * 10**6

    def test_points_charged(self, monkeypatch):
        payload = {"phase": PolyPhase.monomial([0, "1/4"]).to_json()}
        P = Progression(1, 1, 1000)
        monkeypatch.setenv("APINC_BUDGET", "1000")
        assert brute_diam(payload, P) == Fraction(1, 2)
        monkeypatch.setenv("APINC_BUDGET", "999")
        with pytest.raises(BudgetExceededError):
            brute_diam(payload, P)

    def test_points_charged_by_degree(self, monkeypatch):
        # a degree-3 phase: 3 Horner steps a point, after an expansion of 4^3
        payload = {"phase": PolyPhase.binomial([0, "1/4", "1/8", "1/16"]).to_json()}
        P = Progression(1, 1, 100)
        monkeypatch.setenv("APINC_BUDGET", "300")
        assert brute_diam(payload, P) > 0
        assert verify_certificate(_one_part_cert("polyphase", payload, P, 0.5, 0.5))["ok"]
        monkeypatch.setenv("APINC_BUDGET", "299")
        with pytest.raises(BudgetExceededError):
            brute_diam(payload, P)
        with pytest.raises(BudgetExceededError):
            verify_certificate(_one_part_cert("polyphase", payload, P, 0.5, 0.5))
        monkeypatch.setenv("APINC_BUDGET", "63")
        with pytest.raises(BudgetExceededError, match="expansion"):
            brute_diam(payload, Progression(1, 1, 1))

    def test_nil_pairs_charged(self, monkeypatch):
        payload = _torus1(PolyPhase.monomial([0, "1/2"]), _E_X)
        P = Progression(1, 1, 100)
        monkeypatch.setenv("APINC_BUDGET", "4950")
        assert brute_diam(payload, P, channel="nilsequence") == 2.0
        monkeypatch.setenv("APINC_BUDGET", "4949")
        with pytest.raises(BudgetExceededError):
            brute_diam(payload, P, channel="nilsequence")


def _heisenberg_cert(N=500):
    g = PolySequence(
        [PolyPhase.monomial([0, math.sqrt(2)]), PolyPhase.monomial([0, math.sqrt(3)]), PolyPhase.zero()]
    )
    return partition_nilsequence(
        Nilmanifold.heisenberg(), g, lipschitz_catalog("e(x)*cutoff"), Progression(1, 1, N), 0.1
    ).to_json()


def _phase_cert():
    phi = PolyPhase.monomial([0, math.sqrt(2), math.sqrt(3) / 2])
    return partition_polyphase(phi, Progression(1, 1, 600), 0.05).to_json()


class TestFactorFields:
    # a bool is an int to Python and a negative index reads from the end:
    # "coord": true would read y, and -2 would read x
    @pytest.mark.parametrize("coord", [True, -1, -2, 1.0, 3, "1"])
    def test_coord_must_name_a_coordinate(self, coord):
        cert = _heisenberg_cert(40)
        cert["payload"]["function"]["factors"][1]["coord"] = coord
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "malformed-certificate"

    # 2*pi*10**308 overflows to an infinite frequency, whose values are NaN
    @pytest.mark.parametrize("k", [True, 0.5, 10**308], ids=["True", "0.5", "10**308"])
    def test_k_must_be_an_integer(self, k):
        cert = _heisenberg_cert(40)
        cert["payload"]["function"]["factors"][0]["k"] = k
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "malformed-certificate"

    # finite k and shift whose product overflows: for the exp factor the
    # first point's argument 2*pi*10**307 * 1.9 is finite, and a later
    # point's, at u = 0.99, is not
    @pytest.mark.parametrize(
        "kind, k, shift", [("exp", 10**307, 1.9), ("bump", 1, 1e308)], ids=["exp", "bump"]
    )
    def test_factor_argument_must_not_overflow(self, kind, k, shift):
        payload = _torus1(PolyPhase.monomial([0, "1/100"]), [{"coord": 0, "kind": kind, "k": k, "shift": shift}])
        cert = _one_part_cert("nilsequence", payload, Progression(0, 1, 100), 0.0, 2.0)
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "malformed-certificate"


class TestOnePointParts:
    def _spy(self, monkeypatch):
        calls = []
        real = oracle.brute_diam

        def spy(payload, P, channel="polyphase"):
            calls.append(P)
            return real(payload, P, channel=channel)

        monkeypatch.setattr(oracle, "brute_diam", spy)
        return calls

    def test_heisenberg_singletons_not_evaluated(self, monkeypatch):
        cert = _heisenberg_cert()
        assert all(p["len"] == 1 for p in cert["parts"])
        calls = self._spy(monkeypatch)
        assert verify_certificate(cert)["ok"]
        assert calls == []

    def test_one_call_per_longer_part(self, monkeypatch):
        cert = _phase_cert()
        lens = [p["len"] for p in cert["parts"]]
        assert 1 in lens and 2 in lens
        calls = self._spy(monkeypatch)
        assert verify_certificate(cert)["ok"]
        assert calls == [Progression(*oracle._triple(p)) for p in cert["parts"] if p["len"] >= 2]

    def test_criterion_5_certificate_measures_its_735_longer_parts(self, monkeypatch):
        # parts are read as integer triples; brute_diam still receives a
        # progression, with its .len, for each multi-point part alone
        phi = PolyPhase.binomial([0, math.sqrt(2), math.sqrt(3)])
        cert = partition_polyphase(phi, Progression(1, 1, 20000), 0.05).to_json()
        calls = self._spy(monkeypatch)
        assert verify_certificate(cert)["ok"]
        assert len(calls) == 735 and min(P.len for P in calls) == 2
        assert sum(P.len * (P.len - 1) // 2 for P in calls) == 3264

    @pytest.mark.parametrize("make", [_phase_cert, _heisenberg_cert], ids=["phase", "nil"])
    def test_singleton_witness_compared_with_zero(self, make):
        cert = make()
        i = next(i for i, p in enumerate(cert["parts"]) if p["len"] == 1)
        cert["parts"][i]["diam"] = VERIFY_TOL
        assert verify_certificate(cert)["ok"]
        cert["parts"][i]["diam"] = 2.0**-29
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "witness-mismatch"

    @pytest.mark.parametrize(
        "channel, payload, diam",
        [
            ("polyphase", {"phase": PolyPhase.monomial([0, "1/2"]).to_json()}, 0.5),
            ("nilsequence", _torus1(PolyPhase.monomial([0, "1/2"]), _E_X), 2.0),
        ],
        ids=["phase", "nil"],
    )
    def test_two_point_part_still_measured(self, channel, payload, diam):
        P = Progression(1, 1, 2)
        assert verify_certificate(_one_part_cert(channel, payload, P, diam, diam))["ok"]
        with pytest.raises(CertificateError) as ei:
            verify_certificate(_one_part_cert(channel, payload, P, diam, 0.1))
        assert ei.value.reason == "diam-exceeds-epsilon"
        with pytest.raises(CertificateError) as ei:
            verify_certificate(_one_part_cert(channel, payload, P, 0.0, diam))
        assert ei.value.reason == "witness-mismatch"
