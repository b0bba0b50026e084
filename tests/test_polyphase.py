import hashlib
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apinc.errors import BudgetExceededError, InvalidArgumentError, PreconditionError
from apinc.oracle import _horner, _parse_channel, _phase_poly, brute_diam, verify_certificate
from apinc.polyphase import (
    BUDGET_WEIGHT,
    PolyPhase,
    _diam_num,
    _linear_diameters,
    _values,
    _within,
    circle_diam,
    diam_on,
    lift,
    partition_polyphase,
    reduce_degree_partition,
)
from apinc.progressions import Progression

GOLDEN = 0.6180339887498949  # frac((sqrt(5)-1)/2), as a double

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=64
)


def in_basis(phi, basis):
    """The same kernel read in `basis`: its `coeffs` are converted there."""
    return PolyPhase._from_kernel(phi.den, phi.num, basis, phi.exact)


def elements(Q):
    """The elements of the part Q = (base, step, len), in index order."""
    base, step, n = Q
    return [base + i * step for i in range(n)]


def compose_affine(phi, a, b):
    """Reference: the phase m -> phi(a*m + b) for integers a and b,
    through the kernel's rational composition."""
    assert isinstance(a, int) and isinstance(b, int)
    return phi.compose_affine_frac(a, b)


class TestEval:
    def test_zero_phase(self):
        assert PolyPhase.zero().eval(12345) == 0

    def test_half_n(self):
        phi = PolyPhase.monomial([0, Fraction(1, 2)])
        assert phi.eval(7) == Fraction(1, 2)
        assert phi.eval(8) == 0

    def test_binomial_third(self):
        phi = PolyPhase.binomial([0, 0, Fraction(1, 3)])
        # C(5,2) = 10, 10/3 mod 1 = 1/3
        assert phi.eval(5) == Fraction(1, 3)

    def test_float_coeff_lifts_exactly(self):
        phi = PolyPhase.monomial([0, 0.5])
        assert phi.exact is False
        assert phi.eval(3) == Fraction(1, 2)  # 0.5 is exactly dyadic

    @given(
        coeffs=st.lists(rationals, min_size=1, max_size=4),
        n=st.integers(-50, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_basis_agreement(self, coeffs, n):
        phi = PolyPhase.monomial(coeffs)
        assert phi.eval(n) == sum(c * n**i for i, c in enumerate(coeffs)) % 1

    @given(coeffs=st.lists(rationals, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_basis_roundtrip(self, coeffs):
        # binomial -> monomial coefficients -> re-entered as monomial
        phi = PolyPhase.binomial(coeffs)
        back = PolyPhase.monomial(in_basis(phi, "monomial").coeffs)
        assert [Fraction(p, back.den) for p in back.num] == list(phi.coeffs)

    def test_json_roundtrip(self):
        # the verifier, the one reader of a serialized phase, reads back its values
        for phi in (PolyPhase.binomial([Fraction(1, 3), Fraction(2, 7)]), PolyPhase.monomial([0, 0.1, GOLDEN])):
            D, T = _phase_poly(phi.to_json())
            assert all(Fraction(_horner(T, n) % D, D) == phi.eval(n) for n in range(-50, 50))

    @pytest.mark.parametrize("value", ["false", 0, None, [], "yes"])
    def test_json_exact_must_be_boolean(self, value):
        obj = PolyPhase.monomial([0, 0.1]).to_json()
        assert _phase_poly(obj) == (2**55, (0, 3602879701896397))  # the double 0.1
        assert _phase_poly({"basis": "monomial", "coeffs": ["0", "0.1"]}) == (10, (0, 1))
        with pytest.raises(InvalidArgumentError):
            _phase_poly(dict(obj, exact=value))


class TestComposeAffine:
    def test_shift_quadratic(self):
        # phi(n) = n^2/5 composed with n -> n+1
        phi = PolyPhase.monomial([0, 0, Fraction(1, 5)])
        psi = compose_affine(phi, 1, 1)
        for m in range(-10, 11):
            assert psi.eval(m) == phi.eval(m + 1)

    @given(
        coeffs=st.lists(rationals, min_size=1, max_size=4),
        a=st.integers(-6, 6),
        b=st.integers(-20, 20),
        m=st.integers(-30, 30),
    )
    @settings(max_examples=300, deadline=None)
    def test_pointwise(self, coeffs, a, b, m):
        phi = PolyPhase.binomial(coeffs)
        psi = compose_affine(phi, a, b)
        assert psi.eval(m) == phi.eval(a * m + b)

    @given(
        coeffs=st.lists(rationals, min_size=1, max_size=3),
        a1=st.integers(-4, 4),
        b1=st.integers(-8, 8),
        a2=st.integers(-4, 4),
        b2=st.integers(-8, 8),
        m=st.integers(-20, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_composition_coherent(self, coeffs, a1, b1, a2, b2, m):
        # (phi . g) . h  ==  phi . (g . h) pointwise, exactly
        phi = PolyPhase.monomial(coeffs)
        lhs = compose_affine(compose_affine(phi, a1, b1), a2, b2)
        rhs = compose_affine(phi, a1 * a2, a1 * b2 + b1)
        assert lhs.eval(m) == rhs.eval(m)


class TestDiam:
    def test_constant(self):
        assert diam_on(PolyPhase.constant(Fraction(1, 3)), Progression(1, 1, 50)) == 0

    def test_n_third_wraps(self):
        phi = PolyPhase.monomial([0, Fraction(1, 3)])
        assert diam_on(phi, Progression(1, 1, 100)) == Fraction(1, 3)

    def test_small_slope(self):
        phi = PolyPhase.monomial([0, 0.001])
        d = diam_on(phi, Progression(1, 1, 100))
        assert abs(d - 0.099) < 1e-12

    def test_circle_metric_not_interval(self):
        # 0.05 and 0.95 are 0.1 apart on the circle
        assert circle_diam([Fraction(1, 20), Fraction(19, 20)]) == Fraction(1, 10)

    @given(vals=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=97), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_antipode_scan_matches_pairwise(self, vals):
        assert circle_diam(vals) == ref_diam(vals)


class TestReduceDegree:
    def test_half_n_residues(self):
        phi = PolyPhase.monomial([0, Fraction(1, 2)])
        out = reduce_degree_partition(phi, (1, 1, 16), Fraction(1, 100))
        for part, state in out:
            psi = state()
            assert psi.degree < phi.degree
            assert brute_diam_phase(phi - psi, part) <= Fraction(1, 100)
        covered = sorted(x for part, _ in out for x in elements(part))
        assert covered == list(range(1, 17))

    def test_constant_mod_one(self):
        phi = PolyPhase.monomial([Fraction(1, 3), 0])
        # nothing is left to reduce: the part is kept whole, with no state
        out = reduce_degree_partition(phi, (1, 1, 40), Fraction(1, 10))
        assert out == [((1, 1, 40), None)]

    @given(
        coeffs=st.lists(rationals, min_size=2, max_size=3),
        length=st.integers(4, 120),
        theta=st.fractions(min_value=Fraction(1, 64), max_value=Fraction(1, 4), max_denominator=64),
        base=st.integers(-50, 50),
        step=st.sampled_from([1, 1, 2, -1, -3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_contract(self, coeffs, length, theta, base, step):
        phi = PolyPhase.monomial(coeffs)
        P = (base, step, length)
        out = reduce_degree_partition(phi, P, theta)
        covered = []
        s = phi.degree
        for part, state in out:
            covered.extend(elements(part))
            if s == 0:  # the phase itself is within theta
                assert state is None
                assert brute_diam_phase(phi, part) <= theta
                continue
            psi = state()
            assert psi.degree <= s - 1
            assert brute_diam_phase(phi - psi, part) <= theta
        assert sorted(covered) == sorted(elements(P))

    @given(
        coeffs=st.lists(rationals, min_size=2, max_size=3),
        top=st.one_of(st.none(), st.integers(1, 5)),
        length=st.integers(4, 200),
        theta=st.fractions(min_value=Fraction(1, 256), max_value=Fraction(1, 4), max_denominator=256),
        base=st.integers(-(10**6), 10**6),
        step=st.sampled_from([1, 2, -1, -3, 7]),
    )
    @example(  # a failed block's first half passes where the block did not
        coeffs=[Fraction(-9, 2), Fraction(-153, 46), Fraction(216, 25)],
        top=1,
        length=21,
        theta=Fraction(7, 32),
        base=619077,
        step=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_tail_memo_changes_nothing(self, coeffs, top, length, theta, base, step):
        # the memo on (tail, part length) gives the parts and companions
        # of a fresh tail check per part.  An integer top binomial
        # coefficient leaves a tail the block length does not bound, so
        # blocks fail and are halved, and a first half shares its tail
        import apinc.polyphase as polyphase

        phi = PolyPhase.binomial(coeffs + ([] if top is None else [top]))
        P = (base, step, length)
        memo = reduce_degree_partition(phi, P, theta)
        tail_fits = polyphase._tail_fits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                polyphase,
                "_tail_fits",
                lambda phi, s, dl, theta, tested, R: tail_fits(phi, s, dl, theta, {}, R),
            )
            fresh = reduce_degree_partition(phi, P, theta)
        assert built(memo) == built(fresh)

    def test_repair_never_checks_a_point(self, monkeypatch):
        # a point always fits: in both channels, repair keeps the points
        # of a halved part without passing them to the channel's check
        import apinc.nil as nil
        import apinc.polyphase as polyphase
        from apinc.nil import Nilmanifold, PolySequence, lipschitz_catalog, reduce_dimension

        calls = {}  # module -> (lengths kept, lengths checked)

        def spy_repair(module):
            kept, checked = calls[module] = [], []
            repair = module.repair

            def spy(parts, fits):
                out = repair(parts, lambda R: checked.append(R[2]) or fits(R))
                kept.extend(n for _, _, n in out)
                return out

            monkeypatch.setattr(module, "repair", spy)

        spy_repair(polyphase)
        spy_repair(nil)
        phi = PolyPhase.binomial([0, math.sqrt(2), math.sqrt(3)])
        reduce_degree_partition(phi, (1, 1, 200), Fraction(1, 100))
        g = PolySequence(
            [PolyPhase.monomial([0, math.sqrt(2)]), PolyPhase.monomial([0, math.sqrt(3)]), PolyPhase.zero()]
        )
        F = lipschitz_catalog("e(x)*cutoff")
        for eps in (Fraction(1, 10), Fraction(1, 2)):  # pivot parts of length 1, then 4-6
            reduce_dimension(Nilmanifold.heisenberg(), g, F, (1, 1, 300), eps)
        for kept, checked in calls.values():
            assert 1 in kept and 1 not in checked
            assert checked


def built(pairs):
    """Each part with the (den, num) of the phase its state builds."""
    return [(R, state and (state().den, state().num)) for R, state in pairs]


def brute_diam_phase(phi, part):
    return circle_diam([phi.eval(n) for n in elements(part)])


def assert_merged_maximal(cert, coeffs, eps):
    """Every part of a binomial-basis phase's certificate is within eps
    with an exact witness, and every union the merge tried and refused
    (one that starts a part where another ends, with its step or as a
    point) exceeds it."""

    def diam(parts):
        return ref_diam([ref_value(coeffs, "binomial", n) for p in parts for n in elements(p)])

    for p, w in zip(cert.parts, cert.diam_witness):
        assert diam([p]) <= Fraction(eps) and w == float(diam([p]))
    by_base = {p[0]: p for p in cert.parts}
    for M in cert.parts:
        base, step, n = M
        N = by_base.get(base + n * step)
        if N is not None and (N[1] == step or N[2] == 1):
            assert diam([M, N]) > Fraction(eps)


class TestPartition:
    def test_trivial_phase_one_part(self):
        cert = partition_polyphase(PolyPhase.zero(), Progression(1, 1, 1000), 0.25)
        assert cert.num_parts == 1
        assert cert.diam_witness == [0.0]

    def test_half_n(self):
        cert = partition_polyphase(
            PolyPhase.monomial([0, Fraction(1, 2)]), Progression(1, 1, 100), 0.1
        )
        assert all(w == 0.0 for w in cert.diam_witness)
        assert all(step % 2 == 0 or n == 1 for _, step, n in cert.parts)

    def test_verifier_accepts(self):
        phi = PolyPhase.binomial([0, Fraction(3, 64), Fraction(5, 64)])
        cert = partition_polyphase(phi, Progression(1, 1, 512), 0.05)
        report = verify_certificate(cert.to_json())
        assert report["ok"] and report["channel"] == "polyphase"
        assert report["max_diam"] <= 0.05

    def test_epsilon_monotone(self):
        phi = PolyPhase.monomial([0, GOLDEN])
        P = Progression(1, 1, 400)
        n_fine = partition_polyphase(phi, P, 0.05).num_parts
        n_coarse = partition_polyphase(phi, P, 0.2).num_parts
        assert n_coarse <= n_fine

    @given(
        coeffs=st.lists(rationals, min_size=1, max_size=3),
        length=st.integers(1, 200),
        eps=st.fractions(min_value=Fraction(1, 32), max_value=Fraction(1, 2), max_denominator=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_soundness(self, coeffs, length, eps):
        phi = PolyPhase.binomial(coeffs)
        P = Progression(1, 1, length)
        cert = partition_polyphase(phi, P, eps)
        covered = sorted(x for p in cert.parts for x in elements(p))
        assert covered == P.elements()
        for p, w in zip(cert.parts, cert.diam_witness):
            true_diam = brute_diam_phase(phi, p)
            assert true_diam <= eps
            assert abs(float(true_diam) - w) < 1e-12
        report = verify_certificate(cert.to_json())
        assert report["ok"]

    @given(
        nums=st.lists(st.integers(-40, 40), min_size=2, max_size=3),
        den=st.sampled_from([3, 7, 10, 20, 40, 60]),
        eps=st.one_of(st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.3, 1 / 3, 0.45]), st.floats(0.01, 0.5)),
        base=st.integers(-100, 100),
        step=st.integers(1, 9),
        length=st.integers(2, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_limit_is_exact(self, nums, den, eps, base, step, length):
        # small denominators put part diameters on eps's exact value, which
        # a float eps such as 0.05 (above 1/20) or 0.3 (below 3/10) misses
        # by under 2^-50: every part is within eps, and every union the
        # merge tried and refused (one that starts a part where another
        # ends, with its step or as a point) exceeds it
        coeffs = [Fraction(a, den) for a in nums]
        cert = partition_polyphase(PolyPhase.binomial(coeffs), Progression(base, step, length), eps)
        assert_merged_maximal(cert, coeffs, eps)

    def test_negative_step_source(self):
        # witnesses sliced from the root's residues equal a recompute on
        # each part, on a source walked downwards, and the merge walks it
        # downwards too: no two adjacent parts could have been joined
        coeffs = [0, Fraction(1, 7), Fraction(1, 50000)]
        phi = PolyPhase.binomial(coeffs)
        cert = partition_polyphase(phi, Progression(600, -3, 200), 0.2)
        assert verify_certificate(cert)["ok"]
        assert any(n > 1 and step < 0 for _, step, n in cert.parts)
        for p, w in zip(cert.parts, cert.diam_witness):
            assert w == float(diam_on(phi, Progression(*p)))
        assert_merged_maximal(cert, coeffs, 0.2)
        assert cert.num_parts == 109
        # SHA-256 of the certificate as the merge that measured every
        # trial wrote it: negative-step index and junction arithmetic
        # must reproduce it byte for byte
        digest = hashlib.sha256(cert.to_json_text().encode()).hexdigest()
        assert digest == "522af9a1c65b2a3041f72076644e37bed431be570f0b37fc7774c301e3224ae7"

    def test_rejects_bad_eps(self):
        with pytest.raises(PreconditionError):
            partition_polyphase(PolyPhase.zero(), Progression(1, 1, 10), 0.9)

    def test_budget(self, monkeypatch):
        # degree 2 on 100 points: 100 * 3^2 work units
        phi = PolyPhase.binomial([0, Fraction(1, 7), Fraction(3, 11)])
        P = Progression(1, 1, 100)
        monkeypatch.setenv("APINC_BUDGET", "900")
        assert partition_polyphase(phi, P, 0.1).num_parts >= 1
        monkeypatch.setenv("APINC_BUDGET", "899")
        with pytest.raises(BudgetExceededError):
            partition_polyphase(phi, P, 0.1)


def reduced_leaves(phi, Q, eps):
    """The parts that the recursion keeps from Q when every part that
    fails its fit check is cut by `reduce_degree_partition`, until no
    state is left, with no shortcut for a failing pair."""
    leaves = []

    def visit(R, state):
        if R[2] == 1 or diam_on(phi, Progression(*R)) <= eps or state is None:
            leaves.append(R)
            return
        phase = state()
        for S, child in reduce_degree_partition(phase, R, eps * BUDGET_WEIGHT / max(phase.degree, 1) ** 2):
            visit(S, child)

    visit(Q, lambda: phi)
    return leaves


class TestFailingPair:
    @given(
        coeffs=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=10**6), min_size=2, max_size=4
        ),
        top=st.sampled_from([1, Fraction(1, 1000)]),
        base=st.integers(-(10**12), 10**12),
        step=st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6)).filter(bool),
        eps=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 2), max_denominator=1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_reductions_leave_only_points(self, coeffs, top, base, step, eps):
        # the skeleton splits a failing pair without reducing it: every
        # reduction of that pair ends in the same two points.  A small
        # top coefficient and step make some reductions keep the pair
        # whole with a lower-degree companion before a later one splits it
        phi = PolyPhase.binomial(coeffs[:-1] + [coeffs[-1] * top])
        Q = Progression(base, step, 2)
        assume(1 <= phi.degree and diam_on(phi, Q) > eps)
        leaves = reduced_leaves(phi, (base, step, 2), eps)
        assert sorted(b for b, _, _ in leaves) == sorted(Q.elements())
        assert all(n == 1 for _, _, n in leaves)
        points = partition_polyphase(phi, Q, eps).parts
        assert points == sorted(leaves)


def test_criterion_5_input_reduces_once(monkeypatch):
    # the degree-2 Weyl step cuts 1..20000 into blocks of length <= 2:
    # those that fail split in the skeleton, so the root is the only
    # reduction, no block's companion is built, and equal blocks share
    # one tail check; a merge trial equal to a part the visit measured
    # over the limit is refused unmeasured, a pair is read in place, and
    # a longer trial whose junction pair is over the limit is refused
    # unmeasured, which leaves 999 diameter evaluations: the root, the
    # one tail check and 997 merge trials of three or more points (19940
    # when every pair and every unrefused trial was measured)
    import apinc.polyphase as polyphase

    reduced, tails, diams, companions, expansions = [], [], [], [], []
    reduce, within, diam_num = polyphase.reduce_degree_partition, polyphase._within, polyphase._diam_num
    local_monomial = polyphase._local_monomial

    def spy_reduce(phi, P, theta):
        reduced.append(P)
        return reduce(phi, P, theta)

    def spy_within(num, den, length, bound):
        tails.append((tuple(num), den, length, bound))
        return within(num, den, length, bound)

    def spy_diam_num(res, den, limit):
        diams.append(len(res))
        return diam_num(res, den, limit)

    def spy_local_monomial(phi, Q):
        expansions.append(Q)
        return local_monomial(phi, Q)

    monkeypatch.setattr(polyphase, "reduce_degree_partition", spy_reduce)
    monkeypatch.setattr(polyphase, "_within", spy_within)
    monkeypatch.setattr(polyphase, "_diam_num", spy_diam_num)
    monkeypatch.setattr(polyphase, "companion", lambda phi, R: companions.append(R))
    monkeypatch.setattr(polyphase, "_local_monomial", spy_local_monomial)
    P = Progression(1, 1, 20000)
    cert = partition_polyphase(PolyPhase.binomial([0, math.sqrt(2), math.sqrt(3)]), P, 0.05)
    assert reduced == [(1, 1, 20000)]
    assert companions == []
    assert 0 < len(tails) == len(set(tails))
    assert cert.num_parts == 18733
    assert len(diams) == 999
    # a top-degree tail is keyed by the block's step: no block is expanded
    # (9983 were), only the source, for its leading coefficient
    assert expansions == [(1, 1, 20000)]


def test_partitions_build_a_progression_only_at_the_boundary(monkeypatch):
    # a part is a (base, step, len) tuple from the source to the
    # certificate: criterion 5's build constructs its source alone, and
    # Heisenberg 1..5000 its source and the pivot partition's source
    # (the parts are points, so no deviation check runs)
    from apinc.nil import Nilmanifold, PolySequence, lipschitz_catalog, partition_nilsequence

    built, post_init = [], Progression.__post_init__

    def spy_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Progression, "__post_init__", spy_post_init)
    phi = PolyPhase.binomial([0, math.sqrt(2), math.sqrt(3)])
    cert = partition_polyphase(phi, Progression(1, 1, 20000), 0.05)
    assert len(built) == 1
    g = PolySequence(
        [PolyPhase.monomial([0, math.sqrt(2)]), PolyPhase.monomial([0, math.sqrt(3)]), PolyPhase.zero()]
    )
    built.clear()
    nil_cert = partition_nilsequence(
        Nilmanifold.heisenberg(), g, lipschitz_catalog("e(x)*cutoff"), Progression(1, 1, 5000), 0.1
    )
    assert len(built) == 2
    for p in cert.parts + nil_cert.parts:
        assert type(p) is tuple and len(p) == 3 and all(type(x) is int for x in p)


def test_one_level_steps_see_only_checked_inputs(monkeypatch):
    # neither one-level step checks its input: refine hands it a part of
    # at least 3 points (it keeps a point and splits a pair), and the
    # budget comes from the eps its entry point checked, at most 1/2.
    # Criterion 5's input and Heisenberg 1..5000 at eps 0.5, whose
    # recursion reaches its second level, run both steps
    import apinc.nil as nil
    import apinc.polyphase as polyphase
    from apinc.nil import Nilmanifold, PolySequence, lipschitz_catalog, partition_nilsequence

    seen = {"reduce_degree_partition": [], "reduce_dimension": []}
    for module, name in ((polyphase, "reduce_degree_partition"), (nil, "reduce_dimension")):
        def spy(*args, step=getattr(module, name), calls=seen[name]):
            calls.append(args[-2:])  # (part, budget)
            return step(*args)

        monkeypatch.setattr(module, name, spy)
    partition_polyphase(PolyPhase.binomial([0, math.sqrt(2), math.sqrt(3)]), Progression(1, 1, 20000), 0.05)
    g = PolySequence(
        [PolyPhase.monomial([0, math.sqrt(2)]), PolyPhase.monomial([0, math.sqrt(3)]), PolyPhase.zero()]
    )
    cert = partition_nilsequence(
        Nilmanifold.heisenberg(), g, lipschitz_catalog("e(x)*cutoff"), Progression(1, 1, 5000), 0.5
    )
    assert cert.payload["depth"] == 2
    for calls in seen.values():
        assert calls
        assert all(n >= 3 and 0 < budget <= Fraction(1, 2) for (_, _, n), budget in calls)


def test_oracle_brute_diam_agrees():
    phi = PolyPhase.binomial([0, Fraction(2, 7), Fraction(3, 11)])
    P = Progression(3, 2, 60)
    chan = _parse_channel({"phase": phi.to_json()}, "polyphase")
    assert brute_diam(chan, P) == brute_diam_phase(phi, (3, 2, 60))


# ---------------------------------------------------------------------
# The integer kernel against from-scratch Fraction evaluation


def ref_value(coeffs, basis, x):
    """phi(x) evaluated directly in Fractions; x may be any rational."""
    x = Fraction(x)
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        c = Fraction(c)
        if basis == "monomial":
            total += c * x**j
        else:
            falling = Fraction(1)
            for i in range(j):
                falling *= x - i
            total += c * falling / math.factorial(j)
    return total


def ref_frac(x):
    return x - math.floor(x)


def ref_diam(vals):
    vals = [ref_frac(v) for v in vals]
    return max(
        (min(abs(a - b), 1 - abs(a - b)) for a in vals for b in vals),
        default=Fraction(0),
    )


def ref_diam_num(res, den):
    """Pairwise circle diameter, a numerator over den, of integer residues."""
    u = list({r % den for r in res})
    dists = ((b - a) % den for i, a in enumerate(u) for b in u[i + 1 :])
    return max((min(d, den - d) for d in dists), default=0)


huge_rationals = st.builds(
    Fraction, st.integers(-(2**210), 2**210), st.integers(1, 2**200)
)
float_coeffs = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
coefficient = st.one_of(rationals, huge_rationals, float_coeffs, st.integers(-9, 9))


@st.composite
def phases(draw):
    """(coefficients, basis): both bases, floats and huge denominators,
    sometimes an integer top coefficient (declared above true degree)."""
    coeffs = draw(st.lists(coefficient, min_size=1, max_size=4))
    if draw(st.booleans()):
        coeffs.append(draw(st.integers(-3, 3)))
    return coeffs, draw(st.sampled_from(["binomial", "monomial"]))


@st.composite
def progressions(draw, max_len=None):
    step = draw(st.integers(-40, 40).filter(bool))
    base = draw(st.integers(-(10**6), 10**6))
    return Progression(base, step, draw(st.integers(1, max_len or 40)))


class TestKernel:
    @given(ph=phases(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_values_on_progression(self, ph, data):
        coeffs, basis = ph
        phi = PolyPhase(coeffs, basis)
        # lengths 1 .. deg+2 cover the forward-difference start-up
        P = data.draw(progressions(max_len=data.draw(st.sampled_from([len(coeffs) + 1, 40]))))
        want = [ref_value(coeffs, basis, n) for n in P.elements()]
        assert [Fraction(v, phi.den) for v in phi.numerators(P)] == want
        assert [Fraction(r, phi.den) for r in phi.residues(P)] == [ref_frac(w) for w in want]
        assert [phi.eval(n) for n in P.elements()] == [ref_frac(w) for w in want]

    @given(ph=phases(), P=progressions())
    @settings(max_examples=200, deadline=None)
    def test_diameter(self, ph, P):
        coeffs, basis = ph
        phi = PolyPhase(coeffs, basis)
        want = ref_diam([ref_value(coeffs, basis, n) for n in P.elements()])
        got = diam_on(phi, P)
        assert got == (want if phi.exact else float(want))
        assert circle_diam([phi.eval(n) for n in P.elements()]) == want

    @given(ph=phases(), n=st.integers(-(10**4), 10**4))
    @settings(max_examples=200, deadline=None)
    def test_degree_and_bases(self, ph, n):
        coeffs, basis = ph
        phi = PolyPhase(coeffs, basis)
        d = len(coeffs) - 1
        # binomial coefficients are the forward differences at 0
        vals = [ref_value(coeffs, basis, t) for t in range(d + 1)]
        alphas = []
        for _ in range(d + 1):
            alphas.append(vals[0])
            vals = [b - a for a, b in zip(vals, vals[1:])]
        assert [Fraction(p, phi.den) for p in phi.num] == alphas
        assert phi.degree == max((j for j in range(1, d + 1) if alphas[j].denominator > 1), default=0)
        other = in_basis(phi, "monomial" if basis == "binomial" else "binomial")
        assert ref_value(other.coeffs, other.basis, n) == ref_value(coeffs, basis, n)

    @given(
        ph=phases(),
        a=st.integers(-30, 30),
        b=st.integers(-(10**5), 10**5),
        P=progressions(),
    )
    @settings(max_examples=200, deadline=None)
    def test_compose_integer(self, ph, a, b, P):
        coeffs, basis = ph
        psi = compose_affine(PolyPhase(coeffs, basis), a, b)
        want = [ref_frac(ref_value(coeffs, basis, a * m + b)) for m in P.elements()]
        assert [Fraction(r, psi.den) for r in psi.residues(P)] == want

    @given(
        ph=phases(),
        a=st.fractions(min_value=-20, max_value=20, max_denominator=50),
        b=st.fractions(min_value=-500, max_value=500, max_denominator=50),
        m=st.integers(-200, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_compose_rational(self, ph, a, b, m):
        coeffs, basis = ph
        psi = PolyPhase(coeffs, basis).compose_affine_frac(a, b)
        assert ref_value(psi.coeffs, psi.basis, m) == ref_value(coeffs, basis, a * m + b)
        assert psi.basis == basis and psi.declared_degree == len(coeffs) - 1


# ---------------------------------------------------------------------
# Linear phases: prefix-maximum diameters


@st.composite
def linear_phases(draw):
    """Phases of degree at most 1: rational or lifted-double slopes, an
    integer slope (c = 0), or a declared quadratic whose C(n,2) numerator
    is a multiple of the denominator."""
    kind = draw(st.sampled_from(["rational", "float", "integer-slope", "quadratic-multiple"]))
    if kind == "float":
        return PolyPhase.binomial(draw(st.lists(st.floats(-4, 4), min_size=1, max_size=2)))
    head = [draw(rationals), draw(st.integers(-3, 3) if kind == "integer-slope" else rationals)]
    if kind == "quadratic-multiple":
        head.append(draw(st.integers(-3, 3).filter(bool)))
    return PolyPhase.binomial(head)


class TestLinearDiameters:
    @given(
        phi=linear_phases(),
        eps=st.fractions(0, Fraction(1, 2)),
        parts=st.lists(
            st.tuples(st.integers(-300, 300), st.sampled_from([1, 2, 3, 7, -1, -2, -5]),
                      st.integers(1, 300)),
            min_size=1, max_size=6,
        ),
    )
    @example(phi=PolyPhase.binomial([Fraction(1, 3), Fraction(2, 7), 5]), eps=Fraction(1, 7),
             parts=[(4, -3, 9), (0, 1, 40), (9, 2, 3)])
    @settings(max_examples=300, deadline=None)
    def test_matches_residue_diameter(self, phi, eps, parts):
        # the tables, shared by parts of every step and length in any
        # order, give the exact diameter whenever it or their value is at
        # most the limit (so both are above it otherwise)
        assert phi.degree <= 1
        limit = eps.numerator * phi.den // eps.denominator
        diam_num = _linear_diameters(phi, limit)
        for Q in parts:
            got, exact = diam_num(Q), ref_diam_num(phi.residues(Progression(*Q)), phi.den)
            if got <= limit or exact <= limit:
                assert got == exact


# ---------------------------------------------------------------------
# Limit-aware diameters: exact up to the limit, a real distance above it


def assert_limit_aware(got, exact, limit):
    """A diameter exact when it is at most `limit`, and otherwise in
    (limit, exact]: a distance between two of the points."""
    if exact <= limit:
        assert got == exact
    else:
        assert limit < got <= exact


DENS = [1, 2, 3, 101, 2**52, 10**30 + 57]


@st.composite
def residue_sets(draw):
    """Residues mod den on an arc around a centre, wrapping past 0 as
    they may, with a limit anywhere in [0, den] or at the edges of the
    one-pass rule 4 * limit <= den."""
    den = draw(st.sampled_from(DENS))
    centre, spread = draw(st.integers(0, den - 1)), draw(st.integers(0, den // 2))
    offsets = draw(st.lists(st.integers(-spread, spread), min_size=1, max_size=12))
    res = [(centre + t) % den for t in offsets]
    limit = draw(st.one_of(st.sampled_from([0, den // 4, den // 4 + 1, den]), st.integers(0, den)))
    return res, den, limit


class TestBoundedDiameter:
    @pytest.mark.parametrize("den", DENS)
    @pytest.mark.parametrize("edge", ["zero", "quarter", "past-quarter"])
    @pytest.mark.parametrize("case", ["one", "duplicates", "antipodal", "quarter-apart"])
    def test_edges(self, den, edge, case):
        # both sides of 4 * limit <= den; an exactly antipodal pair exists
        # only for an even den (den // 2 apart otherwise)
        limit = {"zero": 0, "quarter": den // 4, "past-quarter": den // 4 + 1}[edge]
        r = den // 3
        res = {
            "one": [r],
            "duplicates": [r, r, (r + 1) % den, r],
            "antipodal": [r, (r + den // 2) % den],
            "quarter-apart": [r, (r + den // 4) % den, (r - den // 4) % den],
        }[case]
        assert_limit_aware(_diam_num(res, den, limit), ref_diam_num(res, den), limit)

    @given(case=residue_sets())
    @settings(max_examples=500, deadline=None)
    def test_exact_up_to_the_limit(self, case):
        res, den, limit = case
        assert_limit_aware(_diam_num(res, den, limit), ref_diam_num(res, den), limit)

    @given(
        num=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=4),
        den=st.sampled_from(DENS),
        length=st.integers(2, 40),
        theta=st.one_of(
            st.just(Fraction(1, 2)),
            st.fractions(Fraction(1, 10**9), Fraction(1, 4), max_denominator=10**9),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_within_matches_the_fraction_comparison(self, num, den, length, theta):
        # theta = 1/2 takes the antipode sweep, theta <= 1/4 the one pass;
        # the integer limit decides as the Fraction bound did
        w = ref_diam_num(_values(num, 0, 1, length, den), den)
        assert _within(num, den, length, theta) == (w * theta.denominator <= theta.numerator * den)


# ---------------------------------------------------------------------
# Two-point parts: read in place, as the kernel measures them


def captured_channel(phi, P, eps):
    """The (diam, pair) functions `partition_polyphase(phi, P, eps)`
    hands to `refine`, and the strides of the pairs it read."""
    import apinc.polyphase as polyphase

    seen, strides, refine = {}, set(), polyphase.refine

    def spy_refine(P, root, diam, pair, limit, reduce):
        seen["diam"], seen["pair"] = diam, pair

        def spy_pair(Q):
            strides.add(Q[1] // P.step)
            return pair(Q)

        return refine(P, root, diam, spy_pair, limit, reduce)

    with mock.patch.object(polyphase, "refine", spy_refine):
        partition_polyphase(phi, P, eps)
    return seen["diam"], seen["pair"], strides


def assert_pairs_read_the_kernel(pair, phi, P, eps, strides):
    """Every pair of P at each stride reads as `_diam_num` measures it,
    which for two points is the exact diameter."""
    eps_f, den = lift(eps), phi.den
    limit = eps_f.numerator * den // eps_f.denominator
    res = phi.residues(P)
    for s in strides:
        for i in range(P.len - s):
            two = [res[i], res[i + s]]
            got = pair((P.base + i * P.step, s * P.step, 2))
            assert got == _diam_num(two, den, limit) == ref_diam_num(two, den)


class TestPairReading:
    # eps 0.05 takes the kernel's one pass (4 * limit <= den), eps 0.4
    # its sorted antipode sweep
    @pytest.mark.parametrize("eps", [0.05, 0.4])
    @pytest.mark.parametrize("P", [Progression(1, 1, 2000), Progression(600, -3, 200)], ids=["up", "down"])
    def test_pair_is_the_kernel_diameter(self, eps, P):
        phi = PolyPhase.binomial([0, math.sqrt(2), math.sqrt(3)])
        _, pair, strides = captured_channel(phi, P, eps)
        eps_f = lift(eps)
        assert (4 * (eps_f.numerator * phi.den // eps_f.denominator) <= phi.den) == (eps == 0.05)
        assert strides
        assert_pairs_read_the_kernel(pair, phi, P, eps, strides | set(range(1, 8)))

    @given(
        coeffs=st.lists(rationals, min_size=3, max_size=4),
        base=st.integers(-500, 500),
        step=st.sampled_from([1, 2, 7, -1, -3]),
        length=st.integers(2, 60),
        eps=st.sampled_from([0.05, Fraction(1, 4), 0.26, 0.4, 0.5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_pair_on_any_quadratic_or_cubic(self, coeffs, base, step, length, eps):
        phi = PolyPhase.binomial(coeffs)
        assume(phi.degree >= 2)
        P = Progression(base, step, length)
        _, pair, strides = captured_channel(phi, P, eps)
        assert_pairs_read_the_kernel(pair, phi, P, eps, strides | set(range(1, min(length, 8))))

    def test_linear_phase_reads_pairs_from_its_tables(self):
        # degree <= 1: a pair costs a table read already, so one function serves both
        diam, pair, _ = captured_channel(
            PolyPhase.binomial([0, math.sqrt(2)]), Progression(1, 1, 500), 0.05
        )
        assert pair is diam


def test_criterion_5_build_sorts_nothing(monkeypatch):
    # every part of criterion 5 is measured against eps = 0.05 <= 1/4, so
    # each takes the one-pass diameter and nothing is sorted (each of the
    # 19940 diameters sorted its residues when the kernel had no limit)
    import apinc.polyphase as polyphase

    sorts = []
    monkeypatch.setattr(
        polyphase, "sorted", lambda xs: sorts.append(len(xs)) or sorted(xs), raising=False
    )
    phi = PolyPhase.binomial([0, math.sqrt(2), math.sqrt(3)])
    cert = partition_polyphase(phi, Progression(1, 1, 20000), 0.05)
    assert cert.num_parts == 18733
    assert sorts == []
