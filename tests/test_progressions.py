import gc
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apinc.errors import IntegerRangeError, InvalidArgumentError
from apinc.nil import Nilmanifold, PolySequence, lipschitz_catalog, nil_values
from apinc import oracle, progressions
from apinc.oracle import verify_certificate
from apinc.polyphase import PolyPhase, partition_polyphase
from apinc.progressions import (
    PartitionCertificate,
    Progression,
    index_slice,
    merge_parts,
    refine,
    repair,
    subdivide,
)


class TestProgression:
    def test_elements_and_len(self):
        P = Progression(1, 1, 10)
        assert P.elements() == list(range(1, 11))
        assert len(P) == 10
        assert P.last == 10

    def test_negative_step(self):
        P = Progression(7, -2, 4)
        assert P.elements() == [7, 5, 3, 1]
        assert 3 in P and 2 not in P

    def test_distinctness(self):
        P = Progression(5, 3, 7)
        assert len(set(P.elements())) == 7

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            Progression(0, 1, 0)
        with pytest.raises(InvalidArgumentError):
            Progression(0, 0, 5)

    def test_overflow_reported(self):
        with pytest.raises(IntegerRangeError):
            Progression(2**62, 2**62, 4)

    def test_json_roundtrip(self):
        P = Progression(3, 5, 4)
        assert Progression(*oracle._triple(P.to_json())) == P

    def test_unpacking_refused(self):
        # a progression is not a sequence: unpacking it as a triple would
        # read its first elements, not (base, step, len)
        with pytest.raises(TypeError):
            base, step, n = Progression(5, 3, 3)


class TestSubdivide:
    def test_mod2_blocks_of_3(self):
        # residue class {1,3,5,7,9} splits {1,3,5},{7,9}; evens likewise
        parts = subdivide(Progression(1, 1, 10), 2, 3)
        got = sorted(tuple(p.elements()) for p in parts)
        assert got == [(1, 3, 5), (2, 4, 6), (7, 9), (8, 10)]

    def test_identity_case(self):
        P = Progression(0, 1, 6)
        assert subdivide(P, 1, 6) == [P]

    def test_three_classes_step9(self):
        parts = subdivide(Progression(5, 3, 7), 3, 2)
        # residue classes have lengths 3, 2, 2; blocks of <= 2 give 2+1+1
        assert len(parts) == 4
        assert all(p.step == 9 for p in parts)
        assert all(p.len <= 2 for p in parts)
        all_elems = sorted(x for p in parts for x in p.elements())
        assert all_elems == Progression(5, 3, 7).elements()

    def test_invalid_args(self):
        P = Progression(1, 1, 10)
        with pytest.raises(InvalidArgumentError):
            subdivide(P, 0, 3)
        with pytest.raises(InvalidArgumentError):
            subdivide(P, 2, 0)
        with pytest.raises(InvalidArgumentError):
            subdivide(P, 11, 1)

    @given(
        base=st.integers(-1000, 1000),
        step=st.integers(-20, 20).filter(lambda s: s != 0),
        length=st.integers(1, 400),
        mult=st.integers(1, 30),
        block=st.integers(1, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_cover_multiset(self, base, step, length, mult, block):
        P = Progression(base, step, length)
        if mult > length:
            with pytest.raises(InvalidArgumentError):
                subdivide(P, mult, block)
            return
        parts = subdivide(P, mult, block)
        concat = sorted(x for p in parts for x in p.elements())
        assert concat == sorted(P.elements())
        assert all(p.step == step * mult for p in parts)
        assert all(1 <= p.len <= block for p in parts)


@st.composite
def source_and_parts(draw):
    """A source P with bases near +-2^40 and negative steps allowed, and
    sub-progressions of it as the partitioners cut them: the parts of
    one `subdivide` and their halves, two levels deep."""
    base = draw(st.sampled_from([-(2**40), 2**40])) + draw(st.integers(-50, 50))
    P = Progression(base, draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 60)))
    parts = subdivide(P, draw(st.integers(1, min(P.len, 5))), draw(st.integers(1, P.len)))

    def halves(Q, depth):
        yield Q
        if depth and Q.len > 1:
            h = Q.len // 2
            yield from halves(Progression(Q.base, Q.step, h), depth - 1)
            yield from halves(Progression(Q.base + h * Q.step, Q.step, Q.len - h), depth - 1)

    return P, [R for Q in parts for R in halves(Q, 2)]


coeff_lists = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=64)
    | st.floats(min_value=-4, max_value=4, allow_nan=False),
    min_size=1,
    max_size=4,
)


class TestIndexSlice:
    def test_negative_step_sub_progression(self):
        P = Progression(10, -3, 20)
        Q = Progression(7, -6, 3)
        assert index_slice(P, Q) == slice(1, 6, 2)
        assert P.elements()[index_slice(P, Q)] == Q.elements() == [7, 1, -5]

    @pytest.mark.parametrize(
        "Q",
        [
            Progression(9, -3, 2),  # base off the line
            Progression(10, -4, 2),  # step not a multiple of P's
            Progression(7, 3, 2),  # on the line, in the reverse direction
            Progression(13, -3, 2),  # starts before P
            Progression(10, -3, 21),  # runs past P's end
        ],
    )
    def test_refuses_off_line(self, Q):
        with pytest.raises(InvalidArgumentError):
            index_slice(Progression(10, -3, 20), Q)

    @given(src=source_and_parts(), coeffs=coeff_lists,
           basis=st.sampled_from(["binomial", "monomial"]))
    @settings(max_examples=150, deadline=None)
    def test_slice_of_phase_residues(self, src, coeffs, basis):
        P, parts = src
        phi = PolyPhase(coeffs, basis)
        res = phi.residues(P)
        for Q in parts:
            assert res[index_slice(P, Q)] == phi.residues(Q)

    @given(src=source_and_parts(), coeffs=st.lists(coeff_lists, min_size=3, max_size=3),
           kind=st.sampled_from(["heisenberg", "torus"]))
    @settings(max_examples=100, deadline=None)
    def test_slice_of_nil_values_bitwise(self, src, coeffs, kind):
        P, parts = src
        if kind == "heisenberg":
            Mf, g = Nilmanifold.heisenberg(), PolySequence([PolyPhase.monomial(c) for c in coeffs])
        else:
            Mf, g = Nilmanifold.torus(2), PolySequence([PolyPhase.binomial(c) for c in coeffs[:2]])
        F = lipschitz_catalog("e(x)*cutoff")
        vals = nil_values(Mf, g, F, P)
        for Q in parts:
            got = np.ascontiguousarray(vals[index_slice(P, Q)]).view(np.uint64)
            assert np.array_equal(got, nil_values(Mf, g, F, Q).view(np.uint64))


class TestSkeleton:
    @given(
        base=st.integers(-1000, 1000),
        step=st.integers(-20, 20).filter(lambda s: s != 0),
        length=st.integers(1, 300),
        mult=st.integers(1, 4),
        cap=st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_repair_covers_caps_and_orders(self, base, step, length, mult, cap):
        P = Progression(base, step, length)
        parts = subdivide(P, min(mult, length), length)
        got = repair(parts, lambda R: R.len <= cap)
        assert sorted(x for R in got for x in R.elements()) == sorted(P.elements())
        assert all(R.len <= cap for R in got)
        assert [R.base for R in got] == sorted(R.base for R in got)

    def test_refine_leaves_no_reference_cycle(self):
        # the recursive visit must not keep the parts it saw alive until
        # the next full collection
        def halve(state, Q):
            h = Q.len // 2
            return [
                (Progression(Q.base, Q.step, h), state),
                (Progression(Q.base + h * Q.step, Q.step, Q.len - h), state),
            ]

        gc.collect()
        gc.disable()
        try:
            parts, _, _ = refine(Progression(0, 1, 64), 0, lambda Q: Q.len, 3, halve)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert [Q.len for Q in parts] == [2] * 32

    def test_refine_keeps_parts_whose_state_is_none(self):
        calls = []

        def halve(state, Q):
            # the state counts the levels left; None once none are
            calls.append((Q, state))
            h = Q.len // 2
            child = state - 1 or None
            return [
                (Progression(Q.base, Q.step, h), child),
                (Progression(Q.base + h * Q.step, Q.step, Q.len - h), child),
            ]

        measured = []

        def diam(Q):  # the largest element stands in for the diameter
            measured.append(Q)
            return Q.last

        P = Progression(0, 1, 8)
        # depth 0: nothing to reduce, and P is kept whole, measured once
        # for its witness
        assert refine(P, None, diam, 5, halve) == ([P], [7], 0)
        assert calls == [] and measured == [P]
        # a point is kept with witness 0 and never measured
        measured.clear()
        assert refine(Progression(3, 1, 1), 2, diam, 5, halve) == ([Progression(3, 1, 1)], [0], 0)
        assert calls == measured == []
        # depth 2: [0..3] fits early, [4..7] is halved, and its halves
        # [4, 5] and [6, 7] are kept with nothing left to reduce, [6, 7]
        # over the limit; the merge then joins [0..3] and [4, 5]
        parts, witnesses, depth = refine(P, 2, diam, 5, halve)
        assert parts == [Progression(0, 1, 6), Progression(6, 1, 2)]
        assert witnesses == [5, 7]
        assert depth == 2
        # parts that fit, or whose state is None, are never reduced
        assert calls == [(P, 2), (Progression(4, 1, 4), 1)]
        # the merge measures [0..5] and refuses [0..7] unmeasured: the
        # visit already measured that union, P, over the limit
        visited = [P, Progression(0, 1, 4), Progression(4, 1, 4), Progression(4, 1, 2), Progression(6, 1, 2)]
        assert measured == visited + [Progression(0, 1, 6)]

    @pytest.mark.parametrize("step", [3, -3])
    def test_refine_splits_a_failing_pair_without_reduce(self, step):
        calls = []

        def halve(state, Q):
            calls.append(Q)
            h = Q.len // 2
            return [
                (Progression(Q.base, Q.step, h), state),
                (Progression(Q.base + h * Q.step, Q.step, Q.len - h), state),
            ]

        def diam(Q):
            return Q.len - 1  # only a point fits under limit 0

        points = [Progression(x, step, 1) for x in (10, 10 + step)]
        # a live pair over the limit becomes its two points at level 1
        pair = Progression(10, step, 2)
        assert refine(pair, "live", diam, 0, halve) == (sorted(points, key=lambda R: R.base), [0, 0], 1)
        assert calls == []
        # the halves of a failing 4-point part split the same way; only
        # the 4-point part is reduced, and the depth still counts level 2
        P = Progression(10, step, 4)
        parts, witnesses, depth = refine(P, "live", diam, 0, halve)
        assert parts == [Progression(x, step, 1) for x in sorted(P.elements())]
        assert witnesses == [0] * 4
        assert (calls, depth) == ([P], 2)

    @given(
        base=st.integers(-50, 50),
        step=st.sampled_from([1, 2, 5, -1, -3]),
        length=st.integers(1, 60),
        levels=st.integers(0, 4),
        limit=st.integers(0, 22),
    )
    @settings(max_examples=300, deadline=None)
    def test_refine_measures_each_part_once(self, base, step, length, levels, limit):
        def span(Q):  # a diameter: it only grows with the part
            vals = [(7 * x * x + x) % 23 for x in Q.elements()]
            return max(vals) - min(vals)

        log, children = [], []

        def diam(Q):
            log.append(Q)
            return span(Q)

        def reduce(state, Q):
            # halves, or the two residue classes mod 2, which change the step
            child = state - 1 or None
            if state % 2 and Q.len > 2:
                out = [(R, child) for R in subdivide(Q, 2, Q.len)]
            else:
                h = Q.len // 2
                out = [(Progression(Q.base, Q.step, h), child),
                       (Progression(Q.base + h * Q.step, Q.step, Q.len - h), child)]
            children.extend(R for R, _ in out)
            return out

        def marked(*args):
            log.append("merge")
            out = merge_parts(*args)
            log.append("merged")
            return out

        P = Progression(base, step, length)
        with mock.patch.object(progressions, "merge_parts", marked):
            parts, witnesses, _ = refine(P, levels or None, diam, limit, reduce)
        i, j = log.index("merge"), log.index("merged")
        visits, trials, after = log[:i], log[i + 1 : j], log[j + 1 :]
        # each multi-point part a visit reaches is measured once, every
        # later call is a merge trial from a kept part's base, and nothing
        # is measured after the merge
        assert Counter(visits) == Counter(Q for Q in [P, *children] if Q.len > 1)
        assert all(T.len > 1 and T.base in {Q.base for Q in parts} for T in trials)
        # one record of measured parts: no part reaches `diam` twice
        keys = [(Q.base, Q.step, Q.len) for Q in visits + trials]
        assert len(keys) == len(set(keys))
        assert after == []
        assert witnesses == [span(Q) if Q.len > 1 else 0 for Q in parts]
        assert sorted(x for Q in parts for x in Q.elements()) == sorted(P.elements())


class TestCertificateType:
    def test_min_len_auto(self):
        parts = [Progression(1, 1, 3), Progression(4, 1, 2)]
        c = PartitionCertificate(
            source=Progression(1, 1, 5), parts=parts, epsilon=0.1, diam_witness=[0, 0]
        )
        assert c.min_len == 2
        assert c.num_parts == 2

    def test_no_parts_refused(self):
        # an empty certificate states nothing and cannot be written
        with pytest.raises(InvalidArgumentError):
            PartitionCertificate(source=Progression(1, 1, 2), parts=[], epsilon=0.1, diam_witness=[])

    def test_witness_count_checked(self):
        with pytest.raises(InvalidArgumentError):
            PartitionCertificate(
                source=Progression(1, 1, 2),
                parts=[Progression(1, 1, 2)],
                epsilon=0.1,
                diam_witness=[],
            )

    def test_json_roundtrip(self):
        # a real certificate survives serialisation and re-verifies
        P = Progression(-40, 3, 120)
        cert = partition_polyphase(PolyPhase.binomial([0, 0.3, 0.7]), P, 0.2)
        obj = json.loads(json.dumps(cert.to_json()))
        assert obj == cert.to_json()
        report = verify_certificate(obj)
        assert report["ok"] and report["num_parts"] == cert.num_parts
        assert report["max_diam"] == max(cert.diam_witness)


_BOUND = 2**63
_NEAR_BOUNDS = st.one_of(
    st.integers(-_BOUND, -_BOUND + 100), st.integers(_BOUND - 100, _BOUND - 1), st.integers(-100, 100)
)
_WITNESSES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 0.1]), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _payloads(draw):
    """A payload of either channel, as the partitions write them."""
    coeff = st.one_of(st.fractions(max_denominator=10**6), st.floats(-1e6, 1e6))
    phase = PolyPhase.binomial(draw(st.lists(coeff, min_size=1, max_size=4)))
    if draw(st.booleans()):
        return "polyphase", {"phase": phase.to_json()}
    heisenberg = draw(st.booleans())
    Mf = Nilmanifold.heisenberg() if heisenberg else Nilmanifold.torus(2)
    coords = [phase, PolyPhase.monomial([0, draw(st.floats(-1, 1))])] + [PolyPhase.zero()] * heisenberg
    g = PolySequence(coords)
    F = lipschitz_catalog(draw(st.sampled_from(["const", "e(x)", "bump(y)", "e(x)*cutoff"])))
    payload = {"manifold": Mf.to_json(), "sequence": g.to_json(), "function": F.to_json()}
    return "nilsequence", dict(payload, depth=draw(st.integers(0, 3)))


@st.composite
def _certificates(draw):
    def progression():
        base, step = draw(_NEAR_BOUNDS), draw(st.integers(-5, 5).filter(bool))
        n = draw(st.integers(1, 5))
        last = base + (n - 1) * step
        return Progression(base, step, n) if -_BOUND <= last < _BOUND else Progression(base, step, 1)

    parts = [progression() for _ in range(draw(st.integers(1, 6)))]
    channel, payload = draw(_payloads())
    return PartitionCertificate(
        source=progression(),
        parts=parts,
        epsilon=draw(st.floats(2**-30, 0.5)),
        diam_witness=draw(st.lists(_WITNESSES, min_size=len(parts), max_size=len(parts))),
        channel=channel,
        payload=payload,
    )


class TestCertificateText:
    # the row writer's text is json.dumps's, for both channels' payloads,
    # parts near the 64-bit bounds and witnesses such as -0.0 and 5e-324
    @given(_certificates())
    @settings(max_examples=300, deadline=None)
    def test_rows_are_json_dumps_bytes(self, cert):
        assert cert.to_json_text() == json.dumps(cert.to_json(), indent=2, sort_keys=True)

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_witness_refused(self, w):
        cert = PartitionCertificate(
            source=Progression(1, 1, 3),
            parts=[Progression(1, 1, 2), Progression(3, 1, 1)],
            epsilon=0.1,
            diam_witness=[w, 0.0],
        )
        with pytest.raises(InvalidArgumentError):
            cert.to_json_text()
