import gc
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apinc.errors import CertificateError, IntegerRangeError, InvalidArgumentError
from apinc.nil import Nilmanifold, PolySequence, lipschitz_catalog, nil_values, partition_nilsequence
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


def elements(Q):
    """The elements of the part Q = (base, step, len), in index order."""
    base, step, n = Q
    return [base + i * step for i in range(n)]


class TestProgression:
    def test_elements_and_len(self):
        P = Progression(1, 1, 10)
        assert P.elements() == list(range(1, 11))
        assert P.len == 10

    def test_negative_step(self):
        P = Progression(7, -2, 4)
        assert P.elements() == [7, 5, 3, 1]

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
        parts = subdivide((1, 1, 10), 2, 3)
        got = sorted(tuple(elements(p)) for p in parts)
        assert got == [(1, 3, 5), (2, 4, 6), (7, 9), (8, 10)]

    def test_identity_case(self):
        P = (0, 1, 6)
        assert subdivide(P, 1, 6) == [P]

    def test_three_classes_step9(self):
        parts = subdivide((5, 3, 7), 3, 2)
        # residue classes have lengths 3, 2, 2; blocks of <= 2 give 2+1+1
        assert len(parts) == 4
        assert all(step == 9 for _, step, _ in parts)
        assert all(n <= 2 for _, _, n in parts)
        all_elems = sorted(x for p in parts for x in elements(p))
        assert all_elems == elements((5, 3, 7))

    def test_invalid_args(self):
        P = (1, 1, 10)
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
        P = (base, step, length)
        if mult > length:
            with pytest.raises(InvalidArgumentError):
                subdivide(P, mult, block)
            return
        parts = subdivide(P, mult, block)
        concat = sorted(x for p in parts for x in elements(p))
        assert concat == sorted(elements(P))
        assert all(s == step * mult for _, s, _ in parts)
        assert all(1 <= n <= block for _, _, n in parts)


@st.composite
def source_and_parts(draw):
    """A source P with bases near +-2^40 and negative steps allowed, and
    (base, step, len) parts of it as the partitioners cut them: the parts
    of one `subdivide` and their halves, two levels deep."""
    base = draw(st.sampled_from([-(2**40), 2**40])) + draw(st.integers(-50, 50))
    P = Progression(base, draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 60)))
    mult, block = draw(st.integers(1, min(P.len, 5))), draw(st.integers(1, P.len))
    parts = subdivide((P.base, P.step, P.len), mult, block)

    def halves(Q, depth):
        yield Q
        base, step, n = Q
        if depth and n > 1:
            h = n // 2
            yield from halves((base, step, h), depth - 1)
            yield from halves((base + h * step, step, n - h), depth - 1)

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
        Q = (7, -6, 3)
        assert index_slice(P, Q) == slice(1, 6, 2)
        assert P.elements()[index_slice(P, Q)] == elements(Q) == [7, 1, -5]

    @pytest.mark.parametrize(
        "Q",
        [
            (9, -3, 2),  # base off the line
            (10, -4, 2),  # step not a multiple of P's
            (7, 3, 2),  # on the line, in the reverse direction
            (13, -3, 2),  # starts before P
            (10, -3, 21),  # runs past P's end
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
            assert res[index_slice(P, Q)] == phi.residues(Progression(*Q))

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
        points = g.float_points(Mf, P)
        vals = nil_values(F, points)
        for Q in parts:
            # the deviation check's points: a slice of the root's walk is
            # the walk of the part, float for float
            assert points[index_slice(P, Q)] == g.float_points(Mf, Progression(*Q))
            got = np.ascontiguousarray(vals[index_slice(P, Q)]).view(np.uint64)
            want = nil_values(F, g.float_points(Mf, Progression(*Q)))
            assert np.array_equal(got, want.view(np.uint64))


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
        P = (base, step, length)
        parts = subdivide(P, min(mult, length), length)
        got = repair(parts, lambda R: R[2] <= cap)
        assert sorted(x for R in got for x in elements(R)) == sorted(elements(P))
        assert all(n <= cap for _, _, n in got)
        assert [b for b, _, _ in got] == sorted(b for b, _, _ in got)

    def test_refine_leaves_no_reference_cycle(self):
        # the recursive visit must not keep the parts it saw alive until
        # the next full collection
        def halve(state, Q):
            base, step, n = Q
            h = n // 2
            return [((base, step, h), state), ((base + h * step, step, n - h), state)]

        gc.collect()
        gc.disable()
        try:
            parts, _, _ = refine(Progression(0, 1, 64), 0, lambda Q: Q[2], lambda Q: Q[2], 3, halve)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert [n for _, _, n in parts] == [2] * 32

    def test_refine_keeps_parts_whose_state_is_none(self):
        calls = []

        def halve(state, Q):
            # the state counts the levels left; None once none are
            calls.append((Q, state))
            base, step, n = Q
            h = n // 2
            child = state - 1 or None
            return [((base, step, h), child), ((base + h * step, step, n - h), child)]

        measured, paired = [], []

        def diam(Q):  # the largest element stands in for the diameter
            measured.append(Q)
            base, step, n = Q
            return base + (n - 1) * step

        def pair(Q):
            paired.append(Q)
            return Q[0] + Q[1]

        P = Progression(0, 1, 8)
        # depth 0: nothing to reduce, and P is kept whole, measured once
        # for its witness
        assert refine(P, None, diam, pair, 5, halve) == ([(0, 1, 8)], [7], 0)
        assert calls == paired == [] and measured == [(0, 1, 8)]
        # a point is kept with witness 0 and never measured
        measured.clear()
        assert refine(Progression(3, 1, 1), 2, diam, pair, 5, halve) == ([(3, 1, 1)], [0], 0)
        assert calls == measured == paired == []
        # depth 2: [0..3] fits early, [4..7] is halved, and its halves
        # [4, 5] and [6, 7] are kept with nothing left to reduce, [6, 7]
        # over the limit; the merge then joins [0..3] and [4, 5]
        parts, witnesses, depth = refine(P, 2, diam, pair, 5, halve)
        assert parts == [(0, 1, 6), (6, 1, 2)]
        assert witnesses == [5, 7]
        assert depth == 2
        # parts that fit, or whose state is None, are never reduced
        assert calls == [((0, 1, 8), 2), ((4, 1, 4), 1)]
        # the halves [4, 5] and [6, 7] are pairs, read by `pair`; the merge
        # reads the junction [3, 4], measures [0..5], and refuses [0..7]
        # unmeasured: the visit already measured that union, P, over the limit
        visited = [(0, 1, 8), (0, 1, 4), (4, 1, 4)]
        assert measured == visited + [(0, 1, 6)]
        assert paired == [(4, 1, 2), (6, 1, 2), (3, 1, 2)]

    @pytest.mark.parametrize("step", [3, -3])
    def test_refine_splits_a_failing_pair_without_reduce(self, step):
        calls = []

        def halve(state, Q):
            calls.append(Q)
            base, s, n = Q
            h = n // 2
            return [((base, s, h), state), ((base + h * s, s, n - h), state)]

        def diam(Q):
            return Q[2] - 1  # only a point fits under limit 0

        points = [(x, step, 1) for x in (10, 10 + step)]
        # a live pair over the limit becomes its two points at level 1
        pair = Progression(10, step, 2)
        assert refine(pair, "live", diam, diam, 0, halve) == (sorted(points), [0, 0], 1)
        assert calls == []
        # the halves of a failing 4-point part split the same way; only
        # the 4-point part is reduced, and the depth still counts level 2
        P = Progression(10, step, 4)
        parts, witnesses, depth = refine(P, "live", diam, diam, 0, halve)
        assert parts == [(x, step, 1) for x in sorted(P.elements())]
        assert witnesses == [0] * 4
        assert (calls, depth) == ([(10, step, 4)], 2)

    @given(
        base=st.integers(-50, 50),
        step=st.sampled_from([1, 2, 5, -1, -3]),
        length=st.integers(1, 60),
        levels=st.integers(0, 4),
        limit=st.integers(0, 22),
    )
    @settings(max_examples=300, deadline=None)
    def test_refine_measures_each_part_once(self, base, step, length, levels, limit):
        log, children = [], []

        def diam(Q):
            log.append(Q)
            return span(Q)

        def pair(Q):
            log.append(("pair", Q))
            return span(Q)

        def reduce(state, Q):
            out = halves_or_classes(state, Q)
            children.extend(R for R, _ in out)
            return out

        def marked(*args):
            log.append("merge")
            out = merge_parts(*args)
            log.append("merged")
            return out

        P = Progression(base, step, length)
        with mock.patch.object(progressions, "merge_parts", marked):
            parts, witnesses, _ = refine(P, levels or None, diam, pair, limit, reduce)
        i, j = log.index("merge"), log.index("merged")
        visits, trials, after = log[:i], log[i + 1 : j], log[j + 1 :]
        # each multi-point part a visit reaches is measured once, a pair
        # by `pair` and a longer part by `diam`; every later `diam` call
        # is a merge trial of three or more points from a kept part's
        # base, and nothing is measured after the merge
        reached = [Q for Q in [(base, step, length), *children] if Q[2] > 1]
        assert Counter(visits) == Counter(("pair", Q) if Q[2] == 2 else Q for Q in reached)
        measured = [T for T in trials if T[0] != "pair"]
        assert all(T[2] > 2 and T[0] in {Q[0] for Q in parts} for T in measured)
        # one record of measured parts: no part reaches `diam` twice
        keys = visits + measured
        assert len(keys) == len(set(keys))
        assert after == []
        assert witnesses == [span(Q) if Q[2] > 1 else 0 for Q in parts]
        assert sorted(x for Q in parts for x in elements(Q)) == sorted(P.elements())

    @given(
        base=st.integers(-50, 50),
        step=st.sampled_from([1, 2, 5, -1, -3, -4]),
        length=st.integers(1, 80),
        levels=st.integers(0, 4),
        limit=st.integers(0, 22),
    )
    @settings(max_examples=300, deadline=None)
    def test_refine_matches_the_merge_that_measures_every_trial(self, base, step, length, levels, limit):
        P, root = Progression(base, step, length), levels or None
        every_trial = lambda parts, measured, diam, pair, limit: reference_merge_parts(  # noqa: E731
            parts, measured, diam, limit
        )
        with mock.patch.object(progressions, "merge_parts", every_trial):
            expected = refine(P, root, span, span, limit, halves_or_classes)

        log, kept = [], []

        def diam(Q):
            log.append(Q)
            return span(Q)

        def spied(parts, *args):
            kept.extend(parts)
            log.append("merge")
            return merge_parts(parts, *args)

        with mock.patch.object(progressions, "merge_parts", spied):
            got = refine(P, root, diam, span, limit, halves_or_classes)
        assert got == expected
        # no two-point part reaches `diam`
        assert all(Q[2] > 2 for Q in log if Q != "merge")
        # a measured trial ends where a kept part ends; its junction, the
        # pair before that part's first point, is within the limit
        ends = {b + (n - 1) * s: (b, s, n) for b, s, n in kept}
        for b, s, n in log[log.index("merge") + 1 :]:
            nxt = ends[b + (n - 1) * s]
            assert span((nxt[0] - s, s, 2)) <= limit


def span(Q):
    """A diameter of the part Q: it only grows with the part."""
    vals = [(7 * x * x + x) % 23 for x in elements(Q)]
    return max(vals) - min(vals)


def halves_or_classes(state, Q):
    """A reduction: Q's halves, or its two residue classes mod 2, which
    change the step; state counts the levels left, None once none are."""
    child = state - 1 or None
    base, s, n = Q
    if state % 2 and n > 2:
        return [(R, child) for R in subdivide(Q, 2, n)]
    h = n // 2
    return [((base, s, h), child), ((base + h * s, s, n - h), child)]


def reference_merge_parts(parts, measured, diam, limit):
    """The merge before pair readings and junction refusals: every trial
    not already in `measured` is measured with `diam`."""
    descending = parts[0][1] < 0
    by_base = {p[0]: p for p in parts}
    merged, used = [], set()
    for b in sorted(by_base, reverse=descending):
        if b in used:
            continue
        _, step, n = by_base[b]
        used.add(b)
        while True:
            nxt = by_base.get(b + n * step)
            if nxt is None or nxt[0] in used or not (nxt[1] == step or nxt[2] == 1):
                break
            trial = (b, step, n + nxt[2])
            w = measured[trial] if trial in measured else diam(trial)
            if w > limit:
                break
            used.add(nxt[0])
            measured[trial] = w
            n += nxt[2]
        merged.append((b, step, n))
    return merged[::-1] if descending else merged


class TestCertificateType:
    def test_min_len_auto(self):
        parts = [(1, 1, 3), (4, 1, 2)]
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
                parts=[(1, 1, 2)],
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
    def triple():
        base, step = draw(_NEAR_BOUNDS), draw(st.integers(-5, 5).filter(bool))
        n = draw(st.integers(1, 5))
        last = base + (n - 1) * step
        return (base, step, n) if -_BOUND <= last < _BOUND else (base, step, 1)

    parts = [triple() for _ in range(draw(st.integers(1, 6)))]
    channel, payload = draw(_payloads())
    return PartitionCertificate(
        source=Progression(*triple()),
        parts=parts,
        epsilon=draw(st.floats(2**-30, 0.5)),
        diam_witness=draw(st.lists(_WITNESSES, min_size=len(parts), max_size=len(parts))),
        channel=channel,
        payload=payload,
    )


def reference_json(cert):
    """The certificate format, built from the certificate's fields
    without its writer."""
    return {
        "channel": cert.channel,
        "source": {"base": cert.source.base, "step": cert.source.step, "len": cert.source.len},
        "epsilon": float(cert.epsilon),
        "min_len": min(n for _, _, n in cert.parts),
        "parts": [
            {"base": b, "step": s, "len": n, "diam": float(w)}
            for (b, s, n), w in zip(cert.parts, cert.diam_witness)
        ],
        "payload": cert.payload,
    }


def containers(x):
    """The ids of the dicts and lists reachable from x."""
    items = x.values() if isinstance(x, dict) else x if isinstance(x, (list, tuple)) else ()
    own = {id(x)} if isinstance(x, (dict, list)) else set()
    return own.union(*map(containers, items))


class TestCertificateText:
    # the row writer's text is json.dumps's, for both channels' payloads,
    # parts near the 64-bit bounds and witnesses such as -0.0 and 5e-324
    @given(_certificates())
    @settings(max_examples=300, deadline=None)
    def test_rows_are_json_dumps_bytes(self, cert):
        assert cert.to_json_text() == json.dumps(reference_json(cert), indent=2, sort_keys=True)

    @pytest.mark.parametrize("channel", ["polyphase", "nilsequence"])
    def test_to_json_shares_no_object(self, channel):
        # an edit to the returned object leaves what the writer writes unchanged
        P = Progression(1, 1, 40)
        if channel == "polyphase":
            cert = partition_polyphase(PolyPhase.binomial([0, "1/7", "1/3"]), P, 0.1)
        else:
            g = PolySequence([PolyPhase.monomial([0, "1/7"]), PolyPhase.monomial([0, "1/9"])])
            cert = partition_nilsequence(Nilmanifold.torus(2), g, lipschitz_catalog("e(x)*cutoff"), P, 0.1)
        text = cert.to_json_text()
        obj = cert.to_json()
        assert obj == json.loads(text)
        assert not containers(obj) & containers(vars(cert))
        phase = obj["payload"]["phase"] if channel == "polyphase" else obj["payload"]["sequence"]["coords"][0]
        phase["coeffs"][1] = "1/4"
        obj["parts"].clear()
        assert cert.to_json_text() == text

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_witness_refused(self, w):
        cert = PartitionCertificate(
            source=Progression(1, 1, 3),
            parts=[(1, 1, 2), (3, 1, 1)],
            epsilon=0.1,
            diam_witness=[w, 0.0],
        )
        with pytest.raises(InvalidArgumentError):
            cert.to_json_text()
        # the verifier reads the object through the writer
        with pytest.raises(CertificateError) as ei:
            verify_certificate(cert)
        assert ei.value.reason == "malformed-certificate"
