import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apinc.errors import IntegerRangeError, InvalidArgumentError
from apinc.progressions import PartitionCertificate, Progression, refine, repair, subdivide


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
        assert Progression.from_json(P.to_json()) == P


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
        out = repair(parts, lambda R: R.len if R.len <= cap else None)
        got = [R for R, _ in out]
        assert sorted(x for R in got for x in R.elements()) == sorted(P.elements())
        assert all(R.len <= cap and companion == R.len for R, companion in out)
        assert [R.base for R in got] == sorted(R.base for R in got)

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

        checked = []

        def fits(Q):
            checked.append(Q)
            return Q.last < 6

        P = Progression(0, 1, 8)
        # depth 0: nothing to reduce, and P is kept whole unchecked
        assert refine(P, None, fits, halve) == ([P], 0)
        assert calls == checked == []
        # depth 2: [0..3] fits early, [4..7] is halved, and its halves
        # [4, 5] and [6, 7] are kept unchecked with nothing left to
        # reduce; the merge then joins [0..3] and [4, 5]
        parts, depth = refine(P, 2, fits, halve)
        assert parts == [Progression(0, 1, 6), Progression(6, 1, 2)]
        assert depth == 2
        # parts that fit, or whose state is None, are never reduced
        assert calls == [(P, 2), (Progression(4, 1, 4), 1)]
        visited = [P, Progression(0, 1, 4), Progression(4, 1, 4)]
        merged = [Progression(0, 1, 6), Progression(0, 1, 8)]
        assert checked == visited + merged


class TestCertificateType:
    def test_min_len_auto(self):
        parts = [Progression(1, 1, 3), Progression(4, 1, 2)]
        c = PartitionCertificate(
            source=Progression(1, 1, 5), parts=parts, epsilon=0.1, diam_witness=[0, 0]
        )
        assert c.min_len == 2
        assert c.num_parts == 2

    def test_witness_count_checked(self):
        with pytest.raises(InvalidArgumentError):
            PartitionCertificate(
                source=Progression(1, 1, 2),
                parts=[Progression(1, 1, 2)],
                epsilon=0.1,
                diam_witness=[],
            )

    def test_json_roundtrip(self):
        c = PartitionCertificate(
            source=Progression(1, 1, 5),
            parts=[Progression(1, 1, 3), Progression(4, 1, 2)],
            epsilon=0.25,
            diam_witness=[0.0, 0.125],
            payload={"phase": {"basis": "binomial", "coeffs": ["0/1"], "exact": True}},
        )
        c2 = PartitionCertificate.from_json(c.to_json())
        assert c2.parts == c.parts
        assert c2.diam_witness == c.diam_witness
        assert c2.epsilon == c.epsilon

