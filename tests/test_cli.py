import hashlib
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from apinc import cli
from apinc.cli import emit_partition, main, parse_coeff, parse_phase, parse_range
from apinc.errors import (
    ApincError,
    BudgetExceededError,
    CertificateError,
    IntegerRangeError,
    InvalidArgumentError,
    PreconditionError,
    UnsupportedManifoldError,
)
from apinc.gowers import DenseSet, GroupFunction
from apinc.polyphase import PolyPhase, partition_polyphase
from apinc.progressions import Progression


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_coeff_forms(self):
        assert parse_coeff("3/8") == Fraction(3, 8)
        assert parse_coeff("0.25") == 0.25
        assert parse_coeff("7") == 7

    def test_phase_grammar(self):
        phi = parse_phase("1/8 + 1/3 n + 2/7 C(n,2)")
        assert phi.basis == "binomial"
        assert list(phi.coeffs) == [Fraction(1, 8), Fraction(1, 3), Fraction(2, 7)]

    def test_phase_single_term(self):
        phi = parse_phase("0.5 n")
        assert phi.eval(3) == Fraction(1, 2)

    @pytest.mark.parametrize("text", ["1/0", "1e999", "-1e999"])
    def test_coeff_refused(self, text):
        with pytest.raises(InvalidArgumentError):
            parse_coeff(text)

    # a phase of declared degree 100 costs 101^2 per point in any
    # partition: charged before its coefficient list is built
    def test_declared_degree_charged(self, monkeypatch):
        monkeypatch.setenv("APINC_BUDGET", str(101**2))
        assert parse_phase("1/3 C(n,100)").declared_degree == 100
        monkeypatch.setenv("APINC_BUDGET", str(101**2 - 1))
        with pytest.raises(BudgetExceededError):
            parse_phase("1/3 C(n,100)")

    def test_phase_bad_term(self):
        with pytest.raises(InvalidArgumentError):
            parse_phase("n^2 / 3")

    def test_range(self):
        P = parse_range("5..9")
        assert P.elements() == [5, 6, 7, 8, 9]
        with pytest.raises(InvalidArgumentError):
            parse_range("5-9")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["count", "--set", "A.json", "--k", "three"], []],
        ids=["verify-without-cert", "k-not-an-integer", "no-subcommand"],
    )
    def test_usage_error_is_invalid_input(self, capsys, argv):
        # argparse's own exit 2 would read as a failed verification
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "invalid-argument"

    @pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 0
        assert "usage: apinc" in capsys.readouterr().out

    def test_negative_range_with_equals(self, capsys):
        code, _, err = run(capsys, "partition-phase", "--phase", "1/8 n", "--range=-5..5",
                           "--eps", "0.05")
        assert code == 0 and json.loads(err.strip().splitlines()[-1])["min_len"] == 1


@pytest.mark.parametrize(
    "error, code",
    [
        (CertificateError("coverage-gap"), 2),
        (BudgetExceededError("over"), 3),
        (ApincError("failed"), 4),
        (InvalidArgumentError("bad"), 4),
        (PreconditionError("unmet"), 4),
        (UnsupportedManifoldError("no such coordinate"), 4),
        (IntegerRangeError("too large"), 4),
    ],
    ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x),
)
def test_error_class_owns_its_exit_code(monkeypatch, capsys, error, code):
    # main has one handler: it prints the payload and returns the class's code
    assert error.exit_code == code

    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_count", fail)
    got, out, err = run(capsys, "count", "--set", "A.json", "--k", "3")
    assert got == code and out == ""
    assert json.loads(err) == error.payload()


class TestCount:
    def test_interval(self, tmp_path, capsys):
        p = write_json(tmp_path / "a.json", DenseSet(8, range(1, 9)).to_json())
        code, out, _ = run(capsys, "count", "--set", p, "--k", "3", "--nontrivial")
        assert code == 0
        assert json.loads(out)["count"] == 12

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "count", "--set", str(tmp_path / "no.json"), "--k", "3")
        assert code == 4
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("command", ["count", "roth"])
    def test_budget_exit_code(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("APINC_BUDGET", "1000")
        p = write_json(tmp_path / "a.json", DenseSet(512, range(1, 513)).to_json())
        code, out, err = run(capsys, command, "--set", p, "--k", "3")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "budget-exceeded"

    # three members 1, N/2, N-1 forming one 3-AP: the member-pair pass
    # costs 3 lookups and builds no array over [1..N], so it answers in
    # every window, also under a budget of 10^6
    @pytest.mark.parametrize("command", ["count", "roth"])
    @pytest.mark.parametrize("N, budget", [(10**7, None), (10**7, "1000000"), (10**9, None), (6 * 10**10, None)])
    def test_sparse_set_in_a_huge_window(self, tmp_path, capsys, monkeypatch, command, N, budget):
        if budget:
            monkeypatch.setenv("APINC_BUDGET", budget)
        else:
            monkeypatch.delenv("APINC_BUDGET", raising=False)
        p = write_json(tmp_path / "a.json", {"N": N, "members": [1, N // 2, N - 1]})
        tracemalloc.start()
        try:
            code, out, err = run(capsys, command, "--set", p, "--k", "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 10**6
        if command == "count":
            assert code == 0 and json.loads(out) == {"count": 4}  # with the 3 trivial progressions
        else:
            ap = {"base": 1, "step": N // 2 - 1, "len": 3}
            assert code == 0 and json.loads(out) == {"variant": "ap-found", "progression": ap}

    @pytest.mark.parametrize("command, budget", [("count", "1e9"), ("roth", "abc")])
    def test_budget_not_an_integer(self, tmp_path, capsys, monkeypatch, command, budget):
        monkeypatch.setenv("APINC_BUDGET", budget)
        p = write_json(tmp_path / "a.json", DenseSet(64, range(1, 65)).to_json())
        code, out, err = run(capsys, command, "--set", p, "--k", "3")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "invalid-argument"


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["count", "--k", "3", "--set"], {"N": 5, "members": [1, 2.5]}),
        (["count", "--k", "3", "--set"], [1, 2]),
        (["gowers", "--k", "2", "--fn"], {"M": 4, "re": [1, 0], "im": [0, 0, 0, 0]}),
        (["gowers", "--k", "2", "--fn"], {"M": 4, "re": [1, 0, "a", 0], "im": [0, 0, 0, 0]}),
    ],
    ids=["set-float-member", "set-not-object", "fn-short-re", "fn-string-value"],
)
def test_malformed_file_structured_error(tmp_path, capsys, argv, obj):
    code, out, err = run(capsys, *argv, write_json(tmp_path / "in.json", obj))
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "invalid-argument"


class TestGowers:
    def test_methods_agree(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        f = GroupFunction(rng.normal(size=8) + 1j * rng.normal(size=8))
        p = write_json(tmp_path / "f.json", f.to_json())
        _, out1, _ = run(capsys, "gowers", "--fn", p, "--k", "3", "--method", "fft")
        _, out2, _ = run(capsys, "gowers", "--fn", p, "--k", "3", "--method", "direct")
        assert abs(json.loads(out1)["norm"] - json.loads(out2)["norm"]) < 1e-9

    def test_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("APINC_BUDGET", "10")
        f = GroupFunction(np.ones(16))
        p = write_json(tmp_path / "f.json", f.to_json())
        code, _, err = run(capsys, "gowers", "--fn", p, "--k", "3")
        assert code == 3
        assert json.loads(err)["error"] == "budget-exceeded"


    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_refused(self, tmp_path, capsys, k, method):
        p = write_json(tmp_path / "f.json", GroupFunction(np.ones(4)).to_json())
        code, out, err = run(capsys, "gowers", "--fn", p, "--k", k, "--method", method)
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "invalid-argument"


class TestPartitionAndVerify:
    def test_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        code, _, err = run(
            capsys,
            "partition-phase",
            "--phase", "1/8 n",
            "--range", "1..128",
            "--eps", "0.05",
            "--out", str(out_path),
        )
        assert code == 0
        stats = json.loads(err.strip().splitlines()[-1])
        assert stats["max_diam"] <= 0.05
        code, out, _ = run(capsys, "verify", "--cert", str(out_path))
        assert code == 0
        assert json.loads(out)["ok"]

    def test_corrupted_cert_exit_2(self, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        run(capsys, "partition-phase", "--phase", "1/8 n", "--range", "1..64",
            "--eps", "0.05", "--out", str(out_path))
        cert = json.loads(out_path.read_text())
        cert["parts"].append(dict(cert["parts"][0]))
        out_path.write_text(json.dumps(cert))
        code, _, err = run(capsys, "verify", "--cert", str(out_path))
        assert code == 2
        assert json.loads(err)["reason"] == "parts-not-disjoint"

    def test_partition_nil_torus(self, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        code, _, err = run(
            capsys,
            "partition-nil",
            "--manifold", "torus:1",
            "--seq", "1/12 n",
            "--fn", "e(x)",
            "--range", "1..144",
            "--eps", "0.25",
            "--out", str(out_path),
        )
        assert code == 0
        stats = json.loads(err.strip().splitlines()[-1])
        assert stats["max_diam"] <= 0.25
        code, out, _ = run(capsys, "verify", "--cert", str(out_path))
        assert code == 0 and json.loads(out)["channel"] == "nilsequence"

    def test_verify_nil_over_budget(self, tmp_path, capsys, monkeypatch):
        # one part of 100 points: the verifier's pairwise scan costs 4950 pairs
        out_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "partition-nil", "--manifold", "torus:1", "--seq", "1/3 n",
            "--fn", "const", "--range", "1..100", "--eps", "0.1", "--out", str(out_path),
        )
        assert code == 0
        monkeypatch.setenv("APINC_BUDGET", "4950")
        code, out, _ = run(capsys, "verify", "--cert", str(out_path))
        assert code == 0 and json.loads(out)["ok"]
        monkeypatch.setenv("APINC_BUDGET", "4949")
        code, out, err = run(capsys, "verify", "--cert", str(out_path))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "budget-exceeded"

    def test_verify_charges_a_long_phase_before_expanding_it(self, tmp_path, capsys, monkeypatch):
        # 70 points of 1/7 n whose phase is padded to 5000 binomial
        # coefficients: expanding them to monomials takes minutes, and the
        # expansion's charge, 5000^3, refuses it first
        monkeypatch.delenv("APINC_BUDGET", raising=False)
        out_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "partition-phase", "--phase", "1/7 n", "--range", "1..70",
                         "--eps", "0.1", "--out", str(out_path))
        assert code == 0
        cert = json.loads(out_path.read_text())
        coeffs = cert["payload"]["phase"]["coeffs"]
        coeffs += ["0/1"] * (5000 - len(coeffs))
        out_path.write_text(json.dumps(cert))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--cert", str(out_path))
        assert time.perf_counter() - t0 < 1
        assert code == 3 and out == "" and json.loads(err)["error"] == "budget-exceeded"

    def test_unknown_manifold(self, capsys):
        code, _, err = run(
            capsys, "partition-nil", "--manifold", "sphere", "--seq", "0",
            "--fn", "const", "--range", "1..10", "--eps", "0.1",
        )
        assert code == 4

    # a polyphase certificate complete but for its payload's phase
    _NO_PHASE = {
        "channel": "polyphase",
        "source": {"base": 1, "step": 1, "len": 2},
        "epsilon": 0.1,
        "min_len": 2,
        "parts": [{"base": 1, "step": 1, "len": 2, "diam": 0.0}],
        "payload": {},
    }

    @pytest.mark.parametrize(
        "argv, cert, code, error",
        [
            (["verify"], {}, 2, "malformed-certificate"),
            (["verify"], _NO_PHASE, 2, "malformed-certificate"),
            (["partition-phase", "--phase", "1/0", "--range", "1..10", "--eps", "0.1"],
             None, 4, "invalid-argument"),
            (["partition-phase", "--phase", "1/7 n", "--range", "1..10", "--eps", "nan"],
             None, 4, "invalid-argument"),
            (["partition-phase", "--phase", "1/7 n", "--range", "1..10", "--eps", "inf"],
             None, 4, "invalid-argument"),
            (["partition-nil", "--manifold", "torus:1", "--seq", "1/7 n", "--fn", "e(x)",
              "--range", "1..10", "--eps", "nan"], None, 4, "invalid-argument"),
            (["partition-nil", "--manifold", "torus:1", "--seq", "1/7 n", "--fn", "e(x)",
              "--range", "1..10", "--eps", "inf"], None, 4, "invalid-argument"),
            (["partition-nil", "--manifold", "torus:x", "--seq", "1/7 n", "--fn", "e(x)",
              "--range", "1..10", "--eps", "0.1"], None, 4, "invalid-argument"),
            # more digits than int() reads from a string
            (["partition-phase", "--phase", "7" * 5000 + " n", "--range", "1..10", "--eps", "0.1"],
             None, 4, "invalid-argument"),
            (["partition-phase", "--phase", "1/3 C(n," + "7" * 5000 + ")", "--range", "1..10",
              "--eps", "0.1"], None, 4, "invalid-argument"),
        ],
        ids=["verify-empty", "verify-no-phase", "phase-zero-denominator", "phase-eps-nan",
             "phase-eps-inf", "nil-eps-nan", "nil-eps-inf", "nil-torus-dim",
             "phase-coeff-digits", "phase-degree-digits"],
    )
    def test_malformed_input_structured_error(self, tmp_path, capsys, argv, cert, code, error):
        if cert is not None:
            argv = argv + ["--cert", write_json(tmp_path / "cert.json", cert)]
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        payload = json.loads(err)
        if code == 2:
            assert payload["error"] == "verification-failed" and payload["reason"] == error
        else:
            assert payload["error"] == error
        assert payload["message"]

    # one 70-point part: e(x) of the constant sequence 0 on torus:1
    @staticmethod
    def _nil_cert(tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "partition-nil", "--manifold", "torus:1", "--seq", "0", "--fn", "e(x)",
            "--range", "1..70", "--eps", "0.1", "--out", str(out_path),
        )
        assert code == 0
        return json.loads(out_path.read_text())

    def _verify(self, tmp_path, capsys, cert):
        return run(capsys, "verify", "--cert", write_json(tmp_path / "mutated.json", cert))

    # every value of a non-finite function is NaN, which max() and both
    # tolerance comparisons would let through as diameter 0
    @pytest.mark.parametrize("field", ["prefactor_re", "prefactor_im", "shift"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_function_refused(self, tmp_path, capsys, field, value):
        cert = self._nil_cert(tmp_path, capsys)
        assert len(cert["parts"]) == 1 and cert["parts"][0]["len"] == 70
        fn = cert["payload"]["function"]
        (fn["factors"][0] if field == "shift" else fn)[field] = value
        code, out, err = self._verify(tmp_path, capsys, cert)
        assert code == 2 and out == ""
        assert json.loads(err)["reason"] == "malformed-certificate"

    # integer fields are read as they stand, never rounded or parsed
    @pytest.mark.parametrize(
        "path, value",
        [
            (("parts", 0, "base"), 1.9),
            (("parts", 0, "len"), "70"),
            (("min_len",), 10.5),
            (("source", "step"), True),
            (("parts", 0, "step"), 1.0),
        ],
        ids=["base-float", "len-string", "min_len-float", "step-bool", "step-integral-float"],
    )
    def test_non_integer_field_refused(self, tmp_path, capsys, path, value):
        cert = self._nil_cert(tmp_path, capsys)
        code, _, _ = self._verify(tmp_path, capsys, cert)
        assert code == 0
        obj = cert
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        code, out, err = self._verify(tmp_path, capsys, cert)
        assert code == 2 and out == ""
        assert json.loads(err)["reason"] == "malformed-certificate"

    # the verifier reads parts as integer triples with every check a
    # Progression makes: each case is refused as malformed, in the source
    # and in a part
    @pytest.mark.parametrize("where", ["source", "part"])
    @pytest.mark.parametrize(
        "fields",
        [
            {"len": 0},
            {"step": 0},
            {"step": True},
            {"len": 2.0},
            {"base": "1"},
            {"base": 2**63},
            {"base": 2**63 - 1, "step": 1, "len": 2},
        ],
        ids=["len-0", "step-0", "bool", "float", "string", "base-past-2^63", "last-past-2^63"],
    )
    def test_malformed_progression_refused(self, tmp_path, capsys, where, fields):
        out_path = tmp_path / "cert.json"
        run(capsys, "partition-phase", "--phase", "1/8 n", "--range", "1..64",
            "--eps", "0.05", "--out", str(out_path))
        cert = json.loads(out_path.read_text())
        (cert["source"] if where == "source" else cert["parts"][0]).update(fields)
        code, out, err = self._verify(tmp_path, capsys, cert)
        assert code == 2 and out == ""
        assert json.loads(err)["reason"] == "malformed-certificate"

    # float() reads true as 1.0 and "0.05" as 0.05, and tuple() reads an
    # object as its keys, a string as its characters and false as 0: on
    # the three diameter-0 parts of 1/3 n, each edit would verify
    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.update(epsilon=True),
            lambda c: c.update(epsilon="0.05"),
            lambda c: c["parts"][1].update(diam="0.0"),
            lambda c: c["parts"][1].update(diam=False),
            lambda c: c["payload"]["phase"].update(coeffs={"0/1": 7, "1/3": 9}),
            lambda c: c["payload"]["phase"].update(coeffs="0"),
            lambda c: c["payload"]["phase"].update(coeffs=[False, "1/3"]),
        ],
        ids=["eps-true", "eps-string", "diam-string", "diam-false", "coeffs-object", "coeffs-string",
             "coeffs-false"],
    )
    def test_non_number_field_refused(self, tmp_path, capsys, edit):
        out_path = tmp_path / "cert.json"
        run(capsys, "partition-phase", "--phase", "1/3 n", "--range", "1..90",
            "--eps", "0.05", "--out", str(out_path))
        cert = json.loads(out_path.read_text())
        assert [p["diam"] for p in cert["parts"]] == [0.0] * 3
        code, _, _ = self._verify(tmp_path, capsys, cert)
        assert code == 0
        edit(cert)
        code, out, err = self._verify(tmp_path, capsys, cert)
        assert code == 2 and out == ""
        assert json.loads(err)["reason"] == "malformed-certificate"

    # a manifold's dim is a JSON integer, the number of its sequence's
    # coordinates and 3 on Heisenberg: each edit verified before
    _HEISENBERG = ["--manifold", "heisenberg", "--seq", "1.4142135623730951 n; 1.7320508075688772 n; 0",
                   "--range", "1..60"]
    _TORUS2 = ["--manifold", "torus:2", "--seq", "1/7 n + 3/11 C(n,2); 0.3183098861837907 n",
               "--range", "1..200"]

    @pytest.mark.parametrize(
        "argv, edit",
        [
            (_HEISENBERG, lambda p: p["sequence"]["coords"].append(p["sequence"]["coords"][0])),
            (_HEISENBERG, lambda p: p["manifold"].update(dim=7)),
            (_TORUS2, lambda p: p["manifold"].update(dim=5)),
            (_TORUS2, lambda p: p["manifold"].update(dim=True)),
            (_TORUS2, lambda p: p["manifold"].pop("dim")),
        ],
        ids=["heisenberg-fourth-coord", "heisenberg-dim-7", "torus-dim-5", "torus-dim-true",
             "torus-no-dim"],
    )
    def test_manifold_dim_disagreeing_with_sequence_refused(self, tmp_path, capsys, argv, edit):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "partition-nil", *argv, "--fn", "e(x)*cutoff", "--eps", "0.2",
                         "--out", str(out_path))
        assert code == 0
        cert = json.loads(out_path.read_text())
        code, _, _ = self._verify(tmp_path, capsys, cert)
        assert code == 0
        edit(cert["payload"])
        code, out, err = self._verify(tmp_path, capsys, cert)
        assert code == 2 and out == ""
        assert json.loads(err)["reason"] == "malformed-certificate"

    # a phase's `exact` flag is a JSON boolean or absent: read with
    # bool(), "false" would verify the decimal phase 1/10, 3/10 in place
    # of the doubles the certificate was built from
    @pytest.mark.parametrize("value", ["false", 0, None, [], "yes"])
    @pytest.mark.parametrize(
        "argv, phase_path",
        [
            (["partition-phase", "--phase", "0.1 n + 0.3 C(n,2)"], ("payload", "phase")),
            (["partition-nil", "--manifold", "torus:2", "--seq", "0.1 n + 0.3 C(n,2); 0.7 n",
              "--fn", "e(x)"], ("payload", "sequence", "coords", 0)),
        ],
        ids=["phase", "nil"],
    )
    def test_non_boolean_exact_refused(self, tmp_path, capsys, argv, phase_path, value):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, *argv, "--range", "1..200", "--eps", "0.1",
                         "--out", str(out_path))
        assert code == 0
        cert = json.loads(out_path.read_text())
        phase = cert
        for key in phase_path:
            phase = phase[key]
        assert phase["exact"] is False
        code, _, _ = self._verify(tmp_path, capsys, cert)
        assert code == 0
        phase["exact"] = value
        code, out, err = self._verify(tmp_path, capsys, cert)
        assert code == 2 and out == ""
        assert json.loads(err)["reason"] == "malformed-certificate"

    # refused before any list over the range is built
    @pytest.mark.parametrize(
        "argv",
        [
            ["partition-phase", "--phase", "0.5 n"],
            ["partition-nil", "--manifold", "torus:1", "--seq", "0.5 n", "--fn", "e(x)"],
        ],
        ids=["phase", "nil"],
    )
    def test_range_over_budget(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--range", "1..9223372036854775807", "--eps", "0.1")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "budget-exceeded"

    # PolyPhase keeps the exact 1/3 but writes every coefficient of a
    # mixed phase as a double, so the verifier checks 0.3333333333333333
    # (ROADMAP item 7(e)): it reports witness-mismatch, stored 1.1e-13,
    # recomputed 3.69e-09; mending it changes the certificate's bytes
    @pytest.mark.xfail(strict=True, reason="a mixed phase is serialised as doubles")
    def test_mixed_coefficient_phase_verifies(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "partition-phase", "--phase", "0.1 n + 1/3 C(n,2)",
                         "--range", "1..20000", "--eps", "0.1", "--out", str(path))
        assert code == 0
        code, _, err = run(capsys, "verify", "--cert", str(path))
        assert code == 0, err

    def test_byte_stable_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "partition-phase", "--phase", "1/7 n", "--range", "1..70",
                "--eps", "0.1", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    # the certificate is formatted row by row, in the bytes of
    # json.dumps(indent=2, sort_keys=True), whose pure-Python encoder
    # peaked at 18.7 MB on criterion 5's certificate
    def test_criterion_5_certificate_written_in_little_memory(self, tmp_path, capsys):
        phi = PolyPhase.binomial([0, math.sqrt(2), math.sqrt(3)])
        cert = partition_polyphase(phi, Progression(1, 1, 20000), 0.05)
        path = tmp_path / "cert.json"
        tracemalloc.start()
        try:
            emit_partition(cert, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 10**6
        reference = {  # the format, built from the certificate's fields without its writer
            "channel": cert.channel,
            "source": {"base": 1, "step": 1, "len": 20000},
            "epsilon": cert.epsilon,
            "min_len": min(n for _, _, n in cert.parts),
            "parts": [
                dict(base=b, step=s, len=n, diam=w) for (b, s, n), w in zip(cert.parts, cert.diam_witness)
            ],
            "payload": cert.payload,
        }
        assert path.read_text() == json.dumps(reference, indent=2, sort_keys=True) + "\n"

    # SHA-256 of certificates as earlier implementations wrote them (the
    # first two by the Fraction-based kernel): a change that keeps the
    # construction must reproduce them byte for byte
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["partition-phase",
                 "--phase", "1.4142135623730951 n + 1.7320508075688772 C(n,2)",
                 "--range", "1..2000", "--eps", "0.05"],
                "986400d59bbb217cf661a23834a0c3d56ce03dab0f2caa3be4d76723c9c3ac5f",
            ),
            # criterion 5's certificate: 18,733 parts in 1,613,025 bytes
            (
                ["partition-phase",
                 "--phase", "1.4142135623730951 n + 1.7320508075688772 C(n,2)",
                 "--range", "1..20000", "--eps", "0.05"],
                "fdce7ea3a74df7c8a899d58446c3f0c5d46033bf37571328481b6ec353f7b5ef",
            ),
            (
                ["partition-nil", "--manifold", "heisenberg",
                 "--seq", "1.4142135623730951 n; 1.7320508075688772 n; 0",
                 "--fn", "e(x)*cutoff", "--range", "1..500", "--eps", "0.1"],
                "ec5d1655c20a8fb3a63c911e292dcc5f8de1fe15aa7129dbb41c1a59c2977261",
            ),
            (
                ["partition-nil", "--manifold", "heisenberg",
                 "--seq", "1.4142135623730951 n; 1.7320508075688772 n; 0",
                 "--fn", "e(x)*cutoff", "--range", "1..5000", "--eps", "0.1"],
                "ae156439ed8500244eebe1bca2397275bef9c96912611f9d5cfe102924e3c1e7",
            ),
            # every pivot part at eps 0.1 is a point; at eps 0.5 the
            # recursion reaches its second level
            (
                ["partition-nil", "--manifold", "heisenberg",
                 "--seq", "1.4142135623730951 n; 1.7320508075688772 n; 0",
                 "--fn", "e(x)*cutoff", "--range", "1..5000", "--eps", "0.5"],
                "053177d86918fa2eab2dae7f98b72dacc0e46fdbeac3bb4ff29bf13d2a7470a3",
            ),
            (
                ["partition-nil", "--manifold", "torus:2",
                 "--seq", "1/7 n + 3/11 C(n,2); 0.3183098861837907 n",
                 "--fn", "e(x)*cutoff", "--range", "1..3000", "--eps", "0.2"],
                "01cff2ad97c6af5d20e6da4ceeab7d8fab153865eb073c9dfe3ff7402f6da271",
            ),
            (
                ["partition-phase",
                 "--phase", "3/7 n + 1/1000 C(n,2) + 0.0000123 C(n,3)",
                 "--range", "1..4000", "--eps", "0.1"],
                "954bf7023b3c68b70f6b72e6c5f9195c20ec4162c4b8d464d194d1dd7344a920",
            ),
        ],
        ids=["phase-2000", "phase-20000", "heisenberg-500", "heisenberg-5000", "heisenberg-5000-eps05",
             "torus2-3000", "phase-cubic-4000"],
    )
    def test_golden_digest(self, tmp_path, capsys, argv, digest):
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRoth:
    def test_dense_set_finds_ap(self, tmp_path, capsys):
        p = write_json(tmp_path / "a.json", DenseSet(64, range(1, 65)).to_json())
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "roth", "--set", p, "--k", "3", "--trace", str(trace))
        assert code == 0
        res = json.loads(out)
        assert res["variant"] == "ap-found"
        prog = res["progression"]
        elems = [prog["base"] + i * prog["step"] for i in range(prog["len"])]
        assert all(1 <= e <= 64 for e in elems)
        lines = trace.read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_invalid_set_file(self, tmp_path, capsys):
        p = write_json(tmp_path / "a.json", {"N": 10, "members": [99]})
        code, _, err = run(capsys, "roth", "--set", p, "--k", "3")
        assert code == 4

    # {1, 2} has fewer than 3 members, so the AP scan charges nothing; the
    # balanced function on Z_32768 costs 32768 * 16 before it is allocated
    @pytest.mark.parametrize("budget, code", [(32768 * 16, 0), (32768 * 16 - 1, 3)])
    def test_sparse_set_charges_the_embedding(self, tmp_path, capsys, monkeypatch, budget, code):
        monkeypatch.setenv("APINC_BUDGET", str(budget))
        p = write_json(tmp_path / "a.json", DenseSet(4096, [1, 2]).to_json())
        got, out, err = run(capsys, "roth", "--set", p, "--k", "3")
        assert got == code
        assert code == 0 or (out == "" and json.loads(err)["error"] == "budget-exceeded")
