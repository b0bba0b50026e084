"""Self-tests of the benchmark at tiny sizes: python3 -m pytest perfbench"""

import json
import shutil
import sys

import pytest

import run
import spans
import workloads

TINY = {
    "phase-cert": {"n": 300},
    "heisenberg-cert": {"n": 120},
    "roth-digit": {"digits": 6},
    "roth-random": {"sets": 4, "n": 256},
}

with open(workloads.ROOT / "BENCHMARK.json") as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def work_dir():
    workloads.WORK.mkdir(exist_ok=True)
    yield
    shutil.rmtree(workloads.WORK, ignore_errors=True)


def tiny_run(name, trace, seed=0):
    wl, setup_samples = run.setup(name, seed, reps=1, **TINY[name])
    plain, traced, tracer = run.measure(wl, 0, trace)
    return run.summarize(seed, setup_samples, plain, traced, tracer)


@pytest.mark.parametrize("name", sorted(TINY))
def test_metric_names_match_benchmark_json(name):
    assert name in [w["name"] for w in SPEC["workloads"]]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        metrics, _, attempted, failed = tiny_run(name, trace)
        assert failed == 0 and attempted >= 1
        assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("tamper", ["drop-element", "alter-witness"])
def test_tampered_certificate_counts_as_failed(tamper):
    wl = workloads.phase_cert(0, n=300)
    code, _ = workloads.run_cli(wl.argv + ["--out", str(wl.path)])
    assert code == 0
    cert = json.loads(wl.path.read_text())
    if tamper == "drop-element":
        part = next(p for p in cert["parts"] if p["len"] >= 2)
        part["len"] -= 1
    else:
        part = next(p for p in cert["parts"] if p["diam"] > 0)
        part["diam"] = part["diam"] / 2
    wl.path.write_text(json.dumps(cert))
    verify_code, verify_out = workloads.run_cli(["verify", "--cert", str(wl.path)])
    assert verify_code != 0
    result = wl.check(code, verify_code, verify_out)
    assert result["failed"] == 2, result["problems"]


def test_untampered_certificate_passes():
    rnd = workloads.phase_cert(0, n=300).round()
    assert rnd["failed"] == 0, rnd["problems"]


def test_independent_phase_check_catches_a_wrong_witness():
    wl = workloads.phase_cert(0, n=300)
    workloads.run_cli(wl.argv + ["--out", str(wl.path)])
    cert = json.loads(wl.path.read_text())
    assert workloads.check_certificate(cert, 1, 300, workloads.PHASE_EPS)[0] == []
    next(p for p in cert["parts"] if p["diam"] > 0)["diam"] += 2**-20
    assert workloads.check_certificate(cert, 1, 300, workloads.PHASE_EPS)[0]


def installed_wrappers():
    """Names in the apinc modules and their classes holding a tracer wrapper."""
    found = []
    for k, m in list(sys.modules.items()):
        if k == "apinc" or k.startswith("apinc."):
            for attr, v in vars(m).items():
                members = vars(v).items() if isinstance(v, type) else [("", v)]
                found += [f"{k}.{attr}" + (f".{a}" if a else "") for a, f in members if getattr(f, spans.MARK, False)]
    return found


def test_traced_run_leaves_no_wrapper_and_sees_imported_names():
    tracer = spans.Tracer()
    with tracer:
        assert "apinc.engine.ap_count" in installed_wrappers()
        assert "apinc.polyphase.PolyPhase.eval" in installed_wrappers()
    metrics, _, _, failed = tiny_run("roth-digit", 1)
    assert failed == 0
    assert installed_wrappers() == []
    # reached only through names engine imported from gowers and polyphase
    assert metrics["gowers.ap_count.calls"]["value"] > 0
    assert metrics["gowers.inverse_u2.calls"]["value"] > 0
    assert metrics["polyphase.partition_polyphase.calls"]["value"] > 0
    assert metrics["engine.partitions_per_increment"]["value"] >= 1
    assert metrics["engine.increments"]["value"] >= 1


def test_roth_digit_gate_rejects_an_inflated_increment():
    wl = workloads.RothDigit(0, digits=6)
    outcome, trace = workloads.apinc.engine.szemeredi_search(wl.A, 3, floor_n0=workloads.FLOOR)
    assert wl.check(outcome, trace)[0] == []
    trace.records[0]["delta_eff"] = 4.0
    assert wl.check(outcome, trace)[0]


def test_seed_zero_inputs_and_ap_free_translates():
    N, members = workloads.digit_set(0)
    assert (N, len(members), members[-1]) == (59049, 1024, 59049)
    assert all(set(f"{_ternary(x)}") <= {"0", "1"} for x in members)
    assert workloads._window_start(0) == 1
    for seed in (1, 2):
        N, members = workloads.digit_set(seed, digits=5)
        assert len(members) == 32 and max(members) <= N
        s = set(members)
        assert not any(2 * y - x in s for x in members for y in members if y > x)


def _ternary(x):
    out = ""
    while x:
        x, r = divmod(x, 3)
        out = str(r) + out
    return out
