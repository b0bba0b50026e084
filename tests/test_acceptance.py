"""End-to-end acceptance suite: ten numbered criteria, one pass/fail
line each (pytest -v shows one verdict per criterion; each test also
prints a summary line with the measured quantities)."""

import json
import math
import pathlib
import time
from fractions import Fraction

import numpy as np

from apinc.engine import (
    APFound,
    Incremented,
    Inconclusive,
    catalog_oracle,
    density_increment_step,
    increment_from_witness,
    szemeredi_search,
)
from apinc.gowers import (
    DenseSet,
    GroupFunction,
    ap_count,
    balanced,
    gowers_norm,
    lambda_k,
    lambda_k_exact,
    m_embed,
)
from apinc.nil import Nilmanifold, PolySequence, lipschitz_catalog, partition_nilsequence
from apinc.oracle import brute_ap_count, brute_gowers, max_ap_free, verify_certificate
from apinc.polyphase import PolyPhase, partition_polyphase
from apinc.progressions import Progression

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
SLACK = Fraction(1, 2**30)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_bounded(M, rng):
    r = rng.uniform(0, 1, M)
    return GroupFunction(r * np.exp(2j * np.pi * rng.uniform(0, 1, M)), bounded=True)


def digit_restricted(N):
    out = []
    for n in range(1, N + 1):
        m = n
        while m:
            if m % 3 == 2:
                break
            m //= 3
        else:
            out.append(n)
    return out


def test_criterion_01_gauss_sum_norm():
    t0 = time.monotonic()
    M = 17
    n = np.arange(M)
    f = GroupFunction(np.exp(2j * np.pi * n * n / M), bounded=True)
    fft_val = gowers_norm(f, 2)
    direct_val = brute_gowers(f, 2)
    elapsed = time.monotonic() - t0
    ok = (
        abs(fft_val - M**-0.25) < 1e-9
        and abs(fft_val - direct_val) < 2.0**-30
        and elapsed < 1.0
    )
    report(1, ok, f"U2={fft_val:.12f}, target={M**-0.25:.12f}, {elapsed:.3f}s")
    assert ok


def test_criterion_02_von_neumann_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(500):
        fs = [random_bounded(64, rng) for _ in range(3)]
        lhs = abs(lambda_k(fs))
        rhs = min(gowers_norm(f, 2) for f in fs)
        if lhs > rhs + 2.0**-30:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 30.0
    report(2, ok, f"500 triples on Z_64, {violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_03_inverse_u2_guarantee():
    rng = np.random.default_rng(2025)
    violations = 0
    for _ in range(500):
        f = random_bounded(256, rng)
        u2 = gowers_norm(f, 2)
        peak = float(np.max(np.abs(f.fourier())))
        if peak < u2**2 - 2.0**-30:
            violations += 1
    ok = violations == 0
    report(3, ok, f"500 functions on Z_256, {violations} violations")
    assert ok


def test_criterion_04_lambda_vs_enumeration():
    rng = np.random.default_rng(2026)
    mismatches = 0
    for _ in range(100):
        members = [i for i in range(1, 65) if rng.random() < 0.5] or [1]
        A = DenseSet(64, members)
        M = m_embed(64, 3)
        ind = np.zeros(M, dtype=np.int64)
        ind[np.array(A.members)] = 1
        total = lambda_k_exact([ind] * 3, M)
        # each nontrivial AP appears at d and M - d; each member once at d = 0
        derived = (total - len(A)) // 2
        if (total - len(A)) % 2 != 0 or derived != brute_ap_count(A, 3):
            mismatches += 1
    ok = mismatches == 0
    report(4, ok, f"100 subsets of [64], {mismatches} mismatches")
    assert ok


def test_criterion_05_phase_certificate_20000():
    t0 = time.monotonic()
    phi = PolyPhase.binomial([0, SQRT2, SQRT3])
    cert = partition_polyphase(phi, Progression(1, 1, 20000), 0.05)
    res = verify_certificate(cert.to_json())
    elapsed = time.monotonic() - t0
    ok = (
        res["ok"]
        and res["max_diam"] <= 0.05
        and res["min_len"] >= 4
        and elapsed < 60.0
    )
    report(
        5,
        ok,
        f"{res['num_parts']} parts, min_len={res['min_len']}, "
        f"max_diam={res['max_diam']:.6f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_06_heisenberg_certificate():
    t0 = time.monotonic()
    Mf = Nilmanifold.heisenberg()
    g = PolySequence(
        [PolyPhase.monomial([0, SQRT2]), PolyPhase.monomial([0, SQRT3]), PolyPhase.zero()]
    )
    F = lipschitz_catalog("e(x)*cutoff")
    cert = partition_nilsequence(Mf, g, F, Progression(1, 1, 5000), 0.1)
    res = verify_certificate(cert.to_json())
    elapsed = time.monotonic() - t0
    depth = cert.payload["depth"]
    ok = res["ok"] and res["max_diam"] <= 0.1 and depth <= 3 and elapsed < 120.0
    report(
        6,
        ok,
        f"{res['num_parts']} parts, depth={depth}, "
        f"max_diam={res['max_diam']:.6f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_increment_inequality_trace():
    A = DenseSet(729, digit_restricted(729))
    assert len(A.members) == 64
    assert brute_ap_count(A, 3) == 0
    out, trace = szemeredi_search(A, 3, floor_n0=8)
    incremented = [r for r in trace.records if r["outcome"] == "incremented"]
    exact_ok = True
    for r in incremented:
        # |A'| / |P'| >= alpha + delta_eff/4, exactly in integers after
        # clearing denominators (floats are exact dyadic rationals)
        alpha = Fraction(r["size"], r["N"])
        d4 = Fraction(r["delta_eff"]) / 4
        lhs = Fraction(r["new_density"]).limit_denominator(r["part"]["len"] * 4)
        hits = round(r["new_density"] * r["part"]["len"])
        lhs = Fraction(hits, r["part"]["len"])
        if not lhs >= alpha + d4 - SLACK:
            exact_ok = False
    ds = trace.densities()
    ok = (
        isinstance(out, Inconclusive)
        and out.reason == "length-floor"
        and len(incremented) >= 1
        and exact_ok
        and all(b > a for a, b in zip(ds, ds[1:]))
        and not any(r["outcome"] == "ap-found" for r in trace.records)
    )
    report(
        7,
        ok,
        f"{len(incremented)} increments, densities {['%.3f' % d for d in ds]}, "
        f"terminal={out.reason if isinstance(out, Inconclusive) else out.variant}",
    )
    assert ok


def test_criterion_08_apfound_soundness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2027)
    failures = 0
    for _ in range(50):
        members = [i for i in range(1, 4097) if rng.random() < 0.5]
        A = DenseSet(4096, members)
        out, _ = szemeredi_search(A, 3, floor_n0=8)
        if not isinstance(out, APFound):
            failures += 1
            continue
        p = out.progression
        if p.step == 0 or not all(x in set(members) for x in p.elements()):
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 60.0
    report(8, ok, f"50 runs, {failures} failures, {elapsed:.1f}s")
    assert ok


def test_criterion_09_golden_table():
    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "max_ap_free_k3.json").read_text()
    )
    mismatches = [
        N for N in range(1, 21) if max_ap_free(N, 3) != golden["values"][str(N)]
    ]
    ok = not mismatches and "provenance" in golden
    report(9, ok, f"N=1..20, mismatches={mismatches}")
    assert ok


def test_criterion_10_catalog_oracle():
    N, grid = 512, 64
    theta, c = Fraction(5, grid), Fraction(3, grid)
    members = [
        n for n in range(1, N + 1) if float((theta * n * (n - 1) / 2 + c * n) % 1) < 0.25
    ]
    A = DenseSet(N, members)
    # balanced function on Z_N itself: the window is the whole group
    alpha = A.density
    vals = np.full(N, -alpha)
    vals[np.array(A.members) % N] += 1.0
    f = GroupFunction(vals, bounded=True)

    w = catalog_oracle(grid=grid, threshold=0.05)(f)
    structured_ok = w is not None and w.correlation >= 0.1
    inc_ok = False
    if structured_ok:
        out = increment_from_witness(A, w, floor_n0=2)
        if isinstance(out, Incremented):
            hits = sum(1 for x in out.part.elements() if x in set(A.members))
            lhs = Fraction(hits, out.part.len)
            rhs = A.density_exact + Fraction(out.delta_eff) / 4 - SLACK
            inc_ok = lhs >= rhs

    rng = np.random.default_rng(2028)
    B = DenseSet(N, sorted(rng.choice(np.arange(1, N + 1), size=len(A), replace=False)))
    vals_b = np.full(N, -B.density)
    vals_b[np.array(B.members) % N] += 1.0
    fb = GroupFunction(vals_b, bounded=True)
    unstructured_ok = catalog_oracle(grid=grid, threshold=0.5)(fb) is None

    ok = structured_ok and inc_ok and unstructured_ok
    report(
        10,
        ok,
        f"corr={w.correlation if w else None:.4f}, increment={inc_ok}, "
        f"random-not-found={unstructured_ok}",
    )
    assert ok
