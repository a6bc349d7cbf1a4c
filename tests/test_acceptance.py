"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line on success (visible with pytest -s);
a failure shows up as a normal pytest failure for that criterion.
"""

import math
import time

import numpy as np
import pytest

from mubforge.classes import (
    CommutingClass,
    build_classes_2n1,
    build_classes_Ln,
    fixture_d4,
    validate_partition,
)
from mubforge.entropy import (
    avg_entropy,
    bounds,
    hermitian_eigmax,
    minimize_avg_entropy,
    pvec_operator,
    sweep_max_eigen,
)
from mubforge.mub import (
    build_mub_set,
    common_eigenbasis,
    eigenvector_residual,
    verify_cycle,
)
from mubforge.pauli import (
    build_gamma_generators,
    commutes,
    gamma_product,
    identity,
    multiply,
    to_dense,
)
from mubforge.wigner import point_levels, wigner_entropy_bound
from oracles import (
    all_point_operators,
    iter_sweep_rows,
    phase_ramp_states,
    raw_unbiasedness_deviation,
)

MINUS_LOG2_5_8 = 0.6780719051126377  # -log2(5/8)
MINUS_LOG2_2_3 = 0.5849625007211562  # -log2(2/3)

SWEEP_TEST_GATE = 65536  # strings; larger sweeps are skipped in criterion 5


def _all_construction_parts():
    parts = [fixture_d4(3), fixture_d4(4)]
    parts += [build_classes_2n1(n) for n in (1, 2, 3, 5)]
    parts += [build_classes_Ln(n, L) for n, L in ((2, 2), (3, 3), (4, 2), (5, 5))]
    return parts


@pytest.fixture(scope="module")
def constructed_mub_sets():
    return [build_mub_set(p) for p in _all_construction_parts()]


def test_criterion_01_algebra_suite():
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        gs = build_gamma_generators(n)
        assert len(gs) == 2 * n + 1
        for i in range(2 * n + 1):
            assert multiply(gs[i], gs[i]) == identity(n)
            for j in range(i + 1, 2 * n + 1):
                ab, ba = multiply(gs[i], gs[j]), multiply(gs[j], gs[i])
                assert (ab.xmask, ab.zmask) == (ba.xmask, ba.zmask)
                assert (ab.phase - ba.phase) % 4 == 2
        if n <= 3:
            d = 2**n
            mats = [to_dense(g) for g in gs.gammas]
            for i, A in enumerate(mats):
                assert np.max(np.abs(A @ A - np.eye(d))) < 1e-12
                for B in mats[i + 1 :]:
                    assert np.max(np.abs(A @ B + B @ A)) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"algebra suite took {elapsed:.2f} s"
    print(f"\ncriterion 1 PASS - algebra suite, n in 1..4, {elapsed:.2f} s")


def test_criterion_02_construction_suite():
    t0 = time.perf_counter()
    count = 0
    for part in _all_construction_parts():
        report = validate_partition(part)
        assert report.ok, (part.n, part.L, report.failures)
        ms = build_mub_set(part)
        dev = raw_unbiasedness_deviation(ms.bases)
        assert dev < 1e-8, (part.n, part.L, dev)
        cyc = verify_cycle(ms)
        assert cyc.worst_residual < 1e-8, (part.n, part.L, cyc.worst_residual)
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"construction suite took {elapsed:.2f} s"
    print(f"criterion 2 PASS - {count} constructions built and validated, {elapsed:.2f} s")


def test_criterion_03_tightness_d4_l4():
    ms = build_mub_set(fixture_d4(4))
    res = sweep_max_eigen(ms)
    assert abs(res.lambda_star - 0.625) < 1e-10
    assert abs(res.min_avg_entropy - bounds(4, 4).small_L) < 1e-6
    assert abs(res.min_avg_entropy - MINUS_LOG2_5_8) < 1e-6
    coeffs = np.exp(1j * np.pi * np.arange(4) / 4) / 2
    states = phase_ramp_states(ms, coeffs)
    assert states
    for v in states:
        assert eigenvector_residual(ms.U, v) < 1e-8
        assert abs(avg_entropy(ms, v, math.inf) - MINUS_LOG2_5_8) < 1e-6
    print("criterion 3 PASS - d=4 L=4: lambda*=5/8, invariant states attain 0.678072")


def test_criterion_04_tightness_d4_l3():
    ms = build_mub_set(fixture_d4(3))
    res = sweep_max_eigen(ms)
    assert abs(res.lambda_star - 2 / 3) < 1e-10
    assert abs(res.min_avg_entropy - MINUS_LOG2_2_3) < 1e-10
    assert abs(bounds(3, 4).small_L - MINUS_LOG2_2_3) < 1e-12
    print("criterion 4 PASS - d=4 L=3: lambda*=2/3, bound 0.584963 attained")


def test_criterion_05_bound_dominance(constructed_mub_sets):
    rng = np.random.default_rng(2024)
    for ms in constructed_mub_sets:
        L, d = ms.L, ms.d
        best = bounds(L, d).best
        mats = [b.vectors for b in ms.bases]
        x = rng.normal(size=(d, 1000)) + 1j * rng.normal(size=(d, 1000))
        x /= np.linalg.norm(x, axis=0)
        peaks = np.stack([np.max(np.abs(B.conj().T @ x) ** 2, axis=0) for B in mats])
        avg_hinf = np.mean(-np.log2(peaks), axis=0)
        assert np.min(avg_hinf) >= best - 1e-9, (L, d, float(np.min(avg_hinf)))
        if d**L <= SWEEP_TEST_GATE:
            z1 = (1 / L) * (1 + (L - 1) / math.sqrt(d))
            z2 = (1 / d) * (1 + (d - 1) / math.sqrt(L))
            zmin = min(z1, z2)
            for _, lam in iter_sweep_rows(ms):
                assert lam <= zmin + 1e-10, (L, d, lam, zmin)
    print("criterion 5 PASS - bound dominance on 1000 random states per set + sweeps")


def test_criterion_06_bound_equivalence_at_L_eq_d():
    for d in (2, 4, 8, 16, 32):
        bs = bounds(d, d)
        assert abs(bs.small_L - bs.large_L) < 1e-12, d
    print("criterion 6 PASS - small_L(d,d) = large_L(d,d) for d in {2,...,32}")


def test_criterion_07_h2_tightness_structure_d4_l3():
    ms = build_mub_set(fixture_d4(3))
    gs = build_gamma_generators(2)
    transversal = CommutingClass(
        (gs[0], gamma_product(gs, [2, 4], 1), gamma_product(gs, [3, 1], 1)),
        singleton_index=0,
    )
    basis = common_eigenbasis(transversal)
    eig_values = [
        avg_entropy(ms, basis.vectors[:, b], 2) for b in range(4)
    ]
    _, numeric = minimize_avg_entropy(ms, 2, restarts=32, seed=7)
    assert abs(min(eig_values) - numeric) < 1e-4, (min(eig_values), numeric)
    print(
        f"criterion 7 PASS - d=4 L=3 H2 minimum {numeric:.6f} attained by a "
        "transversal joint eigenstate"
    )


def test_criterion_08_d8_l3_gap():
    ms = build_mub_set(build_classes_Ln(3, 3))
    res = sweep_max_eigen(ms)
    assert res.count == 512
    best = bounds(3, 8).best
    gap = res.min_avg_entropy - best
    assert gap >= -1e-9
    assert gap < 0.1, f"gap {gap:.4f} bits"
    print(f"criterion 8 PASS - d=8 L=3 sweep gap {gap:.4f} bits < 0.1")


def test_criterion_09_wigner_suite():
    t0 = time.perf_counter()
    for n in (1, 2):
        ms = build_mub_set(build_classes_2n1(n))
        d = ms.d
        assert ms.L == d + 1
        ops = all_point_operators(ms)
        for A in ops:
            assert abs(np.trace(A.matrix) - 1) < 1e-10
        for i, A in enumerate(ops):
            for B in ops[i:]:
                want = d if A.alpha == B.alpha else 0.0
                assert abs(np.trace(A.matrix @ B.matrix).real - want) < 1e-10
        rng = np.random.default_rng(n)
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = M @ M.conj().T
        rho /= np.trace(rho).real
        total = sum(np.trace(A.matrix @ rho).real / d for A in ops)
        assert abs(total - 1) < 1e-10
        # A_alpha + I is L times the selector of the phase-point string
        for A in ops:
            P = ms.L * pvec_operator(ms, A.b).matrix
            assert np.max(np.abs(A.matrix + np.eye(d) - P)) < 1e-12
        wb = wigner_entropy_bound(ms, point_levels(ms))["bits"]
        full = sweep_max_eigen(ms)
        assert wb <= full.min_avg_entropy + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"wigner suite took {elapsed:.2f} s"
    print(f"criterion 9 PASS - wigner suite d in {{2,4}}, {elapsed:.2f} s")


def test_criterion_10_performance_sweep():
    # five mutually unbiased bases in d=8 (the cyclic set has seven; any
    # five exercise the same 8^5-string sweep)
    ms = build_mub_set(build_classes_2n1(3))
    five = ms.bases[:5]
    t0 = time.perf_counter()
    res4 = sweep_max_eigen(five, workers=4)
    elapsed = time.perf_counter() - t0
    assert res4.count == 32768
    assert elapsed < 10.0, f"8^5 sweep on 4 workers took {elapsed:.2f} s"
    res1 = sweep_max_eigen(five, workers=1)
    assert res1.lambda_star == res4.lambda_star
    assert res1.b_star == res4.b_star
    assert res1.count == res4.count
    print(
        f"criterion 10a PASS - 8^5 sweep in {elapsed:.2f} s on 4 workers, "
        "bit-identical to 1 worker"
    )


def test_criterion_10_full_gate(tmp_path):
    # the oversized d=8 sweeps stay gated: without --full the figure-2
    # reproduction samples instead of sweeping 8^7, and the library refuses
    # anything over budget outright
    from mubforge.cli import main
    from mubforge.entropy import BudgetExceededError

    code = main(
        [
            "reproduce-fig",
            "--which",
            "2",
            "--out",
            str(tmp_path),
            "--restarts",
            "8",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    rows = (tmp_path / "fig2.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    data = {int(r.split(",")[0]): dict(zip(header, r.split(","))) for r in rows[1:]}
    assert set(data) == set(range(2, 10))
    assert data[3]["sweep_mode"] == "full"
    assert data[7]["sweep_mode"] == "sampled"
    assert data[9]["sweep_bits"] == ""  # L=9 is not cyclically constructible
    with pytest.raises(BudgetExceededError):
        sweep_max_eigen(build_mub_set(build_classes_2n1(3)), budget=10**6)
    print("criterion 10b PASS - 8^7 sweep gated behind --full, budget refusal works")
