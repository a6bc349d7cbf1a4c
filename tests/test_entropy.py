import functools
import math
import os
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubforge import entropy
from mubforge.classes import build_classes_2n1, fixture_d4
from mubforge.cli import build_partition
from mubforge.entropy import (
    BudgetExceededError,
    avg_entropy,
    bounds,
    hermitian_eigmax,
    minimize_avg_entropy,
    outcome_distribution,
    pvec_operator,
    renyi_entropy,
    sample_max_eigen,
    sweep_max_eigen,
)
from mubforge.mub import build_mub_set
from oracles import (
    decimal_avg_entropy_and_grad,
    iter_sweep_rows,
    phase_ramp_states,
    slow_avg_entropy_and_grad,
    symmetrize,
)

TARGET_D4_L4 = 0.6780719051126378  # -log2(5/8)
TARGET_D4_L3 = 0.5849625007211562  # -log2(2/3)


@pytest.fixture(scope="module")
def ms4():
    return build_mub_set(fixture_d4(4))


@pytest.fixture(scope="module")
def ms3():
    return build_mub_set(fixture_d4(3))


def test_renyi_on_own_basis_element(ms4):
    psi = ms4.bases[0].vectors[:, 2]
    for alpha in (0.5, 1, 2, 7, math.inf):
        assert abs(renyi_entropy(ms4.bases[0], psi, alpha)) < 1e-9


def test_renyi_on_unbiased_state(ms4):
    psi = ms4.bases[1].vectors[:, 0]  # unbiased to basis 0
    for alpha in (0.5, 1, 2, math.inf):
        assert abs(renyi_entropy(ms4.bases[0], psi, alpha) - 2.0) < 1e-9


def test_renyi_ordering_random_states(ms4):
    rng = np.random.default_rng(41)
    for _ in range(200):
        x = rng.normal(size=8)
        psi = x[:4] + 1j * x[4:]
        psi /= np.linalg.norm(psi)
        B = ms4.bases[0]
        h1 = renyi_entropy(B, psi, 1)
        h2 = renyi_entropy(B, psi, 2)
        hinf = renyi_entropy(B, psi, math.inf)
        assert 2.0 + 1e-12 >= h1 >= h2 - 1e-12
        assert h2 >= hinf - 1e-12
        assert hinf >= -1e-12


def test_renyi_rejects_bad_input(ms4):
    with pytest.raises(ValueError):
        renyi_entropy(ms4.bases[0], np.array([1.0, 1.0, 0, 0]), 2)
    psi = ms4.bases[0].vectors[:, 0]
    with pytest.raises(ValueError):
        renyi_entropy(ms4.bases[0], psi, 0)
    with pytest.raises(ValueError):
        renyi_entropy(ms4.bases[0], psi, -1)


def test_density_matrix_input(ms4):
    rho = np.eye(4, dtype=complex) / 4
    assert abs(avg_entropy(ms4, rho, math.inf) - 2.0) < 1e-12
    p = outcome_distribution(ms4.bases[2], rho)
    assert np.allclose(p, 0.25)


def test_basis_element_on_complete_set():
    # a basis element scores 0 in its own basis and log2(d) in the other L-1,
    # the ceiling any state can reach once one term vanishes
    ms = build_mub_set(build_classes_2n1(2))
    psi = ms.bases[0].vectors[:, 1]
    for alpha in (1, 2, math.inf):
        want = (ms.L - 1) / ms.L * 2.0
        assert abs(avg_entropy(ms, psi, alpha) - want) < 1e-9


def test_avg_entropy_alpha_monotone(ms4):
    rng = np.random.default_rng(43)
    alphas = [0.7, 1, 1.5, 2, 5, 20, math.inf]
    for _ in range(50):
        x = rng.normal(size=8)
        psi = (x[:4] + 1j * x[4:])
        psi /= np.linalg.norm(psi)
        vals = [avg_entropy(ms4, psi, a) for a in alphas]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-12


def test_bounds_values():
    bs = bounds(4, 4)
    assert abs(bs.small_L - TARGET_D4_L4) < 1e-12
    assert abs(bs.small_L + math.log2(5 / 8)) < 1e-12
    bs2 = bounds(2, 4)
    # at L = 2 the bound is Deutsch's, -log2((1 + 1/sqrt(d))/2)
    assert abs(bs2.small_L + math.log2((1 + 1 / math.sqrt(4)) / 2)) < 1e-12
    assert abs(bs2.small_L + math.log2(3 / 4)) < 1e-12
    bs3 = bounds(3, 4)
    assert abs(bs3.small_L - TARGET_D4_L3) < 1e-12


def test_bounds_equal_at_L_eq_d():
    for d in (2, 4, 8, 16, 32):
        bs = bounds(d, d)
        assert abs(bs.small_L - bs.large_L) < 1e-12


def test_bounds_large_L_regime():
    bs = bounds(9, 8)
    assert bs.large_L > bs.small_L
    assert bs.best == bs.large_L


def test_pvec_operator_forms(ms4):
    # the mean of the selected projectors: trace 1, Hermitian
    b = (0, 1, 2, 3)
    mean = pvec_operator(ms4, b)
    cols = [B.vectors[:, i] for B, i in zip(ms4.bases, b)]
    total = sum(np.outer(v, v.conj()) for v in cols)
    assert np.allclose(total, 4 * mean.matrix)
    assert mean.b == b
    assert abs(np.trace(mean.matrix) - 1) < 1e-12
    assert np.max(np.abs(mean.matrix - mean.matrix.conj().T)) < 1e-12
    with pytest.raises(IndexError):
        pvec_operator(ms4, (0, 1, 2, 9))
    with pytest.raises(ValueError):
        pvec_operator(ms4, (0, 1, 2))


def test_pvec_single_basis_is_projector(ms4):
    P = pvec_operator([ms4.bases[0]], (2,)).matrix
    assert np.allclose(P @ P, P, atol=1e-12)
    lam, _ = hermitian_eigmax(P)
    assert abs(lam - 1) < 1e-12


def test_pvec_eigenvalues_below_both_bounds(ms4):
    # mean-form top eigenvalue never exceeds either zeta expression
    L, d = 4, 4
    z1 = (1 / L) * (1 + (L - 1) / math.sqrt(d))
    z2 = (1 / d) * (1 + (d - 1) / math.sqrt(L))
    for b, lam in iter_sweep_rows(ms4):
        assert lam <= z1 + 1e-10
        assert lam <= z2 + 1e-10


def test_hermitian_eigmax_basics():
    lam, v = hermitian_eigmax(np.eye(3))
    assert lam == 1.0
    assert np.allclose(v, [1, 0, 0])
    lam, v = hermitian_eigmax(np.diag([0.1, 0.9]))
    assert abs(lam - 0.9) < 1e-15
    assert np.allclose(np.abs(v), [0, 1])
    with pytest.raises(ValueError):
        hermitian_eigmax(np.array([[0, 1], [0, 0]]))


def test_hermitian_eigmax_matches_full_spectrum():
    rng = np.random.default_rng(47)
    for _ in range(30):
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        M = (A + A.conj().T) / 2
        lam, v = hermitian_eigmax(M)
        assert abs(lam - np.linalg.eigvalsh(M)[-1]) < 1e-10
        assert np.linalg.norm(M @ v - lam * v) < 1e-10


def test_sweep_fixture_l4(ms4):
    res = sweep_max_eigen(ms4)
    assert res.count == 256
    assert abs(res.lambda_star - 0.625) < 1e-10
    assert abs(res.min_avg_entropy - TARGET_D4_L4) < 1e-10


def test_sweep_fixture_l3(ms3):
    res = sweep_max_eigen(ms3)
    assert abs(res.lambda_star - 2 / 3) < 1e-10
    assert abs(res.min_avg_entropy - TARGET_D4_L3) < 1e-10


def test_sweep_d2_closed_form():
    # single qubit, two bases: top eigenvalue is (1 + 1/sqrt(2))/2 for every
    # string; cross-checked against a Bloch-circle grid oracle
    pair = build_mub_set(build_classes_2n1(1)).bases[:2]
    res = sweep_max_eigen(pair)
    want = (1 + 1 / math.sqrt(2)) / 2
    assert abs(res.lambda_star - want) < 1e-12
    # oracle: max over theta of (cos^2(t/2) + cos^2((t - pi/2)/2)) / 2
    ts = np.linspace(0, 2 * np.pi, 200001)
    vals = (np.cos(ts / 2) ** 2 + np.cos((ts - np.pi / 2) / 2) ** 2) / 2
    assert abs(res.lambda_star - vals.max()) < 1e-9


def test_sweep_deterministic_across_workers(monkeypatch, ms4):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool runs on any host
    a = sweep_max_eigen(ms4, workers=1)
    b = sweep_max_eigen(ms4, workers=4)
    assert a.lambda_star == b.lambda_star
    assert a.b_star == b.b_star
    assert a.histogram == b.histogram


def test_sweep_budget_refusal(ms4):
    with pytest.raises(BudgetExceededError):
        sweep_max_eigen(ms4, budget=100)


def test_sweep_argmax_on_cycle_orbit(ms4):
    # the winning string follows the induced permutations (the constant
    # string in cycle-matched labels)
    from mubforge.mub import verify_cycle

    res = sweep_max_eigen(ms4)
    perms = verify_cycle(ms4).permutations
    b = res.b_star
    orbit_ok = all(b[(j + 1) % 4] == perms[j][b[j]] for j in range(4))
    assert orbit_ok


def test_sample_max_eigen_is_lower_bound(ms4):
    full = sweep_max_eigen(ms4)
    samp = sample_max_eigen(ms4, samples=200, seed=5)
    assert samp.lambda_star <= full.lambda_star + 1e-12
    again = sample_max_eigen(ms4, samples=200, seed=5)
    assert samp.b_star == again.b_star


def test_iter_sweep_rows_matches_sweep(ms3):
    rows = list(iter_sweep_rows(ms3))
    assert len(rows) == 64
    best = max(lam for _, lam in rows)
    assert abs(best - sweep_max_eigen(ms3).lambda_star) < 1e-14
    assert rows[0][0] == (0, 0, 0)
    assert rows[-1][0] == (3, 3, 3)


def test_minimize_matches_bound_l4(ms4):
    psi, val = minimize_avg_entropy(ms4, math.inf, restarts=24, seed=11)
    assert abs(val - TARGET_D4_L4) < 1e-6
    assert val >= bounds(4, 4).best - 1e-9
    # the invariant superpositions attain the same minimum (the minimizer
    # manifold is larger: several strings share the top eigenvalue 5/8)
    coeffs = np.exp(1j * np.pi * np.arange(4) / 4) / 2
    for v in phase_ramp_states(ms4, coeffs):
        assert abs(avg_entropy(ms4, v, math.inf) - val) < 1e-9


def test_minimize_collision_l3(ms3):
    _, val = minimize_avg_entropy(ms3, 2, restarts=24, seed=13)
    assert abs(val - 1.0) < 1e-6


def test_minimize_collision_l5_complete_set():
    # for the complete set in d=4 the collision-entropy bound
    # -log2[(1/L)(1 + (L-1)/d)] is attained
    ms = build_mub_set(build_classes_2n1(2))
    _, val = minimize_avg_entropy(ms, 2, restarts=24, seed=19)
    want = -math.log2((1 / 5) * (1 + 4 / 4))
    assert abs(val - want) < 1e-6


def test_minimize_deterministic(ms3):
    a = minimize_avg_entropy(ms3, 2, restarts=8, seed=3)
    b = minimize_avg_entropy(ms3, 2, restarts=8, seed=3)
    assert a[1] == b[1]
    assert np.array_equal(a[0], b[0])


def test_minimize_shannon_runs(ms3):
    _, val = minimize_avg_entropy(ms3, 1, restarts=8, seed=17)
    assert bounds(3, 4).best - 1e-9 <= val <= 2.0


def test_jensen_chain_random_states(ms4):
    # avg Hinf >= -log2 max_b tr(rho P_b,mean) >= -log2 lambda*
    rng = np.random.default_rng(53)
    lam_star = sweep_max_eigen(ms4).lambda_star
    mats = [b.vectors for b in ms4.bases]
    for _ in range(100):
        x = rng.normal(size=8)
        psi = (x[:4] + 1j * x[4:])
        psi /= np.linalg.norm(psi)
        h = avg_entropy(ms4, psi, math.inf)
        peak = np.mean([np.max(np.abs(B.conj().T @ psi) ** 2) for B in mats])
        assert h >= -math.log2(peak) - 1e-12
        assert peak <= lam_star + 1e-12


def test_symmetrized_top_eigenstate_saturates_jensen(ms4):
    # top eigenvector of the orbit P_b has equal overlap with every selected
    # projector, so the Jensen step is tight there
    res = sweep_max_eigen(ms4)
    P = pvec_operator(ms4, res.b_star)
    lam, v = hermitian_eigmax(P.matrix)
    overlaps = [
        abs(ms4.bases[j].vectors[:, res.b_star[j]].conj() @ v) ** 2
        for j in range(4)
    ]
    assert np.max(overlaps) - np.min(overlaps) < 1e-8
    rho = np.outer(v, v.conj())
    sym = symmetrize(rho, ms4.U, 4)
    assert abs(np.trace(rho @ P.matrix) - np.trace(sym @ P.matrix)) < 1e-10


# Test-only oracle: the minimizer one restart at a time. A route gives the
# objective and gradient of one vector, its tangent projection and its norm:
# one_row_route runs the kernel's own functions on one-row blocks, so the
# batched descent must take the same steps with the same numbers;
# slow_route is the per-basis loop of tests/oracles.py with numpy's
# vector norm.
def one_row_route(ms):
    stack = entropy._basis_stack(ms)

    def tangent(psi, g):
        g_t, gn = entropy._tangent_rows(psi[None], g[None])
        return g_t[0], float(gn[0])

    return (
        functools.partial(serial_avg_entropy_and_grad, stack),
        tangent,
        lambda x: entropy._row_norms(x[None])[0],
    )


def slow_route(ms):
    mats = [b.vectors for b in ms.bases]

    def tangent(psi, g):
        g_t = g - (psi.conj() @ g) * psi
        return g_t, float(np.linalg.norm(g_t))

    return functools.partial(slow_avg_entropy_and_grad, mats), tangent, np.linalg.norm


def serial_avg_entropy_and_grad(stack, psi, alpha):
    """The kernel's value and gradient passes on psi as a one-row block."""
    f, g = entropy._avg_entropy_rows(stack, psi[None], alpha)
    return f[0], g[0]


def serial_descend(route, psi, alpha, iters):
    evaluate, tangent, norm = route
    f, g = evaluate(psi, alpha)
    eta = 0.5
    for _ in range(iters):
        g_t, gn = tangent(psi, g)
        if gn < 1e-12:
            break
        moved = False
        while eta > entropy.STALL_ETA:
            cand = psi - eta * g_t
            cand /= norm(cand)
            fc, gc = evaluate(cand, alpha)
            if fc < f - 0.25 * eta * gn * gn:
                psi, f, g = cand, fc, gc
                moved = True
                break
            eta /= 2
        if not moved:
            break
        eta = min(eta * 2, 1.0)
    return psi


def serial_minimize(
    ms, alpha, restarts, seed, iters=500, anneal=50, route=one_row_route
):
    # anneal caps the moves of the order-2 and order-20 stages, iters those
    # of the last stage
    route = route(ms)
    evaluate, _, norm = route
    d = ms.d
    stages = [(alpha, iters)]
    if math.isinf(alpha):
        stages[:0] = [(2.0, anneal), (20.0, anneal)]
    rng = random.Random(seed)
    best_val, best_psi = math.inf, None
    for _ in range(restarts):
        x = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * d)])
        psi = x[:d] + 1j * x[d:]
        psi /= norm(psi)
        for stage, cap in stages:
            psi = serial_descend(route, psi, stage, cap)
        val, _ = evaluate(psi, alpha)
        if val < best_val - 1e-15:
            best_val, best_psi = val, psi
    return best_psi, best_val


ORACLE_SETS = {
    "d4L2": (2, 2), "d4L3": (2, 3), "d4L4": (2, 4), "d4L5": (2, 5), "d8L3": (3, 3)
}


@pytest.fixture(scope="module")
def oracle_sets():
    return {k: build_mub_set(build_partition(*nL)) for k, nL in ORACLE_SETS.items()}


def same_state(a, b):
    """Distance between two unit vectors after aligning their global phase."""
    ov = np.vdot(b, a)
    return float(np.linalg.norm(a - ov / abs(ov) * b))


@functools.lru_cache(maxsize=None)
def serial_runs(name, alpha, route=one_row_route):
    """serial_minimize at the oracle tests' (seed, restarts) pairs."""
    ms = build_mub_set(build_partition(*ORACLE_SETS[name]))
    return [
        serial_minimize(ms, alpha, restarts, seed, route=route)
        for seed, restarts, _ in oracle_runs(name)
    ]


def oracle_runs(name):
    """(seed, restarts, block) of the oracle comparisons for one set."""
    return ((len(name), 3, 128), (7, 5, 2))


def batched_runs(ms, name, alpha):
    for seed, restarts, block in oracle_runs(name):
        with mock.patch.object(entropy, "MINIMIZE_BLOCK", block):
            yield minimize_avg_entropy(ms, alpha, restarts=restarts, seed=seed)


@pytest.mark.parametrize("alpha", [1, 2, math.inf])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_batched_minimizer_matches_serial(oracle_sets, name, alpha):
    # against the slow route's descent: the value to 1e-12; the state to
    # 1e-7, since a value known to ~1e-16 pins a minimizer only to about its
    # square root
    ms = oracle_sets[name]
    for (psi, val), (want_psi, want) in zip(
        batched_runs(ms, name, alpha), serial_runs(name, alpha, slow_route)
    ):
        assert abs(val - want) < 1e-12
        assert same_state(psi, want_psi) < 1e-7


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 3.0, math.inf])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_batched_minimizer_is_serial_to_the_bit(oracle_sets, name, alpha):
    # every row takes the one-vector descent's steps with the same numbers
    ms = oracle_sets[name]
    for (psi, val), (want_psi, want) in zip(
        batched_runs(ms, name, alpha), serial_runs(name, alpha)
    ):
        assert val == want
        assert np.array_equal(psi, want_psi)


def counted_minimize(ms, alpha, **patches):
    """minimize_avg_entropy at 5 restarts, seed 9, in blocks of 2, with
    `patches` applied to entropy's constants; returns the state, the value
    and the number of value passes run. Seed 9's starts leave rows that
    the min-entropy stage moves more than once, which the cap tests need;
    seed 7's do not."""
    passes = mock.patch.object(
        entropy, "_avg_entropy_values", wraps=entropy._avg_entropy_values
    )
    with mock.patch.multiple(entropy, MINIMIZE_BLOCK=2, **patches), passes as calls:
        psi, val = minimize_avg_entropy(ms, alpha, restarts=5, seed=9)
    return psi, val, calls.call_count


@pytest.mark.parametrize("iters", [1, 4])
@pytest.mark.parametrize("alpha", [2, math.inf])
def test_iteration_cap_is_serial_to_the_bit(oracle_sets, alpha, iters):
    # MINIMIZE_ITERS and ANNEAL_MOVES, read at call time, each patched on its
    # own, stop rows in mid-descent, each after as many moves as the
    # one-vector descent makes. ANNEAL_MOVES leaves a finite alpha alone.
    # After a 50-move anneal the min-entropy stage still moves rows on this
    # set, but its longest row makes fewer than 4 moves: a cap of 1 ends
    # the stage sooner, and a cap of 4 leaves its passes as they are.
    ms = oracle_sets["d4L4"]
    *_, free = counted_minimize(ms, alpha)
    for name, cap in (("MINIMIZE_ITERS", "iters"), ("ANNEAL_MOVES", "anneal")):
        want_psi, want = serial_minimize(ms, alpha, 5, 9, **{cap: iters})
        psi, val, passes = counted_minimize(ms, alpha, **{name: iters})
        assert val == want
        assert np.array_equal(psi, want_psi)
        if name == "ANNEAL_MOVES":
            assert passes < free if math.isinf(alpha) else passes == free
        elif math.isinf(alpha):
            assert passes < free if iters == 1 else passes == free
        else:
            assert passes < free


@pytest.mark.parametrize(
    "stall, want", [(None, 8), (2.0**-12, 12)], ids=["default", "2^-12"]
)
@pytest.mark.parametrize("alpha", [2, math.inf])
def test_a_row_no_step_improves_stops_at_the_stall_floor(
    oracle_sets, monkeypatch, alpha, stall, want
):
    # The value pass scores every candidate after the start 1 bit above its
    # value, so no step passes Armijo. A live row then tries eta = 1/2,
    # 1/4, ... and stops once a rejected step leaves eta at or below
    # STALL_ETA: one value pass for the start and log2(0.5 / STALL_ETA) for
    # the steps, 8 at 2^-8. The constant is read at call time, so patching
    # it moves the count.
    if stall is not None:
        monkeypatch.setattr(entropy, "STALL_ETA", stall)
    assert want == 1 + math.log2(0.5 / entropy.STALL_ETA)
    calls, values = [], entropy._avg_entropy_values

    def reject(stack, psi, alpha):
        f, parts = values(stack, psi, alpha)
        calls.append(len(psi))
        return (f + 1.0 if len(calls) > 1 else f), parts

    monkeypatch.setattr(entropy, "_avg_entropy_values", reject)
    stack = entropy._basis_stack(oracle_sets["d4L4"])
    start = random_rows(np.random.default_rng(5), 1, 4)
    psi, _ = entropy._descend_rows(stack, start.copy(), alpha, 500)
    assert calls == [1] * want
    assert np.array_equal(psi, start)


@pytest.mark.parametrize("stall", [2.0**-3, 2.0**-20], ids=["2^-3", "2^-20"])
@pytest.mark.parametrize("alpha", [2, math.inf])
def test_serial_descend_reads_the_kernels_stall_floor(oracle_sets, alpha, stall):
    # serial_descend and _descend_rows read the one constant
    # entropy.STALL_ETA, so a patched floor moves the kernel's work and
    # both still agree to the bit
    ms = oracle_sets["d4L4"]
    *_, free = counted_minimize(ms, alpha)
    with mock.patch.object(entropy, "STALL_ETA", stall):
        want_psi, want = serial_minimize(ms, alpha, 5, 9)
        psi, val, passes = counted_minimize(ms, alpha)
    assert val == want
    assert np.array_equal(psi, want_psi)
    assert passes != free


def random_rows(rng, rows, d):
    x = rng.normal(size=(rows, 2 * d))
    psi = x[:, :d] + 1j * x[:, d:]
    return psi / np.linalg.norm(psi, axis=1)[:, None]


def kernel_rows(ms, seed):
    """128 unit rows: Gaussian ones, with the first basis's vectors 0, 1 and
    2 at rows 1, 36 and 100. Those have p = 1/d in every other basis, so
    sum p^alpha underflows there at order 700, and blocks of 2, 37 and 128
    rows mix rows that are rescaled with rows that are not."""
    psi = random_rows(np.random.default_rng(seed), 128, ms.d)
    psi[[1, 36, 100]] = ms.bases[0].vectors[:, :3].T
    return psi


def assert_rows_match_one_row_calls(stack, psi, alpha):
    """Each row of the value pass, of the gradient pass on every row and on
    row subsets as _descend_rows picks them (ascending index arrays), of the
    tangent projection and of the row norms equals the one-row call's to
    the bit."""
    f, parts = entropy._avg_entropy_values(stack, psi, alpha)
    g = entropy._avg_entropy_grads(stack, parts, alpha, slice(None))
    g_t, gn = entropy._tangent_rows(psi, g)
    norms = entropy._row_norms(psi)
    for r, row in enumerate(psi):
        want_f, want_g = serial_avg_entropy_and_grad(stack, row, alpha)
        want_t, want_n = entropy._tangent_rows(row[None], want_g[None])
        assert f[r] == want_f
        assert np.array_equal(g[r], want_g)
        assert np.array_equal(g_t[r], want_t[0]) and gn[r] == want_n[0]
        assert norms[r] == entropy._row_norms(row[None])[0]
    every = np.arange(len(psi))
    picked = np.flatnonzero(np.random.default_rng(len(psi)).random(len(psi)) < 0.3)
    for rows in (every, every[:1], every[-1:], picked):
        g_rows = entropy._avg_entropy_grads(stack, parts, alpha, rows)
        assert np.array_equal(g_rows, g[rows])


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 3.0, 20.0, math.inf, 700.0])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_batched_kernel_is_serial_to_the_bit(oracle_sets, name, alpha):
    # a row's numbers do not depend on the block it sits in: blocks of 1, 2,
    # 37 and 128 rows against one-row calls
    ms = oracle_sets[name]
    stack = entropy._basis_stack(ms)
    psi = kernel_rows(ms, len(name))
    for rows in (1, 2, 37, 128):
        assert_rows_match_one_row_calls(stack, psi[:rows], alpha)


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 3.0, 20.0, math.inf])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_kernel_agrees_with_the_slow_route(oracle_sets, name, alpha):
    # one matrix-vector product per row and np.log2 against one per basis
    # and math.log2
    ms = oracle_sets[name]
    mats = [b.vectors for b in ms.bases]
    psi = random_rows(np.random.default_rng(len(name)), 37, ms.d)
    f, g = entropy._avg_entropy_rows(entropy._basis_stack(ms), psi, alpha)
    for r, row in enumerate(psi):
        want_f, want_g = slow_avg_entropy_and_grad(mats, row, alpha)
        assert abs(f[r] - want_f) <= 1e-15
        assert np.max(np.abs(g[r] - want_g)) <= 1e-15


@pytest.mark.parametrize("alpha", [700.0, 1000.0])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_orders_whose_sum_underflows_are_rescaled(oracle_sets, name, alpha):
    # sum p^alpha is 0.0 in float at the basis-vector rows, yet the value
    # and gradient equal the decimal route's: the value to 1e-15, the
    # gradient to 1e-12, since its weights carry alpha times the rounding
    # of p
    ms = oracle_sets[name]
    mats = [b.vectors for b in ms.bases]
    psi = kernel_rows(ms, len(name))[:37]
    assert np.sum((np.abs(mats[1].conj().T @ psi[1]) ** 2) ** alpha) == 0.0
    f, g = entropy._avg_entropy_rows(entropy._basis_stack(ms), psi, alpha)
    for r, row in enumerate(psi):
        want_f, want_g = decimal_avg_entropy_and_grad(mats, row, alpha)
        assert abs(f[r] - want_f) <= 1e-15
        assert np.max(np.abs(g[r] - want_g)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 20.0, 700.0, 1000.0, math.inf])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_unbiased_outcomes_score_log2_d_at_every_order(oracle_sets, name, alpha):
    # the maximally mixed state in every basis, and a basis vector in a basis
    # unbiased to it: p = 1/d, whose sum p^alpha underflows at orders 700 and
    # 1000, and each entropy is log2 d, finite and without a warning
    ms = oracle_sets[name]
    want = math.log2(ms.d)
    assert abs(avg_entropy(ms, np.eye(ms.d) / ms.d, alpha) - want) <= 1e-12
    psi = ms.bases[0].vectors[:, 0]
    assert abs(renyi_entropy(ms.bases[1], psi, alpha) - want) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 20.0, math.inf])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_density_matrices_score_as_their_vectors(oracle_sets, name, alpha):
    ms = oracle_sets[name]
    for psi in random_rows(np.random.default_rng(len(name)), 8, ms.d):
        rho = np.outer(psi, psi.conj())
        assert abs(avg_entropy(ms, rho, alpha) - avg_entropy(ms, psi, alpha)) <= 1e-12


@pytest.mark.parametrize("alpha", [700.0, 1000.0])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_density_matrices_whose_sum_underflows_are_rescaled(oracle_sets, name, alpha):
    # kernel_rows' basis vectors, as density matrices: sum p^alpha is 0.0 in
    # float, yet each value is the vector's and the decimal route's
    ms = oracle_sets[name]
    mats = [b.vectors for b in ms.bases]
    psi = kernel_rows(ms, len(name))[:37]
    assert np.sum((np.abs(mats[1].conj().T @ psi[1]) ** 2) ** alpha) == 0.0
    for row in psi:
        h = avg_entropy(ms, np.outer(row, row.conj()), alpha)
        want, _ = decimal_avg_entropy_and_grad(mats, row, alpha)
        assert abs(h - avg_entropy(ms, row, alpha)) <= 1e-12
        assert abs(h - want) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 700.0, math.inf])
def test_renyi_entropy_is_avg_entropy_of_one_basis(ms4, alpha):
    for psi in random_rows(np.random.default_rng(47), 4, 4):
        for state in (psi, np.outer(psi, psi.conj())):
            for B in ms4.bases:
                assert renyi_entropy(B, state, alpha) == avg_entropy([B], state, alpha)


def test_renyi_entropy_refuses_a_non_orthonormal_basis(ms4):
    # the bases go through avg_entropy's check, to ORTHONORMAL_TOL
    psi = ms4.bases[1].vectors[:, 0]
    with pytest.raises(ValueError, match="basis 0 is not orthonormal"):
        renyi_entropy(1.01 * ms4.bases[0].vectors, psi, 2)


@pytest.mark.parametrize(
    "state, alpha, match",
    [
        (np.array([1.0, 1.0, 0, 0]), 2, "state norm 1.41421, want 1"),
        (np.full(4, np.nan), 2, "state norm nan, want 1"),
        (np.eye(4) / 2, 2, r"state trace 2\+0j, want 1"),
        (np.zeros((2, 2, 2)), 2, "state must be a vector or a density matrix"),
        (np.eye(4) / 4, 0, "alpha must be positive"),
        (np.full(4, 0.5), math.nan, "alpha must be positive"),
    ],
    ids=["norm", "nan", "trace", "ndim", "alpha-0", "alpha-nan"],
)
def test_every_entropy_checks_the_state_the_same_way(ms4, state, alpha, match):
    with pytest.raises(ValueError, match=match):
        avg_entropy(ms4, state, alpha)
    with pytest.raises(ValueError, match=match):
        renyi_entropy(ms4.bases[0], state, alpha)
    if alpha == 2:
        with pytest.raises(ValueError, match=match):
            outcome_distribution(ms4.bases[0], state)


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 3.0, 20.0, math.inf])
def test_batched_kernel_on_random_unitaries(alpha):
    # raw bases with no zero entries: rows are still independent of their
    # block, and agree with the slow route, where the alpha = inf gradient
    # is a matrix-vector product and not a gather, to 1e-15
    rng = np.random.default_rng(61)
    mats = [np.linalg.qr(random_rows(rng, 4, 4).T)[0] for _ in range(3)]
    psi = random_rows(rng, 37, 4)
    stack = entropy._basis_stack(mats)
    f, g = entropy._avg_entropy_rows(stack, psi, alpha)
    for r, row in enumerate(psi):
        want_f, want_g = slow_avg_entropy_and_grad(mats, row, alpha)
        assert abs(f[r] - want_f) <= 1e-15
        assert np.max(np.abs(g[r] - want_g)) <= 1e-15
    for rows in (1, 2, 37):
        assert_rows_match_one_row_calls(stack, psi[:rows], alpha)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(["d4L3", "d4L4", "d8L3"]),
    seed=st.integers(0, 2**32 - 1),
    restarts=st.integers(1, 8),
    alpha=st.sampled_from([0.5, 1, 2, 3.0, math.inf]),
)
def test_minimizer_rows_stay_matched(oracle_sets, name, seed, restarts, alpha):
    ms = oracle_sets[name]
    psi, val = minimize_avg_entropy(ms, alpha, restarts=restarts, seed=seed)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert abs(avg_entropy(ms, psi, alpha) - val) < 1e-12
    with mock.patch.object(entropy, "MINIMIZE_BLOCK", 3):
        psi3, val3 = minimize_avg_entropy(ms, alpha, restarts=restarts, seed=seed)
    assert val3 == val
    assert np.array_equal(psi3, psi)


def bad_bases(ms):
    mats = [b.vectors for b in ms.bases]
    return {
        "ragged": ([mats[0], mats[1][:2, :2]], "dimensional"),
        "non-square": ([mats[0], mats[1][:, :3]], "shape"),
        "non-orthonormal": ([mats[0], 1.01 * mats[1]], "orthonormal"),
        "empty": ([], "at least one"),
    }


@pytest.mark.parametrize("case", ["ragged", "non-square", "non-orthonormal", "empty"])
def test_minimize_rejects_bad_bases(ms4, case):
    bases, match = bad_bases(ms4)[case]
    with pytest.raises(ValueError, match=match):
        minimize_avg_entropy(bases, math.inf, restarts=2)
    psi = ms4.bases[0].vectors[:, 0]
    with pytest.raises(ValueError, match=match):
        avg_entropy(bases, psi, math.inf)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"alpha": -1.0}, "alpha"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": -math.inf}, "alpha"),
        ({"restarts": -5}, "restarts"),
        ({"restarts": -1}, "restarts"),
        ({"alpha": math.nan}, "alpha"),
        ({"restarts": 0}, "restarts"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": -(2**70)}, "seed must be >= 0"),
    ],
)
def test_minimize_rejects_bad_arguments_before_any_work(kwargs, match):
    # the bases are not even looked at: an empty list would fail later
    args = {"alpha": math.inf, "restarts": 2, **kwargs}
    with mock.patch.object(entropy, "_basis_stack") as stack:
        with pytest.raises(ValueError, match=match):
            minimize_avg_entropy([], **args)
    stack.assert_not_called()


def test_seeds_are_integers_of_any_type(ms4):
    # random.Random would take -s as s and refuse np.int64 on Python >= 3.11;
    # the seed goes through operator.index first, so a numpy integer is its
    # value and a float is refused
    psi, val = minimize_avg_entropy(ms4, math.inf, restarts=3, seed=3)
    psi64, val64 = minimize_avg_entropy(ms4, math.inf, restarts=3, seed=np.int64(3))
    assert val64 == val and np.array_equal(psi64, psi)
    with pytest.raises(TypeError):
        minimize_avg_entropy(ms4, math.inf, restarts=3, seed=3.0)
    res = sample_max_eigen(ms4, samples=50, seed=np.int64(3))
    assert res == sample_max_eigen(ms4, samples=50, seed=3)
    with pytest.raises(TypeError):
        sample_max_eigen(ms4, samples=50, seed=3.0)


def test_minimize_bad_bases_exit_code(ms4, monkeypatch, capsys):
    from mubforge import cli

    bent = replace(ms4.bases[1], vectors=1.01 * ms4.bases[1].vectors)
    broken = replace(ms4, bases=(ms4.bases[0], bent) + ms4.bases[2:])
    monkeypatch.setattr(cli, "build_mub_set", lambda part: broken)
    assert cli.main(["minimize", "--n", "2", "--L", "4", "--restarts", "2"]) == 4
    assert "not orthonormal" in capsys.readouterr().err
