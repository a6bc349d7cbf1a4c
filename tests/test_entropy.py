import functools
import math
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
from mubforge.mub import build_mub_set, phase_ramp_states
from oracles import iter_sweep_rows, symmetrize

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
    assert abs(bs2.small_L - bs2.deutsch) < 1e-12
    assert abs(bs2.deutsch + math.log2(3 / 4)) < 1e-12
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


def test_sweep_deterministic_across_workers(ms4):
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


# Test-only oracle: the scalar minimizer that the batched one replaced, one
# restart and one vector at a time.
def serial_avg_entropy_and_grad(mats, psi, alpha):
    L = len(mats)
    d = psi.shape[0]
    f = 0.0
    g = np.zeros(d, dtype=complex)
    for B in mats:
        c = B.conj().T @ psi
        p = np.maximum(np.abs(c) ** 2, 1e-300)
        if math.isinf(alpha):
            b = int(np.argmax(p))
            f += -math.log2(p[b])
            w = np.zeros(d)
            w[b] = -1.0 / (p[b] * entropy.LOG2)
        elif alpha == 1:
            f += float(-np.sum(p * np.log2(p)))
            w = -(np.log2(p) + 1 / entropy.LOG2)
        else:
            S = float(np.sum(p**alpha))
            f += math.log2(S) / (1 - alpha)
            w = alpha * p ** (alpha - 1) / ((1 - alpha) * S * entropy.LOG2)
        g += B @ (w * c)
    return f / L, g / L


def serial_descend(mats, psi, alpha, iters):
    f, g = serial_avg_entropy_and_grad(mats, psi, alpha)
    eta = 0.5
    for _ in range(iters):
        g_t = g - (psi.conj() @ g) * psi
        gn = float(np.linalg.norm(g_t))
        if gn < 1e-12:
            break
        moved = False
        while eta > 1e-14:
            cand = psi - eta * g_t
            cand /= np.linalg.norm(cand)
            fc, gc = serial_avg_entropy_and_grad(mats, cand, alpha)
            if fc < f - 0.25 * eta * gn * gn:
                psi, f, g = cand, fc, gc
                moved = True
                break
            eta /= 2
        if not moved:
            break
        eta = min(eta * 2, 1.0)
    return psi


def serial_minimize(ms, alpha, restarts, seed, iters=500, surrogate_alpha=20.0):
    mats = [b.vectors for b in ms.bases]
    d = mats[0].shape[0]
    stages = [alpha] if not math.isinf(alpha) else [2.0, surrogate_alpha, alpha]
    rng = np.random.default_rng(seed)
    best_val, best_psi = math.inf, None
    for _ in range(restarts):
        x = rng.normal(size=2 * d)
        psi = x[:d] + 1j * x[d:]
        psi /= np.linalg.norm(psi)
        for stage in stages:
            psi = serial_descend(mats, psi, stage, iters)
        val, _ = serial_avg_entropy_and_grad(mats, psi, alpha)
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
def serial_runs(name, alpha):
    """serial_minimize at the oracle tests' (seed, restarts) pairs."""
    ms = build_mub_set(build_partition(*ORACLE_SETS[name]))
    return [
        serial_minimize(ms, alpha, restarts, seed)
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
    # the value to 1e-12; the state to 1e-7, since a value known to ~1e-16
    # pins a minimizer only to about its square root
    ms = oracle_sets[name]
    for (psi, val), (want_psi, want) in zip(
        batched_runs(ms, name, alpha), serial_runs(name, alpha)
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


def test_log2_is_math_log2():
    # np.log2 differs from math.log2 in the last bit for a few arguments in a
    # thousand on some builds; the objective must carry math.log2's bits
    x = np.random.default_rng(67).uniform(1e-3, 1.0, size=(50, 200))
    want = np.array([[math.log2(v) for v in row] for row in x.tolist()])
    assert np.array_equal(entropy._log2(x), want)


def random_rows(rng, rows, d):
    x = rng.normal(size=(rows, 2 * d))
    psi = x[:, :d] + 1j * x[:, d:]
    return psi / np.linalg.norm(psi, axis=1)[:, None]


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 3.0, 20.0, math.inf])
@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_batched_kernel_is_serial_to_the_bit(oracle_sets, name, alpha):
    ms = oracle_sets[name]
    mats = [b.vectors for b in ms.bases]
    psi = random_rows(np.random.default_rng(len(name)), 37, ms.d)
    f, g = entropy._avg_entropy_rows(entropy._basis_stack(ms), psi, alpha)
    for r, row in enumerate(psi):
        want_f, want_g = serial_avg_entropy_and_grad(mats, row, alpha)
        assert f[r] == want_f
        assert np.array_equal(g[r], want_g)


@pytest.mark.parametrize("alpha", [0.5, 1, 2, 3.0, 20.0, math.inf])
def test_batched_kernel_on_random_unitaries(alpha):
    # raw bases with no zero entries: the alpha = inf gradient, a gather in
    # place of a matrix-vector product, may differ in the last bit
    rng = np.random.default_rng(61)
    mats = [np.linalg.qr(random_rows(rng, 4, 4).T)[0] for _ in range(3)]
    psi = random_rows(rng, 37, 4)
    f, g = entropy._avg_entropy_rows(entropy._basis_stack(mats), psi, alpha)
    for r, row in enumerate(psi):
        want_f, want_g = serial_avg_entropy_and_grad(mats, row, alpha)
        assert f[r] == want_f
        assert np.max(np.abs(g[r] - want_g)) <= 1e-15


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
        ({"iters": 0}, "iters"),
        ({"iters": -5}, "iters"),
        ({"surrogate_alpha": -1.0}, "surrogate_alpha"),
        ({"surrogate_alpha": 0.0}, "surrogate_alpha"),
        ({"surrogate_alpha": math.nan}, "surrogate_alpha"),
        ({"alpha": math.nan}, "alpha"),
        ({"restarts": 0}, "restarts"),
    ],
)
def test_minimize_rejects_bad_arguments_before_any_work(kwargs, match):
    # the bases are not even looked at: an empty list would fail later
    args = {"alpha": math.inf, "restarts": 2, **kwargs}
    with mock.patch.object(entropy, "_basis_stack") as stack:
        with pytest.raises(ValueError, match=match):
            minimize_avg_entropy([], **args)
    stack.assert_not_called()


def test_minimize_bad_bases_exit_code(ms4, monkeypatch, capsys):
    from mubforge import cli

    bent = replace(ms4.bases[1], vectors=1.01 * ms4.bases[1].vectors)
    broken = replace(ms4, bases=(ms4.bases[0], bent) + ms4.bases[2:])
    monkeypatch.setattr(cli, "build_mub_set", lambda part: broken)
    assert cli.main(["minimize", "--n", "2", "--L", "4", "--restarts", "2"]) == 4
    assert "not orthonormal" in capsys.readouterr().err
