import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubforge.classes import build_classes_2n1, build_classes_Ln, fixture_d4
from mubforge.pauli import (
    PauliTerm,
    build_gamma_generators,
    canonical,
    gamma_indices,
    gamma_product,
    identity,
    multiply,
    to_dense,
)
from mubforge.transform import (
    ConstructionError,
    CycleSpec,
    NotAMonomialError,
    assert_unitary,
    clifford_action,
    conjugate_term,
    cycle_action,
    cycle_unitary,
    rotation_unitary,
)

# every partition the constructions give with n <= 5
PARTITIONS = [
    (fixture_d4, (3,)),
    (fixture_d4, (4,)),
    (build_classes_2n1, (1,)),
    (build_classes_2n1, (2,)),
    (build_classes_2n1, (3,)),
    (build_classes_2n1, (5,)),
    (build_classes_Ln, (2, 2)),
    (build_classes_Ln, (3, 3)),
    (build_classes_Ln, (4, 2)),
    (build_classes_Ln, (5, 5)),
]


def signed_action(U, gs):
    """(index, sign) images of every generator under U . U^H by trace overlap."""
    d = 2 ** gs.n
    out = []
    for g in gs.gammas:
        img = U @ to_dense(g) @ U.conj().T
        hit = None
        for j, h in enumerate(gs.gammas):
            c = np.trace(to_dense(h).conj().T @ img) / d
            if abs(abs(c) - 1) < 1e-9:
                hit = (j, int(np.sign(c.real)))
                break
        assert hit is not None
        out.append(hit)
    return out


def test_rotation_single_qubit():
    gs = build_gamma_generators(1)
    R = rotation_unitary(gs, 0, 1)
    X, Z, Y = (to_dense(gs[i]) for i in range(3))
    assert np.allclose(R @ X @ R.conj().T, Z, atol=1e-12)
    assert np.allclose(R @ Z @ R.conj().T, -X, atol=1e-12)
    assert np.allclose(R @ Y @ R.conj().T, Y, atol=1e-12)
    # explicit 2x2 value: Z(X+Z)/sqrt(2)
    want = (to_dense(gs[1]) @ (X + Z)) / np.sqrt(2)
    assert np.allclose(R, want, atol=1e-15)


@pytest.mark.parametrize("n,j,k", [(1, 0, 1), (2, 0, 3), (3, 2, 6), (4, 1, 8)])
def test_rotation_unitarity(n, j, k):
    gs = build_gamma_generators(n)
    R = rotation_unitary(gs, j, k)
    assert np.linalg.norm(R.conj().T @ R - np.eye(2**n)) < 1e-12


def test_rotation_fixes_spectators():
    gs = build_gamma_generators(2)
    R = rotation_unitary(gs, 0, 1)
    for m in (2, 3, 4):
        G = to_dense(gs[m])
        assert np.allclose(R @ G @ R.conj().T, G, atol=1e-10)


def test_rotation_errors():
    gs = build_gamma_generators(2)
    with pytest.raises(ValueError):
        rotation_unitary(gs, 1, 1)
    with pytest.raises(IndexError):
        rotation_unitary(gs, 0, 7)


def test_cycle_spec_validation():
    with pytest.raises(ValueError):
        CycleSpec(2, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        CycleSpec(2, ((0, 1), (2, 3, 4)))  # ragged
    with pytest.raises(ValueError):
        CycleSpec(2, ((0, 9),))  # out of range
    spec = CycleSpec(3, ((0, 1, 2), (3, 4, 5)))
    assert spec.cycle_length == 3
    assert spec.shift(2) == 0 and spec.shift(5) == 3 and spec.shift(6) == 6


def test_three_cycle_action_d4():
    gs = build_gamma_generators(2)
    U, _ = cycle_unitary(gs, CycleSpec(2, ((0, 1, 2),)))
    assert signed_action(U, gs) == [(1, 1), (2, 1), (0, 1), (3, 1), (4, 1)]


def test_four_cycle_action_d4():
    # single even cycle: G4 takes the forced determinant sign, rest exact
    gs = build_gamma_generators(2)
    U, _ = cycle_unitary(gs, CycleSpec(2, ((0, 1, 2, 3),)))
    assert signed_action(U, gs) == [(1, 1), (2, 1), (3, 1), (0, 1), (4, -1)]


def test_full_cycle_action_d4():
    gs = build_gamma_generators(2)
    U, _ = cycle_unitary(gs, CycleSpec(2, ((0, 1, 2, 3, 4),)))
    assert signed_action(U, gs) == [(1, 1), (2, 1), (3, 1), (4, 1), (0, 1)]


def test_multi_group_action_n3():
    gs = build_gamma_generators(3)
    U, _ = cycle_unitary(gs, CycleSpec(3, ((0, 1, 2), (3, 4, 5))))
    want = [(1, 1), (2, 1), (0, 1), (4, 1), (5, 1), (3, 1), (6, 1)]
    assert signed_action(U, gs) == want


def test_pair_swaps_n2():
    gs = build_gamma_generators(2)
    U, _ = cycle_unitary(gs, CycleSpec(2, ((0, 1), (2, 3))))
    assert signed_action(U, gs) == [(1, 1), (0, 1), (3, 1), (2, 1), (4, 1)]


@pytest.mark.parametrize(
    "n,groups",
    [
        (1, ((0, 1),)),
        (2, ((0, 1, 2),)),
        (2, ((0, 1, 2, 3, 4),)),
        (3, ((0, 1, 2), (3, 4, 5))),
        (4, ((0, 1), (2, 3), (4, 5), (6, 7))),
        (4, ((0, 1, 2, 3, 4, 5, 6, 7, 8),)),
    ],
)
def test_cycle_power_is_scalar(n, groups):
    gs = build_gamma_generators(n)
    spec = CycleSpec(n, groups)
    U, _ = cycle_unitary(gs, spec)
    assert_unitary(U)
    P = np.linalg.matrix_power(U, spec.cycle_length)
    off = P - np.diag(np.diag(P))
    assert np.max(np.abs(off)) < 1e-10
    diag = np.diag(P)
    assert np.max(np.abs(diag - diag[0])) < 1e-10


def conjugation_residual(U, a, b, sign):
    """Max-abs deviation of U a U^H from sign * b, from dense matrices: the
    oracle for the residual conjugate_term reports."""
    img = U @ to_dense(a) @ U.conj().T
    return float(np.max(np.abs(img - sign * to_dense(b))))


def test_conjugate_term_identity_unitary():
    gs = build_gamma_generators(2)
    U = np.eye(4, dtype=complex)
    for idx in ([0], [1, 4], [0, 2, 3]):
        a = gamma_product(gs, idx, 1 if len(idx) % 2 == 0 else 0)
        term, sign = canonical(conjugate_term(U, a)[0])
        rep, s = canonical(a)
        assert term == rep and sign == s


def test_conjugate_term_cycle_example():
    gs = build_gamma_generators(2)
    U, _ = cycle_unitary(gs, CycleSpec(2, ((0, 1, 2),)))
    term, sign = canonical(conjugate_term(U, gs[0])[0])
    assert (term, sign) == (gs[1], 1)
    # i G1 G4 -> +- i G2 G4, cross-checked densely
    a = gamma_product(gs, [1, 4], 1)
    term, sign = canonical(conjugate_term(U, a)[0])
    want, wsign = canonical(gamma_product(gs, [2, 4], 1))
    assert term == want
    assert conjugation_residual(U, a, term, sign) < 1e-8


def test_conjugate_term_matches_dense_on_random_cliffords():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        gs = build_gamma_generators(n)
        for _ in range(8):
            U = np.eye(2**n, dtype=complex)
            for _ in range(3):
                j, k = rng.choice(2 * n + 1, size=2, replace=False)
                U = rotation_unitary(gs, int(j), int(k)) @ U
            for _ in range(8):
                m = int(rng.integers(1, 2 * n + 2))
                idx = rng.choice(2 * n + 1, size=m, replace=False).tolist()
                a = gamma_product(gs, idx)
                if (a.phase - (a.xmask & a.zmask).bit_count()) % 2:
                    a = gamma_product(gs, idx, 1)
                term, sign = canonical(conjugate_term(U, a)[0])
                img = U @ to_dense(a) @ U.conj().T
                assert np.max(np.abs(img - sign * to_dense(term))) < 1e-8


def test_conjugate_term_rejects_non_clifford():
    gs = build_gamma_generators(1)
    theta = 0.3
    U = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    with pytest.raises(NotAMonomialError):
        conjugate_term(U, gs[0])


def test_unitarity_of_every_cycle():
    for n, groups in [(2, ((0, 1, 2, 3),)), (3, ((0, 1, 2, 3, 4, 5, 6),))]:
        gs = build_gamma_generators(n)
        U, _ = cycle_unitary(gs, CycleSpec(n, groups))
        assert np.linalg.norm(U.conj().T @ U - np.eye(2**n)) < 1e-10


def test_l2_unitary_is_fourier_like_on_bloch():
    # n=1 pair swap acts like the Hadamard: X <-> Z
    gs = build_gamma_generators(1)
    U, _ = cycle_unitary(gs, CycleSpec(1, ((0, 1),)))
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    X, Z = to_dense(gs[0]), to_dense(gs[1])
    assert np.allclose(U @ X @ U.conj().T, H @ X @ H.conj().T, atol=1e-12)
    assert np.allclose(U @ Z @ U.conj().T, H @ Z @ H.conj().T, atol=1e-12)


@pytest.mark.parametrize("build,args", PARTITIONS)
def test_exact_action_matches_dense_on_every_class(build, args):
    part = build(*args)
    gs = build_gamma_generators(part.n)
    U, action = cycle_unitary(gs, part.spec)
    assert action == cycle_action(gs, part.spec)
    for c in part.classes:
        want = [canonical(conjugate_term(U, m)[0]) for m in c.members]
        assert _batched(action, c.members) == want


def _batched(action, terms):
    """conjugate_masks on the masks of terms, as (monomial, sign) pairs."""
    x, z, p, s = action.conjugate_masks(
        [a.xmask for a in terms], [a.zmask for a in terms], [a.phase for a in terms]
    )
    n = action.gs.n
    return [
        (PauliTerm(n, *t), sign)
        for *t, sign in zip(x.tolist(), z.tolist(), p.tolist(), s.tolist())
    ]


def _by_generators(action, a):
    """The per-term route the batched action replaced: a as i^k times a
    product of generators, whose images are multiplied in that order."""
    idx = gamma_indices(action.gs, a)
    out = PauliTerm(a.n, 0, 0, (a.phase - gamma_product(action.gs, idx).phase) % 4)
    for i in idx:
        out = multiply(out, action.images[i])
    return canonical(out)


def _constructible(max_n):
    from mubforge.cli import build_partition, constructible

    return [
        build_partition(n, L)
        for n in range(1, max_n + 1)
        for L in range(2, 2 * n + 2)
        if constructible(n, L)
    ]


@pytest.mark.parametrize("part", _constructible(6), ids=lambda p: f"n{p.n}L{p.L}")
def test_batched_action_matches_the_generator_route(part):
    # every member of every class, under each of the four phases
    gs = build_gamma_generators(part.n)
    action = cycle_action(gs, part.spec)
    terms = [
        PauliTerm(m.n, m.xmask, m.zmask, (m.phase + k) % 4)
        for c in part.classes
        for m in c.members
        for k in range(4)
    ]
    assert _batched(action, terms) == [_by_generators(action, a) for a in terms]


@pytest.mark.parametrize("part", _constructible(6), ids=lambda p: f"n{p.n}L{p.L}")
def test_the_one_read_keeps_the_dense_residual(part):
    # the residual cycle_unitary's read keeps is, bit for bit, the worst
    # dense residual of the 2n+1 generator images it read
    gs = build_gamma_generators(part.n)
    U, action = cycle_unitary(gs, part.spec)
    want = max(
        conjugation_residual(U, g, *canonical(img))
        for g, img in zip(gs.gammas, action.images)
    )
    assert action.residual == want
    assert 0.0 < want < 1e-10
    assert cycle_action(gs, part.spec).residual == 0.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=4),
    masks=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 3)),
)
def test_exact_action_matches_dense_under_random_rotations(n, pairs, masks):
    gs = build_gamma_generators(n)
    U = np.eye(2**n, dtype=complex)
    for j, k in pairs:
        j, k = j % (2 * n + 1), k % (2 * n + 1)
        if j != k:
            U = rotation_unitary(gs, j, k) @ U
    top = 2**n
    a = PauliTerm(n, masks[0] % top, masks[1] % top, masks[2])
    want = canonical(conjugate_term(U, a)[0])
    assert _batched(clifford_action(gs, U), [a]) == [want]


def test_cycle_action_carries_the_determinant_sign():
    # an even cycle has determinant -1 and flips G_{2n}; an odd one does not
    gs = build_gamma_generators(2)
    flipped = cycle_action(gs, CycleSpec(2, ((0, 1, 2, 3),))).images[4]
    assert canonical(flipped) == (canonical(gs[4])[0], -canonical(gs[4])[1])
    assert cycle_action(gs, CycleSpec(2, ((0, 1, 2),))).images[4] == gs[4]


def test_cycle_unitary_rejects_a_wrong_action(monkeypatch):
    import mubforge.transform

    gs = build_gamma_generators(2)
    spec = CycleSpec(2, ((0, 1, 2),))
    wrong = cycle_action(gs, CycleSpec(2, ((0, 2, 1),)))
    monkeypatch.setattr(mubforge.transform, "cycle_action", lambda gs, spec: wrong)
    with pytest.raises(ConstructionError):
        cycle_unitary(gs, spec)
