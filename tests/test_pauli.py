import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubforge.pauli import (
    DimensionMismatchError,
    GammaSet,
    PauliTerm,
    apply,
    build_gamma_generators,
    canonical,
    commutes,
    gamma_indices,
    gamma_product,
    identity,
    is_hermitian,
    multiply,
    term_to_text,
    to_dense,
)
from oracles import term_from_text

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_term(rng, n):
    return PauliTerm(n, int(rng.integers(2**n)), int(rng.integers(2**n)), int(rng.integers(4)))


def test_single_qubit_generators():
    gs = build_gamma_generators(1)
    assert np.array_equal(to_dense(gs[0]), X)
    assert np.array_equal(to_dense(gs[1]), Z)
    assert np.allclose(to_dense(gs[2]), Y)


def test_identity_dense():
    assert np.array_equal(to_dense(identity(3)), np.eye(8))


def test_xz_product_is_minus_i_y():
    x = PauliTerm(1, 1, 0, 0)
    z = PauliTerm(1, 0, 1, 0)
    xz = multiply(x, z)
    assert np.allclose(to_dense(xz), -1j * Y)
    # and the same symbolically: -iY has masks (1,1) and phase 3... XZ itself is phase 0
    assert (xz.xmask, xz.zmask, xz.phase) == (1, 1, 0)


def test_self_product_cancels_masks():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_term(rng, 3)
        sq = multiply(a, a)
        assert sq.xmask == 0 and sq.zmask == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_relations_symbolic(n):
    gs = build_gamma_generators(n)
    assert len(gs) == 2 * n + 1
    for i in range(2 * n + 1):
        assert is_hermitian(gs[i])
        assert multiply(gs[i], gs[i]) == identity(n)
        for j in range(i + 1, 2 * n + 1):
            assert not commutes(gs[i], gs[j])
            ab = multiply(gs[i], gs[j])
            ba = multiply(gs[j], gs[i])
            assert (ab.xmask, ab.zmask) == (ba.xmask, ba.zmask)
            assert (ab.phase - ba.phase) % 4 == 2  # anti-commute: ab = -ba


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_relations_dense(n):
    gs = build_gamma_generators(n)
    d = 2**n
    mats = [to_dense(g) for g in gs.gammas]
    for i, A in enumerate(mats):
        assert np.allclose(A, A.conj().T, atol=1e-12)
        assert np.allclose(A @ A, np.eye(d), atol=1e-12)
        for B in mats[i + 1 :]:
            assert np.allclose(A @ B + B @ A, 0, atol=1e-12)


def test_last_generator_is_product_chain():
    # G_{2n} carries i^(n mod 2) so that it squares to +I for every n
    for n in [1, 2, 3]:
        gs = build_gamma_generators(n)
        chain = gamma_product(gs, list(range(2 * n)), extra_phase=n % 2)
        assert chain == gs[2 * n]


def test_multiply_matches_dense_product():
    rng = np.random.default_rng(7)
    for n in [1, 2, 3]:
        for _ in range(40):
            a, b = random_term(rng, n), random_term(rng, n)
            got = to_dense(multiply(a, b))
            want = to_dense(a) @ to_dense(b)
            assert np.array_equal(got, want)


def test_symbolic_product_example_d4():
    # (i G1 G4) * (i G3 G2) against the dense 4x4 oracle
    gs = build_gamma_generators(2)
    left = gamma_product(gs, [1, 4], 1)
    right = gamma_product(gs, [3, 2], 1)
    got = to_dense(multiply(left, right))
    want = to_dense(left) @ to_dense(right)
    assert np.max(np.abs(got - want)) == 0.0


def test_commutes_matches_dense():
    rng = np.random.default_rng(3)
    for n in [1, 2, 3]:
        for _ in range(60):
            a, b = random_term(rng, n), random_term(rng, n)
            A, B = to_dense(a), to_dense(b)
            dense = np.linalg.norm(A @ B - B @ A) < 1e-12
            assert commutes(a, b) == dense


def test_commutes_identity_always():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_term(rng, 2)
        assert commutes(a, identity(2))


def test_commutes_fixture_pair():
    gs = build_gamma_generators(2)
    assert not commutes(gs[0], gs[1])
    assert commutes(gs[0], gamma_product(gs, [1, 4], 1))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiply(identity(2), identity(3))
    with pytest.raises(DimensionMismatchError):
        commutes(identity(2), identity(3))


def test_trace_orthogonality():
    # distinct monomials of the basis set are Hilbert-Schmidt orthogonal
    for n in [1, 2]:
        d = 2**n
        terms = [
            PauliTerm(n, x, z, 0) for x in range(d) for z in range(d)
        ]
        for i, a in enumerate(terms):
            A = to_dense(a)
            assert abs(np.trace(A.conj().T @ A) - d) < 1e-12
            for b in terms[i + 1 :]:
                B = to_dense(b)
                assert abs(np.trace(A.conj().T @ B)) < 1e-12


def test_hermiticity_rule():
    rng = np.random.default_rng(13)
    for _ in range(80):
        a = random_term(rng, 3)
        dense_herm = np.allclose(to_dense(a), to_dense(a).conj().T, atol=1e-12)
        assert is_hermitian(a) == dense_herm


def test_canonical_sign_split():
    a = PauliTerm(2, 3, 1, 3)
    rep, sign = canonical(a)
    assert sign == -1 and rep.phase == 1
    assert np.allclose(to_dense(a), -to_dense(rep))
    b = PauliTerm(2, 3, 1, 1)
    rep2, sign2 = canonical(b)
    assert sign2 == 1 and rep2 == b


def test_gamma_product_errors():
    gs = build_gamma_generators(2)
    with pytest.raises(ValueError):
        gamma_product(gs, [0, 0])
    with pytest.raises(IndexError):
        gamma_product(gs, [5])


def test_gamma_product_single():
    gs = build_gamma_generators(2)
    assert gamma_product(gs, [0]) == gs[0]


def test_gamma_indices_roundtrip():
    rng = np.random.default_rng(17)
    for n in [2, 3]:
        gs = build_gamma_generators(n)
        for _ in range(40):
            k = int(rng.integers(1, n + 1))
            idx = tuple(sorted(rng.choice(2 * n + 1, size=k, replace=False).tolist()))
            term = gamma_product(gs, idx)
            got = gamma_indices(gs, term)
            assert got == idx
            # same masks up to phase
            ref = gamma_product(gs, got)
            assert (ref.xmask, ref.zmask) == (term.xmask, term.zmask)


def test_gamma_indices_prefers_short_form():
    gs = build_gamma_generators(2)
    term = gamma_product(gs, [1, 4], 1)
    assert gamma_indices(gs, term) == (1, 4)


def test_text_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = random_term(rng, 4)
        assert term_from_text(term_to_text(a)) == a
    assert term_to_text(PauliTerm(2, 3, 1, 1)) == "i^1 X:0x3 Z:0x1 n:2"


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    bits=st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 3)),
    cols=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_apply_equals_dense_product(n, bits, cols, seed):
    a = PauliTerm(n, bits[0] % 2**n, bits[1] % 2**n, bits[2])
    rng = np.random.default_rng(seed)
    shape = (2**n,) if cols == 0 else (2**n, cols)
    V = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # one exact product per entry, so equal to the last bit
    assert np.array_equal(apply(a, V), to_dense(a) @ V)
    assert np.array_equal(apply(a, np.eye(2**n)), to_dense(a))


def test_apply_to_a_sequence_stacks_the_single_results():
    rng = np.random.default_rng(7)
    for n in (1, 3, 6):
        d = 2**n
        terms = [
            PauliTerm(n, *map(int, rng.integers(0, d, size=2)), int(rng.integers(0, 4)))
            for _ in range(5)
        ]
        V = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        got = apply(terms, V)
        assert got.shape == (5, d, 3)
        for a, image in zip(terms, got):
            assert np.array_equal(image, apply(a, V))
            assert np.array_equal(image, to_dense(a) @ V)
    with pytest.raises(DimensionMismatchError):
        apply([PauliTerm(2, 1, 0, 0), PauliTerm(3, 1, 0, 0)], np.eye(4))


def test_apply_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        apply(PauliTerm(2, 1, 0, 0), np.eye(8))


def test_gamma_set_elimination_is_not_part_of_equality():
    gs = build_gamma_generators(3)
    again = GammaSet(3, gs.gammas)
    assert gs == again and hash(gs) == hash(again)
    assert gs.pivots == again.pivots and len(gs.pivots) == 6


@st.composite
def same_n_terms(draw, k):
    """k monomials on one random qubit count."""
    n = draw(st.integers(1, 4))
    mask = st.integers(0, 2**n - 1)
    phase = st.integers(0, 3)
    return [PauliTerm(n, draw(mask), draw(mask), draw(phase)) for _ in range(k)]


@settings(max_examples=100, deadline=None)
@given(same_n_terms(3))
def test_multiply_is_associative(terms):
    a, b, c = terms
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@settings(max_examples=100, deadline=None)
@given(same_n_terms(2))
def test_multiply_phase_matches_the_dense_product(terms):
    a, b = terms
    # monomial matrices with entries 0, +-1, +-i: the product is exact
    assert np.array_equal(to_dense(multiply(a, b)), to_dense(a) @ to_dense(b))


@settings(max_examples=100, deadline=None)
@given(same_n_terms(2))
def test_commutes_matches_the_dense_commutator(terms):
    a, b = terms
    A, B = to_dense(a), to_dense(b)
    assert commutes(a, b) == np.array_equal(A @ B, B @ A)
