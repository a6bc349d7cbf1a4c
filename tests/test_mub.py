import json
from functools import lru_cache

import numpy as np
import pytest

from mubforge.classes import (
    CommutingClass,
    build_classes_2n1,
    build_classes_Ln,
    fixture_d4,
)
from mubforge.mub import (
    Basis,
    DiagonalizationError,
    MubSet,
    basis_from_involutions,
    build_mub_set,
    CycleMatchError,
    common_eigenbasis,
    complex_json,
    cycle_coherent_family,
    cycle_permutations,
    eigenvector_residual,
    invariant_states,
    invariant_superposition_family,
    mub_set_to_json,
    phase_ramp_states,
    symmetrize,
    unbiasedness_deviation,
    verify_cycle,
)
from mubforge.mub import EIGEN_TOL, fix_phase
from mubforge.pauli import PauliTerm, build_gamma_generators, gamma_product, to_dense
from mubforge.wigner import complete_mub_bases, spread_partition


def test_single_qubit_z_class_is_computational():
    cc = CommutingClass((PauliTerm(1, 0, 1, 0),), singleton_index=1)
    basis = common_eigenbasis(cc)
    assert np.allclose(np.abs(basis.vectors), np.eye(2), atol=1e-12)


def test_single_qubit_x_class_is_hadamard():
    cc = CommutingClass((PauliTerm(1, 1, 0, 0),), singleton_index=0)
    basis = common_eigenbasis(cc)
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(np.abs(basis.vectors), np.abs(H), atol=1e-12)


def test_fixture_class_joint_eigenvectors():
    part = fixture_d4(3)
    basis = common_eigenbasis(part.classes[0])
    for m in part.classes[0].members:
        M = to_dense(m)
        for b in range(4):
            v = basis.vectors[:, b]
            lam = v.conj() @ M @ v
            assert abs(abs(lam) - 1) < 1e-10
            assert np.linalg.norm(M @ v - lam * v) < 1e-8


def test_gram_identity_and_sign_patterns():
    part = fixture_d4(4)
    for c in part.classes:
        basis = common_eigenbasis(c)
        gram = basis.vectors.conj().T @ basis.vectors
        assert np.linalg.norm(gram - np.eye(4)) < 1e-10
        assert len(set(basis.sign_patterns)) == 4
        # canonical order: member-0 sign most significant, +1 before -1
        keys = [tuple(-s for s in p) for p in basis.sign_patterns]
        assert keys == sorted(keys)
        assert basis.sign_patterns[0][0] == 1


def test_noncommuting_input_raises():
    gs = build_gamma_generators(2)
    bad = CommutingClass((gs[0], gs[1], gs[2]), 0)
    with pytest.raises(DiagonalizationError):
        common_eigenbasis(bad)


def test_not_maximal_raises():
    gs = build_gamma_generators(2)
    with pytest.raises(DiagonalizationError):
        basis_from_involutions([gs[0]])


@pytest.mark.parametrize("L", [3, 4])
def test_fixture_mub_sets(L):
    ms = build_mub_set(fixture_d4(L))
    assert ms.L == L and ms.d == 4
    assert unbiasedness_deviation(ms.bases) < 1e-10
    report = verify_cycle(ms)
    assert report.worst_residual < 1e-8
    assert len(report.permutations) == L


def test_complete_set_d4():
    ms = build_mub_set(build_classes_2n1(2))
    assert ms.L == 5  # complete set: d + 1 bases in d = 4
    assert unbiasedness_deviation(ms.bases) < 1e-10
    assert verify_cycle(ms).worst_residual < 1e-8


def test_d8_l3_mub_set():
    ms = build_mub_set(build_classes_Ln(3, 3))
    assert ms.L == 3 and ms.d == 8
    assert unbiasedness_deviation(ms.bases) < 1e-10
    assert verify_cycle(ms).worst_residual < 1e-8


def test_fourier_pair_exchanged():
    ms = build_mub_set(build_classes_Ln(2, 2))
    report = verify_cycle(ms)
    assert report.worst_residual < 1e-8
    # L = 2: U exchanges the two bases both ways
    v = ms.U @ ms.bases[1].vectors[:, 0]
    ov = np.abs(ms.bases[0].vectors.conj().T @ v) ** 2
    assert np.max(ov) > 1 - 1e-8


def test_scrambled_basis_order_raises():
    ms = build_mub_set(fixture_d4(4))
    scrambled = MubSet((ms.bases[0], ms.bases[2], ms.bases[1], ms.bases[3]), ms.U, ms.provenance)
    with pytest.raises(RuntimeError):
        verify_cycle(scrambled)


def test_cycle_permutation_closure():
    for ms in (build_mub_set(fixture_d4(4)), build_mub_set(build_classes_2n1(2))):
        perms = verify_cycle(ms).permutations
        comp = list(range(ms.d))
        for p in perms:
            comp = [p[i] for i in comp]
        assert sorted(comp) == list(range(ms.d))


def test_invariant_states_are_eigenvectors():
    ms = build_mub_set(fixture_d4(4))
    states = invariant_states(ms)
    assert len(states) == 4
    for v, lam in states:
        assert abs(abs(lam) - 1) < 1e-10
        assert np.linalg.norm(ms.U @ v - lam * v) < 1e-8


def test_invariant_state_overlap_flatness():
    # for an eigenvector of U, |<b^(j)|psi>|^2 does not depend on j when b is
    # carried along the induced permutations
    ms = build_mub_set(fixture_d4(4))
    perms = verify_cycle(ms).permutations
    for v, _ in invariant_states(ms):
        for b0 in range(ms.d):
            b = b0
            vals = []
            for j in range(ms.L):
                vals.append(abs(ms.bases[j].vectors[:, b].conj() @ v) ** 2)
                b = perms[j][b]
            assert np.max(vals) - np.min(vals) < 1e-8


def test_identity_unitary_degenerate_case():
    ms = build_mub_set(fixture_d4(4))
    trivial = MubSet(ms.bases, np.eye(4, dtype=complex), ms.provenance)
    states = invariant_states(trivial)
    assert len(states) == 4
    for v, lam in states:
        assert abs(lam - 1) < 1e-12


def test_phase_ramp_states_d4():
    ms = build_mub_set(fixture_d4(4))
    coeffs = np.exp(1j * np.pi * np.arange(4) / 4) / 2
    states = phase_ramp_states(ms, coeffs)
    assert len(states) == 4
    for v in states:
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert eigenvector_residual(ms.U, v) < 1e-8


def test_cycle_coherent_family_shape():
    ms = build_mub_set(fixture_d4(3))
    fam = cycle_coherent_family(ms, 2)
    assert fam.shape == (4, 3)
    assert abs(np.linalg.norm(fam[:, 1]) - 1) < 1e-12


def test_cycle_helpers_refuse_a_set_without_a_cycle():
    ms = complete_mub_bases(3)
    assert ms.U is None
    for call in (
        lambda: verify_cycle(ms),
        lambda: invariant_states(ms),
        lambda: cycle_coherent_family(ms, 0),
        lambda: invariant_superposition_family(ms),
    ):
        with pytest.raises(ValueError, match="no cycle unitary"):
            call()


def test_json_of_a_set_without_a_cycle():
    doc = json.loads(mub_set_to_json(complete_mub_bases(3)))
    assert doc["L"] == 9 and doc["provenance"]["spec"] is None
    assert "cycle" not in doc


def test_symmetrize_fixed_point_and_idempotence():
    ms = build_mub_set(fixture_d4(4))
    rng = np.random.default_rng(31)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    sym = symmetrize(rho, ms.U, ms.L)
    assert abs(np.trace(sym) - 1) < 1e-10
    assert np.linalg.eigvalsh(sym).min() > -1e-10
    again = symmetrize(sym, ms.U, ms.L)
    assert np.linalg.norm(again - sym) < 1e-10
    # maximally mixed input is a fixed point
    mixed = np.eye(4) / 4
    assert np.linalg.norm(symmetrize(mixed, ms.U, ms.L) - mixed) < 1e-12


def test_symmetrize_preserves_cycled_pvec_overlap():
    # tr(rho_sym P) = tr(rho P) when P is the sum of one full U-orbit
    ms = build_mub_set(fixture_d4(4))
    perms = verify_cycle(ms).permutations
    rng = np.random.default_rng(37)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    b = 3
    P = np.zeros((4, 4), dtype=complex)
    idx = b
    for j in range(ms.L):
        P += ms.bases[j].projector(idx)
        idx = perms[j][idx]
    sym = symmetrize(rho, ms.U, ms.L)
    assert abs(np.trace(rho @ P) - np.trace(sym @ P)) < 1e-10


def test_symmetrize_rejects_bad_input():
    ms = build_mub_set(fixture_d4(4))
    with pytest.raises(ValueError):
        symmetrize(np.eye(4), ms.U, 4)  # trace 4
    bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        symmetrize(bad, ms.U, 4)


def dense_eigenbasis(mats):
    """The dense splitting that basis_from_involutions replaced, kept as its
    oracle: every member splits every block by eigh, 1 x 1 blocks included."""
    d = mats[0].shape[0]
    blocks = [(np.eye(d, dtype=complex), ())]
    for M in mats:
        split = []
        for B, pattern in blocks:
            w, V = np.linalg.eigh(B.conj().T @ M @ B)
            assert np.max(np.abs(np.abs(w) - 1)) <= EIGEN_TOL
            if (w > 0).any():
                split.append((B @ V[:, w > 0], pattern + (1,)))
            if (w < 0).any():
                split.append((B @ V[:, w < 0], pattern + (-1,)))
        blocks = split
    order = sorted(range(d), key=lambda i: tuple(-s for s in blocks[i][1]))
    vectors = np.column_stack([fix_phase(blocks[i][0][:, 0]) for i in order])
    return vectors, tuple(blocks[i][1] for i in order)


def _all_classes():
    parts = [fixture_d4(3), fixture_d4(4)]
    parts += [build_classes_2n1(n) for n in (1, 2, 3, 5)]
    parts += [build_classes_Ln(n, L) for n, L in ((2, 2), (3, 3), (4, 2), (5, 5))]
    parts += [spread_partition(n) for n in (1, 2, 3, 4)]
    return [list(c.members) for part in parts for c in part.classes]


def test_exact_bases_match_the_dense_oracle():
    for members in _all_classes():
        want, patterns = dense_eigenbasis([to_dense(m) for m in members])
        got = basis_from_involutions(members)
        assert got.sign_patterns == patterns
        assert np.max(np.abs(got.vectors - want)) <= 1e-15
        assert got.vectors.flags.c_contiguous
        # every entry exactly 0, +-a or +-i a, a = 1/sqrt(support size)
        for v in got.vectors.T:
            a = np.sqrt(1 / np.count_nonzero(v))
            assert set(v.tolist()) <= {0, a, -a, 1j * a, -1j * a}


def test_non_hermitian_member_raises():
    gs = build_gamma_generators(2)
    with pytest.raises(DiagonalizationError):
        basis_from_involutions([gs[0], PauliTerm(2, 1, 1, 0), gs[4]])


def test_noncommuting_member_after_the_split_raises():
    # G0 and i G1 G4 split d = 4 fully; G1 anticommutes with G0 and is caught
    # where only signs are read
    gs = build_gamma_generators(2)
    members = [gs[0], gamma_product(gs, [1, 4], 1), gs[1]]
    with pytest.raises(DiagonalizationError):
        basis_from_involutions(members)


@pytest.mark.parametrize(
    "part", [fixture_d4(3), build_classes_2n1(3), spread_partition(4)]
)
def test_build_keeps_the_unbiasedness_deviation(part):
    ms = build_mub_set(part)
    assert ms.deviation == unbiasedness_deviation(ms)
    assert ms.deviation == unbiasedness_deviation(ms.bases)
    assert json.loads(mub_set_to_json(ms))["unbiasedness_deviation"] == ms.deviation


def test_codes_name_the_generator_signs():
    for members in _all_classes():
        basis = basis_from_involutions(members)
        assert sorted(basis.codes) == list(range(basis.d))
        assert len(basis.generators) == basis.d.bit_length() - 1
        for g in basis.generators:
            i = members.index(g)
            signs = [p[i] for p in basis.sign_patterns]
            bit = basis.generators.index(g)
            assert signs == [1 - 2 * (t >> bit & 1) for t in basis.codes]


def complex_lists(M):
    """M as nested lists with a [real, imag] pair for each entry: what
    complex_json writes, through json.dumps (the oracle)."""
    return np.stack([M.real, M.imag], -1).tolist()


@lru_cache(maxsize=None)
def _cli_set(n, L):
    from mubforge.cli import build_partition

    return build_mub_set(build_partition(n, L))


def _buildable(max_n):
    # every constructible (n, L); (6, 3) fails P2, and its bases are not unbiased
    from mubforge.cli import constructible

    return [
        (n, L)
        for n in range(1, max_n + 1)
        for L in range(2, 2 * n + 2)
        if constructible(n, L) and (n, L) != (6, 3)
    ]


def test_complex_json_matches_json_dumps_on_the_d64_set():
    ms = _cli_set(6, 13)
    for M in [ms.U] + [b.vectors.T for b in ms.bases]:
        assert complex_json(M) == json.dumps(complex_lists(M))


SPECIAL = np.array(
    [
        [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)],
        [np.nan, complex(np.nan, 1.0), complex(1.0, np.nan), np.inf],
        [complex(-np.inf, 2.5), 0.1 + 0.2j, 0.1 + 0.2j, 1e-300 - 1e300j],
    ]
)


@pytest.mark.parametrize(
    "M",
    [
        SPECIAL,
        SPECIAL[0],
        np.stack([SPECIAL, SPECIAL[::-1]]),
        np.full((3, 5), 0.5 - 0.5j),
        np.random.default_rng(7).normal(size=(6, 7, 2)) @ np.array([1, 1j]),
        np.random.default_rng(8).normal(size=(4, 4)).astype(complex),
    ],
    ids=["special", "1d", "3d", "repeated", "distinct", "real"],
)
@pytest.mark.parametrize("indent, level", [(None, 0), (1, 0), (1, 1), (2, 3)])
def test_complex_json_matches_json_dumps(M, indent, level):
    want = json.dumps(complex_lists(M), indent=indent)
    if indent is not None:  # as a value nested level deep
        want = want.replace("\n", "\n" + " " * (indent * level))
    assert complex_json(M, indent, level) == want


def test_bases_json_is_json_dumps_of_the_document():
    ms = _cli_set(6, 13)
    cycle = verify_cycle(ms)
    doc = json.loads(mub_set_to_json(ms, cycle))
    for b, want in zip(doc["bases"], ms.bases):
        b["vectors"] = complex_lists(want.vectors.T)
    assert mub_set_to_json(ms, cycle) == json.dumps(doc)
    assert [b["label"] for b in doc["bases"]] == list(range(13))


def _match_by_columns(ms):
    """The per-column matcher verify_cycle replaced: (worst residual,
    permutations), or None where some element has no match."""
    worst, perms = 0.0, []
    for j in range(ms.L):
        Bk = ms.bases[(j + 1) % ms.L].vectors
        perm = []
        for b in range(ms.d):
            v = ms.U @ ms.bases[j].vectors[:, b]
            ov = np.abs(Bk.conj().T @ v) ** 2
            m = int(np.argmax(ov))
            if ov[m] < 1 - 1e-6:
                return None
            perm.append(m)
            P_img = np.outer(v, v.conj())
            P_tgt = np.outer(Bk[:, m], Bk[:, m].conj())
            worst = max(worst, float(np.linalg.norm(P_img - P_tgt)))
        perms.append(tuple(perm))
    return worst, tuple(perms)


@pytest.mark.parametrize("n, L", _buildable(6))
def test_cycle_matching_equals_the_per_column_matcher(n, L):
    ms = _cli_set(n, L)
    worst, perms = _match_by_columns(ms)
    report = verify_cycle(ms)
    assert report.worst_residual == worst
    assert report.permutations == perms
    assert cycle_permutations(ms).tolist() == [list(p) for p in perms]


def test_a_unitary_that_does_not_cycle_is_refused_both_ways():
    ms = build_mub_set(build_classes_Ln(3, 3))
    H = np.kron(np.eye(4), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    bad = MubSet(ms.bases, H @ ms.U, ms.provenance)
    assert _match_by_columns(bad) is None and cycle_permutations(bad) is None
    with pytest.raises(CycleMatchError, match="no projector match"):
        verify_cycle(bad)
