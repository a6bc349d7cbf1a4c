import json
import math
import re
from dataclasses import replace
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import mubforge.mub

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
    UnbiasednessError,
    _amplitudes,
    _check_eigenvectors,
    _check_unbiased,
    _generators,
    _group,
    _tokens_json,
    basis_from_involutions,
    build_mub_set,
    CycleMatchError,
    common_eigenbasis,
    complex_json,
    cycle_coherent_family,
    eigenvector_residual,
    invariant_superposition_family,
    mub_set_json_parts,
    mub_set_to_json,
    verify_cycle,
)
from mubforge.mub import _projector_distances, fix_phase
from oracles import (
    EIGEN_TOL,
    invariant_states,
    member_check,
    pair_deviations,
    phase_ramp_states,
    raw_unbiasedness_deviation,
    set_by_hand,
    sign_patterns,
    symmetrize,
)
from mubforge.pauli import (
    PauliTerm,
    apply,
    build_gamma_generators,
    gamma_product,
    parity,
    row_mask,
    to_dense,
)
from mubforge.transform import CliffordAction
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
        patterns = sign_patterns(c.members, basis)
        assert len(set(patterns)) == 4
        # canonical order: member-0 sign most significant, +1 before -1
        keys = [tuple(-s for s in p) for p in patterns]
        assert keys == sorted(keys)
        assert patterns[0][0] == 1


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
    assert raw_unbiasedness_deviation(ms.bases) < 1e-10
    report = verify_cycle(ms)
    assert report.worst_residual < 1e-8
    assert len(report.permutations) == L


def test_complete_set_d4():
    ms = build_mub_set(build_classes_2n1(2))
    assert ms.L == 5  # complete set: d + 1 bases in d = 4
    assert raw_unbiasedness_deviation(ms.bases) < 1e-10
    assert verify_cycle(ms).worst_residual < 1e-8


def test_d8_l3_mub_set():
    ms = build_mub_set(build_classes_Ln(3, 3))
    assert ms.L == 3 and ms.d == 8
    assert raw_unbiasedness_deviation(ms.bases) < 1e-10
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
    scrambled = replace(ms, bases=(ms.bases[0], ms.bases[2], ms.bases[1], ms.bases[3]))
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
    trivial = set_by_hand(ms.bases, np.eye(4, dtype=complex), ms.provenance)
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
        v = ms.bases[j].vectors[:, idx]
        P += np.outer(v, v.conj())
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
        assert sign_patterns(members, got) == patterns
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
    assert ms.deviation == raw_unbiasedness_deviation(ms.bases)
    assert json.loads(mub_set_to_json(ms))["unbiasedness_deviation"] == ms.deviation


def test_codes_name_the_generator_signs():
    # a label is its own sign code: in every set the commands build,
    # generator g_i maps column b of its basis to (-1)^(bit n-1-i of b)
    # times itself, exactly
    from mubforge.cli import build_partition, constructible

    parts = [
        build_partition(n, L)
        for n in range(1, 6)
        for L in range(2, 2 * n + 2)
        if constructible(n, L)
    ]
    parts += [spread_partition(n) for n in range(1, 6)]
    assert len(parts) == 15
    for part in parts:
        n, b = part.n, np.arange(part.d)
        for basis in build_mub_set(part).bases:
            assert len(basis.generators) == n
            for i, g in enumerate(basis.generators):
                sign = 1 - 2 * (b >> (n - 1 - i) & 1)
                assert np.array_equal(apply(g, basis.vectors), sign * basis.vectors)


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
# json.dumps' default layout, at the top level of a document: the one
# complex_json writes
@pytest.mark.parametrize("indent, level", [(None, 0)])
def test_complex_json_matches_json_dumps(M, indent, level):
    assert complex_json(M) == json.dumps(complex_lists(M), indent=indent)


def whole_document_json(ms, cycle):
    """mub_set_to_json before bases.json was written in parts (oracle): the
    whole document as one str, the bases spliced in for its null."""
    from mubforge.classes import partition_to_json

    doc = {
        "d": ms.d,
        "L": ms.L,
        "bases": None,
        "unbiasedness_deviation": ms.deviation,
        "provenance": json.loads(partition_to_json(ms.provenance)),
    }
    if cycle is not None:
        doc["cycle"] = {
            "worst_residual": cycle.worst_residual,
            "permutations": [list(p) for p in cycle.permutations],
        }
    bases = ", ".join(
        f'{{"label": {i}, "vectors": {complex_json(b.vectors.T)}}}'
        for i, b in enumerate(ms.bases)
    )
    return json.dumps(doc).replace('"bases": null', f'"bases": [{bases}]', 1)


def test_bases_json_is_json_dumps_of_the_document():
    ms = _cli_set(6, 13)
    cycle = verify_cycle(ms)
    doc = json.loads(mub_set_to_json(ms, cycle))
    for b, want in zip(doc["bases"], ms.bases):
        b["vectors"] = complex_lists(want.vectors.T)
    assert mub_set_to_json(ms, cycle) == json.dumps(doc)
    assert [b["label"] for b in doc["bases"]] == list(range(13))


@pytest.mark.parametrize("n, L", [(2, 4), (3, 7), (6, 13)])
def test_bases_json_parts_join_to_the_whole_document(n, L):
    ms = _cli_set(n, L)
    for cycle in (verify_cycle(ms), None):
        parts = list(mub_set_json_parts(ms, cycle))
        assert len(parts) == ms.L + 2  # head, one part per basis, tail
        want = whole_document_json(ms, cycle)
        assert "".join(parts) == mub_set_to_json(ms, cycle) == want
    spread = complete_mub_bases(3)  # no cycle, and no cycle unitary
    assert mub_set_to_json(spread) == whole_document_json(spread, None)


def _dense_columns(ms):
    """The dense matcher the exact label maps replaced (oracle): (res,
    permutations) from the overlaps of U|b^(j)> with basis j+1, res[j, b]
    the projector residual of element b of basis j from its own U|b^(j)>
    and two outer products, or None where some element has no match."""
    res, perms = np.zeros((ms.L, ms.d)), []
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
            res[j, b] = np.linalg.norm(P_img - P_tgt)
        perms.append(tuple(perm))
    return res, tuple(perms)


def _match_by_columns(ms):
    """(worst residual, permutations) of the dense matcher, or None."""
    dense = _dense_columns(ms)
    return dense and (float(dense[0].max()), dense[1])


def _gram_columns(ms):
    """res[j, b] as verify_cycle computes it, from one product U B_j."""
    pi = ms.cycle_permutations
    return np.array([
        _projector_distances(ms.U @ B.vectors, ms.bases[(j + 1) % ms.L].vectors[:, pi[j]])
        for j, B in enumerate(ms.bases)
    ])


@pytest.mark.parametrize("n, L", _buildable(6))
def test_cycle_matching_equals_the_per_column_matcher(n, L):
    ms = _cli_set(n, L)
    worst, perms = _match_by_columns(ms)
    report = verify_cycle(ms)
    assert abs(report.worst_residual - worst) <= 1e-15
    assert report.permutations == perms
    assert ms.cycle_permutations.tolist() == [list(p) for p in perms]


def _perturbed(ms, eps, seed):
    """ms with U replaced by exp(i eps H) U, H Hermitian of spectral norm 1,
    keeping the set's exact action (and so its maps)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(ms.d, ms.d)) + 1j * rng.normal(size=(ms.d, ms.d))
    lam, Q = np.linalg.eigh(A + A.conj().T)
    lam /= abs(lam).max()
    U = (Q * np.exp(1j * eps * lam)) @ Q.conj().T @ ms.U
    return replace(ms, U=U)


@pytest.mark.parametrize("n, L", [(2, 4), (3, 7), (6, 13)])
def test_cycle_residual_is_the_dense_residual(n, L):
    # rounding noise: the one-product Gram form agrees with the per-column
    # outer products to 1e-15 on every column, and verify_cycle reports
    # its worst column
    ms = _cli_set(n, L)
    dense, perms = _dense_columns(ms)
    gram = _gram_columns(ms)
    assert np.abs(gram - dense).max() <= 1e-15
    assert verify_cycle(ms).worst_residual == gram.max()
    # away from rounding noise, on a U perturbed off the cycle: relative 1e-9
    for eps in (1e-6, 1e-3):
        bad = _perturbed(ms, eps, seed=n * 100 + L)
        dense, bad_perms = _dense_columns(bad)
        report = verify_cycle(bad)
        assert report.permutations == bad_perms == perms
        assert eps / 10 < report.worst_residual < 2 * eps
        assert abs(report.worst_residual - dense.max()) <= 1e-9 * dense.max()
        assert np.all(np.abs(_gram_columns(bad) - dense) <= 1e-9 * dense)


def test_a_unitary_that_does_not_cycle_is_refused_both_ways():
    ms = build_mub_set(build_classes_Ln(3, 3))
    H = np.kron(np.eye(4), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    bad = set_by_hand(ms.bases, H @ ms.U, ms.provenance)
    assert _match_by_columns(bad) is None and bad.cycle_permutations is None
    with pytest.raises(CycleMatchError, match="no projector match"):
        verify_cycle(bad)


def test_a_unitary_that_is_not_clifford_is_refused():
    # U maps no Pauli onto a Pauli, so it has no Clifford action: a set
    # without one has no label maps, and verify_cycle reports a cycle failure
    ms = build_mub_set(build_classes_Ln(3, 3))
    rng = np.random.default_rng(113)
    Q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    bad = set_by_hand(ms.bases, Q, ms.provenance)
    assert bad.action is None and bad.cycle_permutations is None
    with pytest.raises(CycleMatchError) as info:
        verify_cycle(bad)
    assert str(info.value).startswith("no projector match")


@pytest.mark.parametrize("n, L", _buildable(5))
def test_label_maps_of_a_pauli_times_u_equal_the_per_column_matcher(n, L):
    # W U maps every basis onto the next one too, with other labels: the
    # maps read off its densely read tableau are the dense matcher's
    ms = _cli_set(n, L)
    rng = np.random.default_rng(n * 100 + L)
    for w in rng.choice(np.arange(1, ms.d**2), size=3, replace=False).tolist():
        W = to_dense(PauliTerm(n, w % ms.d, w // ms.d, 0))
        moved = set_by_hand(ms.bases, W @ ms.U, ms.provenance)
        _, perms = _match_by_columns(moved)
        assert moved.cycle_permutations.tolist() == [list(p) for p in perms]
        assert (moved.cycle_permutations != ms.cycle_permutations).any()


@pytest.mark.parametrize("n, L", [(2, 4), (3, 7), (5, 5)])
def test_a_tableau_with_a_duplicated_row_has_no_label_maps(n, L):
    # X_1 sent where X_0 goes: not an automorphism, so no basis maps onto
    # the next one label for label
    ms = _cli_set(n, L)
    a = ms.action
    rows = [row[:1] * 2 + row[2:] for row in (a.x, a.z, a.phase)]
    bad = replace(ms, action=CliffordAction(n, *rows))
    assert bad.cycle_permutations is None
    with pytest.raises(CycleMatchError, match="no projector match"):
        verify_cycle(bad)


def test_a_tableau_with_an_imaginary_image_has_no_label_maps():
    # X_0 sent to i times its image: the generators' images keep their
    # masks, but an anti-Hermitian image is no +-g_S of the next basis
    ms = _cli_set(3, 7)
    a = ms.action
    bad = replace(ms, action=replace(a, phase=((a.phase[0] + 1) % 4, *a.phase[1:])))
    assert bad.cycle_permutations is None


def parity_loop(v):
    """The bit-by-bit parity that pauli.parity's XOR fold replaced (oracle)."""
    v = np.array(v)
    out = np.zeros_like(v)
    while v.any():
        out ^= v & 1
        v >>= 1
    return out


def row_mask_loop(mask, n):
    """The bit loop that pauli.row_mask's table replaced (oracle)."""
    return sum(1 << (n - 1 - j) for j in range(n) if mask >> j & 1)


def per_class_basis(members):
    """basis_from_involutions as it was before its parity table and its
    derived column order, kept as the oracle: bit-loop parity and row
    masks, columns sorted by sign pattern."""
    for M in members:
        if (M.phase - (M.xmask & M.zmask).bit_count()) % 2:
            raise DiagonalizationError(f"member {M} is not Hermitian")
    n = members[0].n
    d = 1 << n
    gens, combos = _generators(members)
    if len(gens) != n:
        raise DiagonalizationError("class is not maximal")
    t = np.arange(d)
    xs, zs, ps = np.zeros(1, int), np.zeros(1, int), np.zeros(1, int)
    for g in gens:
        gx, gz = row_mask_loop(g.xmask, n), row_mask_loop(g.zmask, n)
        xs, zs, ps = (
            np.concatenate([xs, xs ^ gx]),
            np.concatenate([zs, zs ^ gz]),
            np.concatenate([ps, ps + g.phase + 2 * parity_loop(zs & gx)]),
        )
    flip = parity_loop(t[:, None] & t)
    K = xs == 0
    diag = (1 - 2 * flip[:, K]) * (1 - ps[K] % 4) @ (
        1 - 2 * parity_loop(zs[K, None] & t)
    )
    j0 = np.argmax(diag > 0, axis=1)
    rows = j0 ^ xs[:, None]
    expo = (2 * flip.T + ps[:, None] + 2 * parity_loop(zs[:, None] & j0)) % 4
    support = np.zeros((d, d), dtype=bool)
    phase = np.zeros((d, d), dtype=np.int8)
    support[rows, t], phase[rows, t] = True, expo
    combos = np.array(combos)
    lead = 1 - (np.array([M.phase for M in members]) - ps[combos]) % 4
    signs = lead[:, None] * (1 - 2 * parity_loop(combos[:, None] & t))
    r = np.arange(d)
    x = np.array([row_mask_loop(M.xmask, n) for M in members])
    z = np.array([row_mask_loop(M.zmask, n) for M in members])
    p = np.array([M.phase for M in members])
    moved = r ^ x[:, None]
    lhs = (p[:, None] + 2 * parity_loop(z[:, None] & r)).astype(np.int8)[:, :, None]
    lhs = lhs + phase
    rhs = phase[moved] + (1 - signs).astype(np.int8)[:, None, :]
    same = (support[moved] == support) & (~support | ((lhs - rhs) % 4 == 0))
    if not same.all():
        raise DiagonalizationError("a member does not map the basis to its signs")
    order = np.lexsort(-signs[::-1])
    if len(set(map(tuple, signs.T.tolist()))) != d:
        raise DiagonalizationError("sign patterns are not distinct")
    a = math.sqrt(np.count_nonzero(K) / d)
    amp = np.array([complex(a, 0), complex(0, a), complex(-a, 0), complex(0, -a)])
    vectors = np.where(support, amp[phase], 0)[:, order]
    codes = np.where(support, phase, 4).astype(np.int8)[:, order]
    return Basis(np.ascontiguousarray(vectors), tuple(gens), codes, (xs, zs, ps))


def same_basis(got, want):
    """Bit for bit: vectors (signed zeros included), generators and the
    int8 codes of the exact form."""
    assert got.vectors.dtype == want.vectors.dtype
    assert got.vectors.shape == want.vectors.shape
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.vectors.flags.c_contiguous
    assert got.generators == want.generators
    assert got.codes.dtype == want.codes.dtype == np.int8
    assert np.array_equal(got.codes, want.codes)


def _oracle_partitions():
    """Every constructible (n, L) with n <= 6, (6, 3) included (the d = 4
    fixtures are (2,3) and (2,4)), and the spreads for n = 3..5."""
    from mubforge.cli import build_partition, constructible

    parts = {
        f"({n},{L})": build_partition(n, L)
        for n in range(1, 7)
        for L in range(2, 2 * n + 2)
        if constructible(n, L)
    }
    parts.update({f"spread({n})": spread_partition(n) for n in (3, 4, 5)})
    return parts


ORACLE_PARTITIONS = _oracle_partitions()


@pytest.mark.parametrize("name", list(ORACLE_PARTITIONS))
def test_bases_equal_the_oracle(name):
    part = ORACLE_PARTITIONS[name]
    got = []
    for c in part.classes:
        got.append(basis_from_involutions(c.members))
        same_basis(got[-1], per_class_basis(list(c.members)))
    if part.n <= 4:  # and as build_mub_set builds them
        for g, want in zip(build_mub_set(part).bases, got):
            same_basis(g, want)


@pytest.mark.parametrize("name", list(ORACLE_PARTITIONS))
def test_kept_exact_form_reproduces_the_basis(name):
    # the codes give the vectors bit for bit and, through five tokens (the
    # writer of bases.json), the text complex_json writes; the kept table is
    # a fresh _group
    for cls in ORACLE_PARTITIONS[name].classes:
        b = common_eigenbasis(cls)
        assert _amplitudes(b.codes)[b.codes].tobytes() == b.vectors.tobytes()
        text = _tokens_json(_amplitudes(b.codes), b.codes.T)
        assert text == complex_json(b.vectors.T) == json.dumps(complex_lists(b.vectors.T))
        for kept, fresh in zip(b.group, _group(b.generators), strict=True):
            assert kept.dtype == fresh.dtype and np.array_equal(kept, fresh)


def test_n9_bases_build_in_bounded_memory():
    # the check holds [generator, row, column] arrays, 2.4 MB at n = 9; a
    # check of every member (oracles.member_check) holds [member, row,
    # column] arrays, 134 MB each, and peaks at about 580 MB here
    import os
    import subprocess
    import sys

    code = (
        "import resource\n"
        "from mubforge.classes import build_classes_Ln\n"
        "from mubforge.mub import common_eigenbasis\n"
        "bases = [common_eigenbasis(c) for c in build_classes_Ln(9, 3).classes]\n"
        "print(len(bases), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    count, peak_kb = map(int, out.stdout.split())
    assert count == 3
    assert peak_kb < 200 * 1024


def _check_arrays(members, basis):
    """The (support, phase, signs) arrays of the member check, read back
    from a built basis. Their columns are codes, bit i for generator g_i,
    so column k, whose label has bit n-1-i for g_i, is code row_mask(k)."""
    codes = row_mask(np.arange(basis.d), basis.d.bit_length() - 1)
    support = np.zeros((basis.d, basis.d), dtype=bool)
    phase = np.zeros((basis.d, basis.d), dtype=np.int8)
    support[:, codes] = basis.vectors != 0
    quarter = np.rint(np.angle(basis.vectors) / (np.pi / 2)).astype(int) % 4
    phase[:, codes] = np.where(basis.vectors != 0, quarter, 0)
    signs = np.empty((len(members), basis.d), dtype=np.int64)
    signs[:, codes] = np.array(sign_patterns(members, basis)).T
    return support, phase, signs


@pytest.mark.parametrize("name", list(ORACLE_PARTITIONS))
def test_generator_check_and_member_oracle_accept_every_basis(name):
    # the n-generator check and the per-member route it replaced both pass
    # every built basis, and the signs the check derives are those read
    # densely off the vectors
    for cls in ORACLE_PARTITIONS[name].classes:
        members = list(cls.members)
        basis = basis_from_involutions(members)
        support, phase, signs = _check_arrays(members, basis)
        combos = np.array(_generators(members)[1])
        got = _check_eigenvectors(members, combos, basis.group, support, phase)
        assert np.array_equal(got, signs)
        member_check(members, support, phase, signs)


def test_member_check_catches_a_corrupted_entry():
    part = spread_partition(3)
    bases = build_mub_set(part).bases
    d = part.d
    rng = np.random.default_rng(12)
    for cls, basis in zip(part.classes, bases):
        members = list(cls.members)
        support, phase, signs = _check_arrays(members, basis)
        combos = np.array(_generators(members)[1])

        def rejected(members=members, support=support, phase=phase):
            # by the generator check and by the per-member oracle alike
            with pytest.raises(DiagonalizationError):
                _check_eigenvectors(members, combos, basis.group, support, phase)
            with pytest.raises(DiagonalizationError):
                member_check(members, support, phase, signs)

        # the built basis passes both
        _check_eigenvectors(members, combos, basis.group, support, phase)
        member_check(members, support, phase, signs)
        for _ in range(5):
            r, t = rng.integers(d), rng.integers(d)
            bad = phase.copy()
            bad[r, t] = (bad[r, t] + rng.integers(1, 4)) % 4
            rejected(phase=bad)
            bad = support.copy()
            bad[r, t] = ~bad[r, t]
            rejected(support=bad)
        # in every class, the Z class included: an all-zero column, and a
        # column whose first nonzero entry is rephased
        bad = support.copy()
        bad[:, 0] = False
        rejected(support=bad)
        bad = phase.copy()
        bad[support[:, 0].argmax(), 0] = 1
        rejected(phase=bad)
        # columns 0 and d/2 swapped: their codes differ under the last
        # generator alone, so each column keeps its form and every other
        # generator's sign
        cols = np.arange(d)
        cols[[0, d // 2]] = [d // 2, 0]
        rejected(support=support[:, cols], phase=phase[:, cols])
        # a member that is +-i times the product of its generators
        for k in (1, 3):
            bad = list(members)
            bad[5] = replace(bad[5], phase=(bad[5].phase + k) % 4)
            rejected(members=bad)


@pytest.mark.parametrize("n", range(1, 11))
def test_parity_fold_equals_the_bit_loop(n):
    masks = np.arange(1 << 2 * n)
    got = parity(masks)
    assert got.dtype == masks.dtype
    assert np.array_equal(got, parity_loop(masks))
    for dtype in (np.int8, np.uint8, np.int32, np.uint64):
        small = np.arange(min(1 << 2 * n, 127), dtype=dtype)
        assert np.array_equal(parity(small), parity_loop(small))


@pytest.mark.parametrize("n", range(1, 11))
def test_row_mask_table_equals_the_bit_loop(n):
    masks = range(1 << n)
    want = [row_mask_loop(m, n) for m in masks]
    assert [row_mask(m, n) for m in masks] == want
    assert all(type(row_mask(m, n)) is int for m in (0, (1 << n) - 1))
    assert row_mask(np.arange(1 << n), n).tolist() == want


def exact_flags(bases, part):
    """{(j, k): the exact check rejects bases j and k as a pair}, for every
    pair j < k, each pair checked alone."""
    return {
        (j, k): _raises_unbiasedness(MubSet((bases[j], bases[k]), None, part, None))
        for j, k in combinations(range(len(bases)), 2)
    }


def _raises_unbiasedness(ms):
    try:
        _check_unbiased(ms)
    except UnbiasednessError:
        return True
    return False


def stabilizes_up_to_sign(message, *bases):
    """The Pauli an UnbiasednessError names, made Hermitian, maps every
    vector of every one of the bases to +-itself, densely."""
    x, z = (int(m, 16) for m in re.findall(r"[XZ]:(0x[0-9a-f]+)", message))
    n = bases[0].d.bit_length() - 1
    P = to_dense(PauliTerm(n, x, z, (x & z).bit_count() % 4))
    for B in bases:
        signs = np.einsum("ij,ik,kj->j", B.vectors.conj(), P, B.vectors)
        assert np.allclose(np.abs(signs), 1, atol=1e-12)
        assert np.allclose(P @ B.vectors, B.vectors * signs, atol=1e-12)


def _unbiasedness_cases():
    """Every constructible (n, L) with n <= 6, the spreads for n = 2..6,
    the spread(3) partition with class 2 again at 5 and class 6 again at 8,
    and with class 1 again at 2 and class 0 at 3, and Ln(9, 3), where one
    Pauli lies in all three classes."""
    from mubforge.cli import build_partition, constructible

    cases = {
        f"({n},{L})": lambda n=n, L=L: build_partition(n, L)
        for n in range(1, 7)
        for L in range(2, 2 * n + 2)
        if constructible(n, L)
    }
    cases.update({f"spread({n})": lambda n=n: spread_partition(n) for n in range(2, 7)})

    def repeated_spread(order):
        c = spread_partition(3).classes
        return lambda: replace(spread_partition(3), classes=tuple(c[i] for i in order))

    cases["spread(3) repeated"] = repeated_spread([0, 1, 2, 3, 4, 2, 6, 7, 6])
    # pairs (1,2) and (0,3): the first in (j, k) order is not the first by k
    cases["spread(3) nested"] = repeated_spread([0, 1, 1, 0, 4, 5, 6, 7, 8])
    cases["(9,3)"] = lambda: build_classes_Ln(9, 3)
    return cases


UNBIASEDNESS_CASES = _unbiasedness_cases()


@pytest.mark.parametrize("name", list(UNBIASEDNESS_CASES))
def test_exact_unbiasedness_flags_the_pairs_the_dense_loop_does(name):
    part = UNBIASEDNESS_CASES[name]()
    bases = [common_eigenbasis(c) for c in part.classes]
    dense = {jk: dev > 1e-8 for jk, dev in pair_deviations(bases).items()}
    assert exact_flags(bases, part) == dense
    failing = [jk for jk, bad in dense.items() if bad]
    if not failing:
        assert build_mub_set(part).L == len(bases)
        return
    with pytest.raises(UnbiasednessError) as err:
        _check_unbiased(MubSet(tuple(bases), None, part, None))
    j, k = failing[0]
    assert str(err.value).startswith(f"unbiasedness violated at bases ({j},{k}): ")
    stabilizes_up_to_sign(str(err.value), bases[j], bases[k])
    if name == "(9,3)":  # one Pauli in all three bases: every pair fails
        assert failing == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("block_bytes", [1, None])
@pytest.mark.parametrize("name", ["(2,3)", "(3,7)", "(5,5)", "(6,13)", "spread(5)"])
def test_stacked_unbiasedness_equals_the_pairwise_loop(monkeypatch, name, block_bytes):
    # the deviation is measured on first read, in stacked products
    if block_bytes is not None:
        monkeypatch.setattr(mubforge.mub, "BLOCK_BYTES", block_bytes)
    part = ORACLE_PARTITIONS[name]
    ms = build_mub_set(part)
    assert "deviation" not in vars(ms)
    want = raw_unbiasedness_deviation(ms.bases)
    assert ms.deviation == want
    assert vars(ms)["deviation"] == want


@pytest.mark.parametrize("block_bytes", [1, None])
def test_stacked_unbiasedness_names_the_first_failing_pair(monkeypatch, block_bytes):
    # BLOCK_BYTES sizes the products of the measurement alone: the build
    # reads keys, and names the same pair at any block size
    if block_bytes is not None:
        monkeypatch.setattr(mubforge.mub, "BLOCK_BYTES", block_bytes)
    spread = spread_partition(3)
    c = spread.classes
    # class 2 again at 5 and class 6 again at 8: pairs (2,5) and (6,8) fail
    part = replace(spread, classes=c[:5] + (c[2], c[6], c[7], c[6]))
    bases = [common_eigenbasis(cls) for cls in part.classes]
    failing = [jk for jk, dev in pair_deviations(bases).items() if dev > 1e-8]
    assert failing == [(2, 5), (6, 8)]
    with pytest.raises(UnbiasednessError) as err:
        build_mub_set(part)
    assert str(err.value).startswith("unbiasedness violated at bases (2,5): ")
    stabilizes_up_to_sign(str(err.value), bases[2], bases[5])
    # (6,3) classes share members, so its bases are not unbiased
    part = build_classes_Ln(6, 3)
    bases = [common_eigenbasis(cls) for cls in part.classes]
    failing = [jk for jk, dev in pair_deviations(bases).items() if dev > 1e-8]
    assert failing[0] == (0, 1)
    with pytest.raises(UnbiasednessError) as err:
        build_mub_set(part)
    assert str(err.value).startswith("unbiasedness violated at bases (0,1): ")
    stabilizes_up_to_sign(str(err.value), bases[0], bases[1])


def test_only_generate_measures_the_deviation(tmp_path, monkeypatch):
    # the sweep, the minimizer and the Wigner bound build sets without
    # reading the float deviation; generate reads it once, for
    # validation.json, bases.json and --tol, and writes the fixture's bytes
    from mubforge.cli import main
    from mubforge.entropy import minimize_avg_entropy, sweep_max_eigen
    from mubforge.wigner import point_levels, wigner_entropy_bound

    def unmeasured(ms):
        raise AssertionError("the float deviation was measured")

    with monkeypatch.context() as m:
        m.setattr(MubSet, "deviation", property(unmeasured))
        ms = build_mub_set(build_classes_2n1(3))
        sweep_max_eigen(ms)
        minimize_avg_entropy(ms, math.inf, restarts=2)
        bases = complete_mub_bases(3)
        wigner_entropy_bound(bases, point_levels(bases))
    reads, measure = [], MubSet.deviation.func
    counted = cached_property(lambda ms: reads.append(ms) or measure(ms))
    counted.__set_name__(MubSet, "deviation")
    monkeypatch.setattr(MubSet, "deviation", counted)
    out = tmp_path / "generate"
    assert main(["generate", "--n", "3", "--L", "7", "--out", str(out)]) == 0
    assert len(reads) == 1
    fixture = Path(__file__).parent / "fixtures" / "generate_n3_L7"
    for name in ("partition.json", "validation.json", "bases.json", "unitary.json"):
        assert (out / name).read_bytes() == (fixture / name).read_bytes(), name
