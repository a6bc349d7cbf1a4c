import math

import numpy as np
import pytest

from mubforge.classes import build_classes_2n1
from mubforge.entropy import (
    LEVEL_TOL,
    minimize_avg_entropy,
    pvec_operator,
    sweep_max_eigen,
)
from mubforge.mub import MubSet, basis_matrices, build_mub_set
from mubforge.pauli import PauliTerm, apply, commutes
from mubforge.wigner import (
    GF,
    ROUTE_TOL,
    _distinct_rows,
    _point_strings,
    complete_mub_bases,
    line_indices_through,
    phase_space_csv,
    point_levels,
    point_operator,
    wigner_entropy_bound,
)
from oracles import all_point_operators, relabeled, striations, wigner_max, wigner_value


def test_gf4_multiplication():
    # x * x = x + 1 under x^2 + x + 1 (by-hand polynomial reduction)
    gf = GF(2)
    w = 0b10
    assert gf.mul(w, w) == w ^ 1
    assert gf.mul(w, w ^ 1) == 1  # x * (x+1) = x^2 + x = 1


def test_gf_axioms():
    for n in (1, 2, 3, 4, 5, 6):
        gf = GF(n)
        d = gf.order
        for a in range(d):
            assert gf.mul(a, 1) == a
            assert gf.add(a, a) == 0
        # all nonzero elements have multiplicative order dividing d - 1
        for a in range(1, d):
            power = 1
            for _ in range(d - 1):
                power = gf.mul(power, a)
            assert power == 1
        # every nonzero element has one inverse, zero has none
        for a in range(d):
            assert [gf.mul(a, b) for b in range(d)].count(1) == (a != 0)


def test_gf_distributivity_spot():
    gf = GF(3)
    rng = np.random.default_rng(59)
    for _ in range(100):
        a, b, c = (int(x) for x in rng.integers(0, 8, size=3))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_striations_partition(n):
    d = 2**n
    strs = striations(n)
    assert len(strs) == d + 1
    all_points = {(x, y) for x in range(d) for y in range(d)}
    for s in strs:
        assert len(s.lines) == d
        seen = set()
        for line in s.lines:
            assert len(line.points) == d
            seen.update(line.points)
        assert seen == all_points


@pytest.mark.parametrize("n", [1, 2])
def test_two_points_share_exactly_one_line(n):
    d = 2**n
    strs = striations(n)
    pts = [(x, y) for x in range(d) for y in range(d)]
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            count = sum(
                1
                for s in strs
                for line in s.lines
                if p in line.points and q in line.points
            )
            assert count == 1, (p, q, count)


def test_line_indices_through_consistent():
    n = 2
    strs = striations(n)
    d = 4
    for x in range(d):
        for y in range(d):
            idx = line_indices_through(n, (x, y))
            assert len(idx) == d + 1
            for j, s in enumerate(strs):
                assert (x, y) in s.lines[idx[j]].points


@pytest.fixture(scope="module")
def ms_d2():
    return build_mub_set(build_classes_2n1(1))


@pytest.fixture(scope="module")
def ms_d4():
    return build_mub_set(build_classes_2n1(2))


@pytest.mark.parametrize("fix", ["ms_d2", "ms_d4"])
def test_point_operator_traces(fix, request):
    ms = request.getfixturevalue(fix)
    d = ms.d
    ops = all_point_operators(ms)
    assert len(ops) == d * d
    for A in ops:
        assert abs(np.trace(A.matrix) - 1) < 1e-12
        assert np.max(np.abs(A.matrix - A.matrix.conj().T)) < 1e-12
    for i, A in enumerate(ops):
        for B in ops[i:]:
            want = d if A.alpha == B.alpha else 0.0
            got = np.trace(A.matrix @ B.matrix).real
            assert abs(got - want) < 1e-10


def test_point_operator_orthogonality_random_assignment_d4(ms_d4):
    # any bijection of lines onto elements, per striation, gives a net
    rng = np.random.default_rng(61)
    assign = [tuple(rng.permutation(4).tolist()) for _ in range(5)]
    ops = all_point_operators(relabeled(ms_d4, assign))
    for i, A in enumerate(ops):
        for B in ops[i:]:
            want = 4 if A.alpha == B.alpha else 0.0
            assert abs(np.trace(A.matrix @ B.matrix).real - want) < 1e-10


def test_point_operator_orthogonality_d8():
    bases = complete_mub_bases(3)
    assert bases.deviation < 1e-8
    ops = all_point_operators(bases)
    rng = np.random.default_rng(67)
    idx = rng.choice(len(ops), size=12, replace=False)
    for i in idx:
        assert abs(np.trace(ops[i].matrix @ ops[i].matrix).real - 8) < 1e-9
        for j in idx:
            if i < j:
                got = np.trace(ops[i].matrix @ ops[j].matrix).real
                assert abs(got) < 1e-9


def test_point_operator_requires_complete_set(ms_d4):
    with pytest.raises(ValueError):
        point_operator(ms_d4.bases[:3], (0, 0))


def test_wigner_values_maximally_mixed(ms_d4):
    d = 4
    rho = np.eye(d) / d
    for A in all_point_operators(ms_d4):
        assert abs(wigner_value(A, rho) - 1 / d**2) < 1e-12


def test_wigner_sums_to_one_random_states(ms_d4):
    rng = np.random.default_rng(71)
    ops = all_point_operators(ms_d4)
    for _ in range(10):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = M @ M.conj().T
        rho /= np.trace(rho).real
        total = sum(wigner_value(A, rho) for A in ops)
        assert abs(total - 1) < 1e-10


def test_point_operators_resolve_identity(ms_d4):
    # sum_alpha A_alpha = d I by line counting
    total = sum(A.matrix for A in all_point_operators(ms_d4))
    assert np.max(np.abs(total - 4 * np.eye(4))) < 1e-10


def test_wigner_bound_equals_selector_route(ms_d4):
    net = wigner_entropy_bound(ms_d4, point_levels(ms_d4))
    assert abs(net["bits"] - net["selector_route_bits"]) < 1e-12
    assert abs(net["bits"] + math.log2((4 * net["w_max"] + 1) / 5)) < 1e-12


def test_wigner_bound_identity_with_pvec(ms_d4):
    for A in all_point_operators(ms_d4)[:4]:
        P = 5 * pvec_operator(ms_d4, A.b).matrix
        assert np.max(np.abs(A.matrix + np.eye(4) - P)) < 1e-12


@pytest.mark.parametrize("fix", ["ms_d2", "ms_d4"])
def test_wigner_bound_vs_full_sweep(fix, request):
    # phase-point strings reach the full-sweep maximum for these sets
    ms = request.getfixturevalue(fix)
    full = sweep_max_eigen(ms)
    wb = wigner_entropy_bound(ms, point_levels(ms))["bits"]
    assert wb <= full.min_avg_entropy + 1e-9
    assert abs(wb - full.min_avg_entropy) < 1e-9


def test_wigner_bound_d2_bloch_oracle(ms_d2):
    # analytic: lambda_max = (1 + sqrt(3)/3 * 3/2)/2 ... computed from the
    # Bloch picture: (1/3)(3/2 + |v|/2) with |v| = sqrt(3)
    want = -math.log2(0.5 + math.sqrt(3) / 6)
    assert abs(wigner_entropy_bound(ms_d2, point_levels(ms_d2))["bits"] - want) < 1e-12


def test_wigner_max_vs_value(ms_d4):
    A = all_point_operators(ms_d4)[5]
    wmax = wigner_max(A)
    rng = np.random.default_rng(73)
    for _ in range(50):
        x = rng.normal(size=8)
        psi = x[:4] + 1j * x[4:]
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        assert wigner_value(A, rho) <= wmax + 1e-10


def test_complete_mub_bases_sizes():
    for n in (1, 2, 3, 4, 5, 6):
        bases = complete_mub_bases(n)
        assert isinstance(bases, MubSet)
        assert bases.L == 2**n + 1
        # cycled 2n+1 classes up to n = 2, the spread (no cycle) above
        assert (bases.U is None) == (n >= 3)
        assert bases.deviation < 1e-8


@pytest.mark.parametrize("n", [3, 4])
def test_phase_space_csv_same_for_mub_set_and_matrices(n):
    ms = complete_mub_bases(n)
    want = phase_space_csv(point_levels(basis_matrices(ms)))
    assert phase_space_csv(point_levels(ms)) == want


def test_phase_space_csv_shape(ms_d2):
    text = phase_space_csv(point_levels(ms_d2))
    rows = text.strip().split("\n")
    assert rows[0] == "alpha_x,alpha_y,lambda_max,W_max"
    assert len(rows) == 1 + 4


def test_shared_levels_give_the_same_report(ms_d4):
    levels = point_levels(ms_d4)
    assert levels.shape == (16,)
    rows = [r.split(",") for r in phase_space_csv(levels).splitlines()[1:]]
    assert [(int(x), int(y)) for x, y, _, _ in rows] == [divmod(i, 4) for i in range(16)]
    assert [float(lam) for _, _, lam, _ in rows] == [round(x, 12) for x in levels]


def _dense_levels(bases):
    ops = all_point_operators(bases)
    return np.array([np.linalg.eigvalsh(A.matrix)[-1] for A in ops])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_levels_match_the_point_operators(n):
    ms = complete_mub_bases(n)
    dense = _dense_levels(ms)
    assert np.max(np.abs(point_levels(ms) - dense)) < ROUTE_TOL


def test_kernel_levels_match_under_a_random_assignment(ms_d4):
    # the unreduced route of raw bases, on the net of a random bijection
    rng = np.random.default_rng(79)
    assign = [tuple(rng.permutation(4).tolist()) for _ in range(5)]
    bases = relabeled(ms_d4, assign)
    dense = _dense_levels(bases)
    levels = point_levels(bases)
    assert np.max(np.abs(levels - dense)) < ROUTE_TOL
    assert not np.allclose(levels, point_levels(ms_d4))  # the net matters
    net = wigner_entropy_bound(bases, levels=levels)
    assert abs(net["w_max"] - dense.max() / 4) < ROUTE_TOL


@pytest.mark.parametrize("n", [2, 3])
def test_top_point_is_the_first_within_level_tol(n):
    # several points share the top level up to rounding; the first wins
    ms = complete_mub_bases(n)
    levels = point_levels(ms)
    ties = np.flatnonzero(levels >= levels.max() - LEVEL_TOL)
    assert len(ties) > 1
    top = wigner_entropy_bound(ms, levels=levels)["alpha"]
    assert top == divmod(int(ties[0]), 2**n)


def test_corrupted_top_level_fails_the_dense_check(ms_d4):
    # the kernel level at the maximum is checked against the dense point
    # operator, so a level off there is refused
    levels = point_levels(ms_d4)
    levels[int(np.argmax(levels))] += 1e-6
    with pytest.raises(RuntimeError, match="point operator"):
        wigner_entropy_bound(ms_d4, levels=levels)


def test_n3_minimizer_lies_below_the_phase_point_value():
    # the phase-point value of one net is no lower bound on the average
    # min-entropy: a minimized state goes below it at n = 3
    ms = complete_mub_bases(3)
    _, h = minimize_avg_entropy(ms, math.inf, restarts=64, seed=0)
    net = wigner_entropy_bound(ms, point_levels(ms))
    assert round(net["bits"], 9) == 1.386579150
    assert h < 1.3594 < net["bits"] - 0.02


def _label_image(basis, W):
    """Where W sends each label of basis: a label is its sign code, so to
    the label with bit n-1-i flipped for every generator g_i W anticommutes
    with."""
    n = len(basis.generators)
    flips = sum(
        (not commutes(W, g)) << (n - 1 - i) for i, g in enumerate(basis.generators)
    )
    return [b ^ flips for b in range(basis.d)]


def _paulis(n, sample=None):
    d = 2**n
    if sample is None:
        ws = range(d * d)
    else:
        ws = np.random.default_rng(83).choice(d * d, sample, replace=False)
    return [PauliTerm(n, int(w) % d, int(w) // d, 0) for w in ws]


@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None), (4, 24)])
def test_a_pauli_permutes_every_basis_by_the_codes(n, sample):
    ms = complete_mub_bases(n)
    for W in _paulis(n, sample):
        for B in ms.bases:
            image = _label_image(B, W)
            # |<image(b)| W |b>| = 1: W|b> is the image vector up to phase
            ov = np.abs(B.vectors.conj().T @ apply(W, B.vectors))
            assert np.max(np.abs(ov[image, range(ms.d)] - 1)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_representatives_are_images_under_the_one_pauli(n):
    ms = complete_mub_bases(n)
    images = [[_label_image(B, W) for B in ms.bases] for W in _paulis(n)]
    strings = np.random.default_rng(89).integers(0, ms.d, size=(20, ms.L))
    for b, rep in zip(strings, ms.pauli_labels.representatives(strings)):
        hits = [img for img in images if img[0][b[0]] == img[1][b[1]] == 0]
        assert len(hits) == 1
        assert rep.tolist() == [hits[0][j][b[j]] for j in range(ms.L)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_levels_match_the_unreduced_route(n):
    ms = complete_mub_bases(n)
    raw = point_levels(basis_matrices(ms))
    assert np.max(np.abs(point_levels(ms) - raw)) < ROUTE_TOL


@pytest.mark.parametrize("n", [3, 4, 6])
def test_phase_point_strings_fall_into_d_orbits(monkeypatch, n):
    import mubforge.wigner

    kernel, solved = mubforge.wigner._eigmax_chunks, []

    def counted(projs, strings):
        solved.append(len(strings))
        return kernel(projs, strings)

    monkeypatch.setattr(mubforge.wigner, "_eigmax_chunks", counted)
    point_levels(complete_mub_bases(n))
    assert solved == [2**n]  # d^2 strings, one kernel call, one per orbit


@pytest.mark.parametrize(
    "rows",
    [
        np.random.default_rng(5).integers(0, 3, size=(200, 4)),  # many repeats
        np.random.default_rng(6).integers(0, 8, size=(50, 6)),
        np.array([[3, 1, 2]]),
        np.full((7, 5), 4),
    ],
    ids=["small-alphabet", "wide", "one-row", "all-equal"],
)
def test_distinct_rows_equal_np_unique(rows):
    got, back = _distinct_rows(rows)
    want, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert got.tolist() == want.tolist()
    assert back.tolist() == inverse.ravel().tolist()
    assert (got[back] == rows).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_point_strings_follow_the_lines_through_each_point(n):
    d = 2**n
    want = [line_indices_through(n, divmod(i, d)) for i in range(d * d)]
    assert _point_strings(n).tolist() == [list(b) for b in want]


def test_gf_table_is_the_multiplication():
    for n in range(1, 7):
        gf = GF(n)
        d = gf.order
        table = gf.table()
        assert table.shape == (d, d)
        assert table.tolist() == [[gf.mul(a, b) for b in range(d)] for a in range(d)]


def spread_loop(n):
    """The class masks of spread_partition built element by element with
    GF.mul, as before it was table-driven (oracle)."""
    gf = GF(n)
    d = gf.order

    def trace(c):
        t = 0
        for _ in range(n):
            t, c = t ^ c, gf.mul(c, c)
        return t & 1

    def s_apply(a, v):  # S_a v from the columns S_a x^j
        out = 0
        for j in range(n):
            if v >> j & 1:
                col = [trace(gf.mul(a, gf.mul(1 << i, 1 << j))) for i in range(n)]
                out ^= sum(bit << i for i, bit in enumerate(col))
        return out

    masks = [[(v, s_apply(a, v)) for v in range(1, d)] for a in range(d)]
    masks.append([(0, z) for z in range(1, d)])
    return [[PauliTerm(n, x, z, (x & z).bit_count() % 4) for x, z in c] for c in masks]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spread_partition_equals_the_element_loop(n):
    from mubforge.wigner import spread_partition

    part = spread_partition(n)
    assert [list(c.members) for c in part.classes] == spread_loop(n)
    assert {c.singleton_index for c in part.classes} == {None}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_label_tables_equal_the_generator_loop(n):
    from mubforge.mub import PauliLabels

    ms = complete_mub_bases(n)
    d = ms.d
    w = np.arange(d * d)
    wx, wz = w % d, w // d
    bits = lambda v: np.array([bin(int(u)).count("1") & 1 for u in v])  # noqa: E731
    want = [
        sum(
            bits((wx & g.zmask) ^ (wz & g.xmask)) << (n - 1 - i)
            for i, g in enumerate(B.generators)
        )
        for B in ms.bases
    ]
    tables = PauliLabels.of(ms)
    assert tables.tau.dtype == np.min_scalar_type(d - 1)
    assert tables.tau.tolist() == [t.tolist() for t in want]


def test_pauli_tables_are_built_once_per_set(monkeypatch):
    from mubforge.mub import PauliLabels

    built, of = [], PauliLabels.of
    counted = staticmethod(lambda ms: built.append(ms) or of(ms))
    monkeypatch.setattr(PauliLabels, "of", counted)
    ms = complete_mub_bases(3)
    first = point_levels(ms)
    assert np.array_equal(point_levels(ms), first)
    ms.pauli_labels.representatives(np.zeros((1, ms.L), dtype=np.int64))
    assert built == [ms]
