"""The selector sweep: orbits of the Paulis, the cycle unitary, the
declared symmetries and complex conjugation, tolerance-aware levels and
ties, input checks. The unreduced kernel (raw bases, or a MubSet swept with
on_chunk) is the oracle for the reduced one, and orbits found by brute
force over all d^L strings, from dense matrices, are the oracle for the
orbit labelling."""

import os
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubforge import entropy, mub, orbits
from mubforge.classes import build_classes_2n1
from mubforge.cli import build_partition, constructible
from mubforge.entropy import LEVEL_TOL, sample_max_eigen, sweep_max_eigen
from mubforge.mub import build_mub_set, verify_cycle
from mubforge.orbits import orbit_maps
from mubforge.pauli import PauliTerm, to_dense
from mubforge.wigner import spread_partition
from oracles import (
    bfs_orbit_minima,
    carried_by,
    declared_actions,
    dense_conjugation,
    dense_label_map,
    digit_action_step,
    digit_conjugation_step,
    digit_orbit_minima,
    digit_orbit_step,
    iter_sweep_rows,
    set_by_hand,
)

# every constructible set with at most 4096 strings (d = 64, L = 2 left out
# for time)
SMALL_SETS = [
    (n, L)
    for n in range(1, 5)
    for L in range(2, 13)
    if constructible(n, L) and 2 ** (n * L) <= 4096
]


def _ignore(digits, lam):
    pass


def unreduced(ms):
    return sweep_max_eigen(ms, on_chunk=_ignore)


def assert_same_sweep(a, b):
    assert abs(a.lambda_star - b.lambda_star) < 1e-12
    assert a.b_star == b.b_star
    assert a.count == b.count


def oracle_bins(lams, weights=None):
    """Single-linkage levels of plain lists: (smallest value, total weight)
    of the values that chain within LEVEL_TOL, each value weighing 1
    unless weights are given."""
    pairs = sorted(zip(lams, [1] * len(lams) if weights is None else weights))
    out = [list(pairs[0])]
    for (prev, _), (x, w) in zip(pairs, pairs[1:]):
        if x - prev > LEVEL_TOL:
            out.append([x, 0])
        out[-1][1] += w
    return [tuple(b) for b in out]


def assert_same_levels(a, b):
    """Two oracle_bins lists with the same weights, their values to 1e-12."""
    assert [n for _, n in a] == [n for _, n in b]
    assert all(abs(x - y) < 1e-12 for (x, _), (y, _) in zip(a, b))


KERNEL = entropy._eigmax_chunks


def kernel_calls(monkeypatch, ms, **kwargs):
    """sweep_max_eigen's result and, for every kernel call, the digits and
    the lambdas it yielded, each joined over its blocks."""
    calls = []

    def recording(*args, **kw):
        blocks = []
        calls.append(blocks)
        for part in KERNEL(*args, **kw):
            blocks.append(part)
            yield part

    monkeypatch.setattr(entropy, "_eigmax_chunks", recording)
    res = sweep_max_eigen(ms, **kwargs)
    return res, [tuple(np.concatenate(a) for a in zip(*b)) for b in calls]


@pytest.fixture(scope="module", params=SMALL_SETS, ids=lambda p: f"n{p[0]}-L{p[1]}")
def small_ms(request):
    return build_mub_set(build_partition(*request.param))


def test_small_sets_cover_the_figure_sets():
    assert {(2, 2), (2, 3), (2, 4), (2, 5), (3, 3)} <= set(SMALL_SETS)


def every_lambda(ms):
    """The unreduced sweep's result and the lambda of each of its strings."""
    lams = []
    res = sweep_max_eigen(ms, on_chunk=lambda digits, lam: lams.append(lam))
    return res, np.concatenate(lams)


def assert_reduction_keeps_levels(monkeypatch, ms, lams):
    """The reduced sweep solves the smallest string of every orbit over all
    d^L strings (brute_force_orbits), and its lambdas, each weighted by its
    orbit's size, chain into the levels of lams, every string's lambda: the
    reduction loses no level. Returns the reduced sweep's result."""
    d, L = ms.d, ms.L
    res, calls = kernel_calls(monkeypatch, ms)
    digits, kept = calls[0]
    low, size = brute_force_orbits(ms)
    minima = np.flatnonzero(low == np.arange(d**L))
    assert (digits @ d ** np.arange(L - 1, -1, -1)).tolist() == minima.tolist()
    assert_same_levels(
        oracle_bins(kept.tolist(), size[minima].tolist()), oracle_bins(lams.tolist())
    )
    return res


def test_reduced_matches_unreduced(monkeypatch, small_ms):
    full, lams = every_lambda(small_ms)
    res = assert_reduction_keeps_levels(monkeypatch, small_ms, lams)
    assert res.count == small_ms.d**small_ms.L
    assert_same_sweep(res, full)


def test_raw_sweep_matches_row_oracle(monkeypatch, small_ms):
    # raw bases: plain lexicographic tie rule, recomputed from every row of
    # the unreduced kernel
    rows = list(iter_sweep_rows(small_ms))
    top = max(lam for _, lam in rows)
    res = sweep_max_eigen(small_ms.bases)
    assert res.lambda_star == top
    assert res.b_star == min(b for b, lam in rows if lam >= top - LEVEL_TOL)
    # the reduced sweep's levels are the same, each kept string standing
    # for d^2 times its orbit's size in the digit-row walk
    _, calls = kernel_calls(monkeypatch, small_ms)
    digits, kept = calls[0]
    want, weights = digit_orbit_minima(small_ms)
    assert np.array_equal(digits, want)
    assert_same_levels(
        oracle_bins(kept.tolist(), weights.tolist()),
        oracle_bins([lam for _, lam in rows]),
    )


def test_reduced_b_star_prefers_cycle_strings(small_ms):
    # b* is a string the cycle unitary maps to itself when one attains
    # lambda*; otherwise the smallest maximiser, which starts with (0, 0)
    res = sweep_max_eigen(small_ms)
    cyc = {tuple(r) for r in entropy._cycle_strings(small_ms).tolist()}
    rows = dict(iter_sweep_rows(small_ms))
    top_cyc = sorted(b for b in cyc if rows[b] >= res.lambda_star - LEVEL_TOL)
    if top_cyc:
        assert res.b_star == top_cyc[0]
    else:
        top = res.lambda_star - LEVEL_TOL
        assert res.b_star == min(b for b, lam in rows.items() if lam >= top)
        assert res.b_star[:2] == (0, 0)


@pytest.mark.parametrize("n, L, orbits", [(2, 5, 4), (3, 7, 440)])
def test_reduced_sweep_solves_one_string_per_orbit(monkeypatch, n, L, orbits):
    # one string per orbit of Paulis x AGL(1, L) x K (the cycle unitary, the
    # multiplier and complex conjugation), then the strings the cycle
    # unitary fixes; the raw route solves all d^L
    ms = build_mub_set(build_partition(n, L))
    solved = []
    kernel = entropy._eigmax_chunks

    def counting(*args, **kwargs):
        for digits, lam in kernel(*args, **kwargs):
            solved.append(len(lam))
            yield digits, lam

    monkeypatch.setattr(entropy, "_eigmax_chunks", counting)
    sweep_max_eigen(ms)
    cycle = len(entropy._cycle_strings(ms))
    assert sum(solved) == orbits + cycle
    if n == 2:
        solved.clear()
        sweep_max_eigen(ms.bases)
        assert sum(solved) == 4**5


def _dense_label_maps(ms):
    """The label permutation of every basis under X_i and Z_i, i < n, under
    complex conjugation, and under U and each declared symmetry where they
    permute the bases (dense_label_map), from dense matrices: (perm over all
    d^L strings) for each."""
    n, d, L = ms.provenance.n, ms.d, ms.L
    digits = (np.arange(d**L)[:, None] // d ** np.arange(L - 1, -1, -1)) % d
    powers = d ** np.arange(L - 1, -1, -1)
    maps = []
    for x, z in [(1 << i, 0) for i in range(n)] + [(0, 1 << i) for i in range(n)]:
        W = to_dense(PauliTerm(n, x, z, 0))
        per = [
            np.argmax(np.abs(B.vectors.conj().T @ W @ B.vectors), axis=0)
            for B in ms.bases
        ]
        maps.append(np.column_stack([per[j][digits[:, j]] for j in range(L)]))
    kappa = dense_conjugation(ms)
    maps.append(np.column_stack([kappa[j][digits[:, j]] for j in range(L)]))
    actions = [a for a in [ms.action, *declared_actions(ms)] if a is not None]
    for perm in (dense_label_map(ms, a) for a in actions):
        if perm is not None:  # None: the action leaves the set
            sigma, pi = perm
            moved = np.empty_like(digits)
            moved[:, sigma] = pi[np.arange(L), digits]
            maps.append(moved)
    return [m @ powers for m in maps]


def brute_force_orbits(ms):
    """Smallest member and size of the orbit of every one of the d^L strings
    under the group the dense label maps generate."""
    maps = _dense_label_maps(ms)
    low = np.arange(ms.d**ms.L)
    while True:
        nxt = low.copy()
        for m in maps:  # a generator and its inverse carry the same minimum
            np.minimum.at(nxt, m, low)
            nxt = np.minimum(nxt, nxt[m])
        if np.array_equal(nxt, low):
            return low, np.bincount(low, minlength=len(low))[low]
        low = nxt


def _five_of_seven():
    # five of the seven d = 8 classes: U leaves the sub-set
    part = build_classes_2n1(3)
    full = build_mub_set(part)
    return set_by_hand(full.bases[:5], full.U, replace(part, L=5, classes=part.classes[:5]))


def _orbit_set(kind, arg):
    return {
        "constructed": lambda: build_mub_set(build_partition(*arg)),
        "spread": lambda: build_mub_set(spread_partition(arg)),
        "five_of_seven": _five_of_seven,
    }[kind]()


ORBIT_SETS = [("constructed", p) for p in SMALL_SETS] + [
    ("spread", 1),
    ("spread", 2),
    ("five_of_seven", None),
]


def reduced_orbits(ms):
    """_orbit_minima over the reduced range with orbit_maps' permutations:
    the kept keys."""
    return entropy._orbit_minima(orbit_maps(ms), ms.d ** (ms.L - 2))


@pytest.mark.parametrize("kind, arg", ORBIT_SETS, ids=lambda a: str(a))
def test_orbit_walk_matches_brute_force_orbits(kind, arg):
    ms = _orbit_set(kind, arg)
    d, L = ms.d, ms.L
    low, _ = brute_force_orbits(ms)
    minima = np.flatnonzero(low == np.arange(d**L))
    assert np.all(minima < d ** (L - 2))  # every smallest member has prefix (0, 0)
    assert reduced_orbits(ms).tolist() == minima.tolist()


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 40),
    seeds=st.lists(st.integers(0, 2**32 - 1), max_size=4),
    cycles=st.booleans(),
)
def test_orbit_labels_match_a_breadth_first_walk(count, seeds, cycles):
    # random permutations, that in general do not commute; with cycles, one
    # long cycle over the keys in a random order, so a label travels far
    maps = [np.random.default_rng(s).permutation(count).astype(np.int32) for s in seeds]
    if cycles and seeds:
        order = np.random.default_rng(seeds[0] + 1).permutation(count)
        p = np.empty(count, dtype=np.int32)
        p[order] = np.roll(order, -1)
        maps.append(p)
    want_kept, _ = bfs_orbit_minima(maps, count)
    assert entropy._orbit_minima(maps, count).tolist() == want_kept


def test_orbit_labels_take_non_commuting_maps():
    # two transpositions that share a key do not commute, and join three keys
    a = np.array([1, 0, 2, 3], dtype=np.int32)
    b = np.array([0, 2, 1, 3], dtype=np.int32)
    assert not np.array_equal(a[b], b[a])
    assert entropy._orbit_minima([a, b], 4).tolist() == [0, 3]


@pytest.mark.parametrize("n, L", [(3, 7), (5, 5)])
def test_a_third_generator_in_the_group_changes_no_orbit(n, L):
    # f o k lies in the group the maps generate, and with k it generates f
    # again: the orbits stay the same, in any order of the maps
    ms = build_mub_set(build_partition(n, L))
    maps = orbit_maps(ms)
    f, k = maps[0], maps[-1]
    count = ms.d ** (L - 2)
    kept = entropy._orbit_minima(maps, count)
    for other in (maps + [f[k]], [f[k]] + maps[1:], maps[::-1]):
        assert np.array_equal(entropy._orbit_minima(other, count), kept)
    assert len(kept) == {(3, 7): 440, (5, 5): 3280}[(n, L)]


def test_a_reduced_range_int32_labels_cannot_index_is_refused_first(monkeypatch):
    # (5, 11) has 32^9 = 2^45 reduced strings: refused before any labelling
    ms = build_mub_set(build_partition(5, 11))
    monkeypatch.setattr(entropy, "orbit_maps", mock.Mock(side_effect=AssertionError))
    with pytest.raises(entropy.BudgetExceededError, match=r"32\^9 = 35184372088832"):
        sweep_max_eigen(ms, budget=10**17)


def test_orbit_step_is_the_identity_without_a_cycle():
    # no f among the maps: at most k, the XOR of every key with one mask
    for ms in (build_mub_set(spread_partition(2)), _five_of_seven()):
        keys = np.arange(ms.d ** (ms.L - 2))
        maps = orbit_maps(ms)
        assert len(maps) <= 1
        for p in maps:
            assert len(set((p ^ keys).tolist())) == 1


# every cycled set up to n = 6 whose reduced range, d^(L-2) strings, is at
# most 2^15; (6, 3) is left out: build_classes_Ln's classes are not unbiased
# there (the P2 defect of ROADMAP "Fix build_classes_Ln")
KEY_WALK_SETS = [
    ("constructed", (n, L))
    for n in range(1, 7)
    for L in range(2, 14)
    if constructible(n, L) and (2**n) ** (L - 2) <= 2**15 and (n, L) != (6, 3)
] + [s for s in ORBIT_SETS if s[0] != "constructed"]


def test_key_walk_sets_cover_the_largest_cycled_ranges():
    assert {("constructed", (3, 7)), ("constructed", (5, 5))} <= set(KEY_WALK_SETS)


@pytest.mark.parametrize("kind, arg", KEY_WALK_SETS, ids=lambda a: str(a))
def test_key_walk_keeps_the_strings_of_the_digit_row_walk(kind, arg):
    # the table maps on keys against g.b for U and each declared symmetry,
    # the conjugate read densely, and their Pauli representatives formed on
    # digit rows at every step
    ms = _orbit_set(kind, arg)
    d, L = ms.d, ms.L
    kept = reduced_orbits(ms)
    want, _ = digit_orbit_minima(ms)
    assert kept.tolist() == (want @ d ** np.arange(L - 1, -1, -1)).tolist()
    # strings solved: the cycle alone, with conjugation, with the
    # multiplier, and with both; conjugation halves what the cycle leaves
    solved = {(3, 7): (4688, 2344, 792, 440), (5, 5): (6560, 3280, 6560, 3280)}
    if arg in solved:
        got = [
            len(digit_orbit_minima(ms, conjugate=k, symmetries=m)[0])
            for m in (False, True)
            for k in (False, True)
        ]
        assert got == list(solved[arg]) and len(kept) == got[-1]


@pytest.mark.parametrize("kind, arg", KEY_WALK_SETS, ids=lambda a: str(a))
def test_conjugation_tables_match_the_dense_conjugate(kind, arg):
    # k, read off the generator masks, against the element of each basis
    # proportional to the conjugate of each element, found densely
    ms = _orbit_set(kind, arg)
    d, L = ms.d, ms.L
    powers = d ** np.arange(L - 1, -1, -1)
    keys = np.arange(d ** (L - 2))
    digits = (keys[:, None] // powers) % d
    want = digit_conjugation_step(ms)(digits) @ powers
    if L >= 3:
        m = orbits._conjugation_labels(ms)
        assert ((digits ^ m) @ powers).tolist() == want.tolist()
    # k is one of the maps unless it is the identity
    maps = orbit_maps(ms)
    assert np.array_equal(want, keys) or any(np.array_equal(p, want) for p in maps)


@pytest.mark.parametrize("kind, arg", KEY_WALK_SETS, ids=lambda a: str(a))
def test_conjugation_is_an_involution_that_commutes_with_the_cycle(kind, arg):
    # every map permutes the reduced range; k, the XOR with one mask, is an
    # involution that commutes with every map. The cycle and the multiplier
    # m generate AGL(1, L), not an abelian group: m f = f^g m, as m U m^-1
    # sends basis j to g (g^-1 j + 1) = j + g
    ms = _orbit_set(kind, arg)
    maps = orbit_maps(ms)
    keys = np.arange(ms.d ** (ms.L - 2))
    assert all(p.dtype == np.int32 for p in maps)
    for p in maps:
        assert np.array_equal(np.sort(p), keys)
    if ms.L >= 3 and orbits._conjugation_labels(ms).any():
        k = maps[-1]
        assert np.array_equal(k[k], keys)
        assert all(np.array_equal(p[k], k[p]) for p in maps)
    if ms.symmetry_permutations:
        (sigma, _), (f, m) = ms.symmetry_permutations[0], maps[:2]
        fg = keys
        for _ in range(sigma[1]):  # sigma(1) = g
            fg = f[fg]
        assert np.array_equal(m[f], fg[m])
    if ms.L >= 3:
        m = orbits._conjugation_labels(ms)
        assert m[0] == m[1] == 0


def test_a_conjugation_mask_off_by_one_bit_misses_the_dense_conjugate(
    monkeypatch, sweep_d8_L7
):
    # one bit of m_3 flipped: k is still an involution, an XOR, and is kept,
    # but it no longer sends a key to the Pauli representative of the
    # conjugate read densely. That dense check is what guards k
    ms, _ = sweep_d8_L7
    d, L = ms.d, ms.L
    powers = d ** np.arange(L - 1, -1, -1)
    keys = np.arange(d ** (L - 2))
    want = digit_conjugation_step(ms)((keys[:, None] // powers) % d) @ powers
    assert np.array_equal(orbit_maps(ms)[-1], want)
    labels = orbits._conjugation_labels

    def flipped(ms):
        m = labels(ms).copy()
        m[3] ^= 1
        return m

    monkeypatch.setattr(orbits, "_conjugation_labels", flipped)
    k = orbit_maps(ms)[-1]
    assert np.array_equal(k[k], keys)
    assert not np.array_equal(k, want)


@pytest.mark.parametrize("kind, arg", ORBIT_SETS, ids=lambda a: str(a))
def test_label_maps_that_break_the_pauli_action_are_refused(kind, arg):
    # the exact maps of every cycled set carry Paulis to Paulis; a spread
    # set has no U, and U leaves the five of seven, so neither has maps
    ms = _orbit_set(kind, arg)
    pi = ms.cycle_permutations
    if kind != "constructed":
        assert pi is None
        return
    assert carried_by(ms.pauli_labels, pi)
    bad = pi.copy()
    bad[0, [0, 1]] = bad[0, [1, 0]]
    # a swap of two labels is an affine map of GF(2)^n only for n <= 2, and
    # only at (1, 3) and (2, 2) does it also fit the other bases' maps
    assert carried_by(ms.pauli_labels, bad) == (arg in [(1, 3), (2, 2)])


# every constructible set up to n = 6 but (6, 3), where build_classes_Ln's
# classes fail P2 (ROADMAP "Fix build_classes_Ln")
CYCLED_SETS = [
    (n, L)
    for n in range(1, 7)
    for L in range(2, 14)
    if constructible(n, L) and (n, L) != (6, 3)
]


@pytest.mark.parametrize("n, L", CYCLED_SETS, ids=str)
def test_the_exact_label_maps_carry_every_pauli_to_one_pauli(n, L):
    # U is Clifford and pi is read exactly off its action, so U W U^dag is
    # one Pauli for every Pauli W, and f needs no screen
    ms = build_mub_set(build_partition(n, L))
    assert ms.cycle_permutations is not None
    assert carried_by(ms.pauli_labels, ms.cycle_permutations)


@pytest.mark.parametrize("n, L", CYCLED_SETS, ids=str)
def test_label_maps_of_every_action_equal_the_dense_oracle(n, L):
    # (sigma, pi) read off the _group tables against each image generator
    # made dense, for U (sigma(j) = j + 1) and each declared symmetry; an
    # (n, 2n+1) set declares its multiplier, sigma(j) = g j mod L
    ms = build_mub_set(build_partition(n, L))
    sigma, pi = dense_label_map(ms, ms.action)
    assert sigma.tolist() == [(j + 1) % L for j in range(L)]
    assert np.array_equal(pi, ms.cycle_permutations)
    dense = [dense_label_map(ms, a) for a in declared_actions(ms)]
    assert len(dense) == len(ms.symmetry_permutations) == int(L == 2 * n + 1)
    for (want_sigma, want_pi), (sigma, pi) in zip(dense, ms.symmetry_permutations):
        assert np.array_equal(sigma, want_sigma) and np.array_equal(pi, want_pi)
        g = ms.provenance.symmetries[0].groups[0][1]
        assert sigma.tolist() == [g * j % L for j in range(L)]


def test_five_of_seven_keeps_its_orbits():
    # the sub-set keeps the (3, 7) provenance's multiplier, but its images
    # leave the set, as U's do: no map but k, and the same 256 kept strings
    five = _five_of_seven()
    (action,) = declared_actions(five)
    assert dense_label_map(five, action) is None
    assert five._permutation(action)[0] is None
    assert five.symmetry_permutations == () and five.cycle_permutations is None
    maps = orbit_maps(five)
    assert len(maps) == 1 and len(reduced_orbits(five)) == 256


@pytest.mark.parametrize("kind, arg", KEY_WALK_SETS, ids=lambda a: str(a))
def test_orbit_maps_keep_every_symmetry_they_derive(kind, arg):
    # f exactly when there are label maps, one map for each declared
    # symmetry that permutes the bases, k exactly when its mask moves a
    # key; f first, then the symmetries, and k the XOR of every key with
    # that mask
    ms = _orbit_set(kind, arg)
    if ms.L < 3:
        assert orbit_maps(ms) == []
        return
    d, L = ms.d, ms.L
    powers = d ** np.arange(L - 1, -1, -1)
    keys = np.arange(d ** (L - 2))
    digits = (keys[:, None] // powers) % d
    maps = orbit_maps(ms)
    has_f = ms.cycle_permutations is not None
    syms = ms.symmetry_permutations
    flips = int(orbits._conjugation_labels(ms) @ powers)
    assert len(maps) == int(has_f) + len(syms) + int(flips != 0)
    if has_f:
        assert np.array_equal(maps[0], digit_orbit_step(ms)(digits) @ powers)
    for p, perm in zip(maps[int(has_f) :], syms):
        assert np.array_equal(p, digit_action_step(ms, *perm)(digits) @ powers)
    if flips:
        assert np.array_equal(maps[-1], keys ^ flips)
    # (n, 2n+1) sets declare the multiplier, which permutes their bases
    assert len(syms) == int(kind == "constructed" and L == 2 * ms.provenance.n + 1)
    solved = {(3, 7): 440, (5, 5): 3280}.get(arg)
    if solved is not None:
        assert len(entropy._orbit_minima(maps, d ** (L - 2))) == solved


def test_cycle_maps_are_derived_once_per_set(monkeypatch):
    # from the masks, with no apply: one subset table of each basis, built
    # with its vectors and kept, with the action cycle_unitary checked. The
    # build reads the tables first, for its unbiasedness check
    groups, group = [], mub._group
    monkeypatch.setattr(mub, "_group", lambda g: groups.append(g) or group(g))
    ms = build_mub_set(build_partition(3, 7))
    assert len(groups) == ms.L  # each basis's vectors, whose tables are kept
    sweep_max_eigen(ms)
    report = verify_cycle(ms)
    assert not hasattr(mub, "apply")
    assert len(groups) == ms.L
    assert report.permutations == tuple(map(tuple, ms.cycle_permutations.tolist()))
    assert ms.cycle_permutations is ms.cycle_permutations
    # a set without U's action has no label maps
    assert replace(ms, action=None).cycle_permutations is None
    assert len(groups) == ms.L


def test_cycle_orbits_match_the_pauli_only_route_d8_L7(monkeypatch):
    # the same lambda*, b* and levels as labelling no orbits of the cycle
    # unitary or of conjugation: the 440 kept strings, weighted by the
    # digit-row walk's orbit sizes, against the 8^5 Pauli orbits of 64 each
    ms = build_mub_set(build_partition(3, 7))
    res, calls = kernel_calls(monkeypatch, ms)
    monkeypatch.setattr(entropy, "orbit_maps", lambda ms: [])
    pauli_only, pauli_calls = kernel_calls(monkeypatch, ms)
    assert_same_sweep(res, pauli_only)
    assert res.b_star == pauli_only.b_star == (0, 0, 0, 2, 0, 0, 5)
    assert res.count == 8**7
    (_, kept), (_, every) = calls[0], pauli_calls[0]
    _, weights = digit_orbit_minima(ms)
    assert len(kept) == 440 and len(every) == 8**5
    assert_same_levels(
        oracle_bins(kept.tolist(), weights.tolist()),
        oracle_bins(every.tolist(), [64] * len(every)),
    )


@pytest.fixture(scope="module")
def sweep_d8_L7():
    ms = build_mub_set(build_partition(3, 7))
    return ms, sweep_max_eigen(ms)


def per_block_bytes(per_block, d):
    """mub.BLOCK_BYTES at which the kernel solves per_block strings of
    dimension d at a time."""
    return per_block * 48 * d * d


def test_cycle_orbit_sweep_is_bit_identical_for_two_workers(monkeypatch, sweep_d8_L7):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool runs on any host
    ms, want = sweep_d8_L7
    assert sweep_max_eigen(ms, workers=2) == want


# strings per block: one, an odd count, more than the 341 of the default
@pytest.mark.parametrize("per_block", [1, 7, 4096])
def test_cycle_orbit_sweep_is_bit_identical_for_any_chunk(
    monkeypatch, sweep_d8_L7, per_block
):
    # the labelling runs once over the reduced range, and the blocks split
    # only the kept strings: at one string per block each of the 2,344 is
    # solved alone
    ms, want = sweep_d8_L7
    monkeypatch.setattr(mub, "BLOCK_BYTES", per_block_bytes(per_block, ms.d))
    assert sweep_max_eigen(ms) == want


def test_five_basis_sub_partition_d8(monkeypatch):
    # the reduction needs only Pauli classes, not a complete or cycled set
    five = _five_of_seven()
    assert len(entropy._cycle_strings(five)) == 0  # U leaves the sub-set
    oracle, lams = every_lambda(five.bases)
    res = assert_reduction_keeps_levels(monkeypatch, five, lams)
    assert res.count == oracle.count == 8**5
    assert_same_sweep(res, oracle)
    assert res.b_star[:2] == (0, 0)


@pytest.fixture(scope="module")
def pair_sets():
    """Each set with its reduced, unreduced and raw sweeps at the defaults."""
    out = {}
    for name, (n, L) in {"d4L4": (2, 4), "d8L3": (3, 3)}.items():
        ms = build_mub_set(build_partition(n, L))
        out[name] = ms, (sweep_max_eigen(ms), unreduced(ms), sweep_max_eigen(ms.bases))
    return out


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(["d4L4", "d8L3"]),
    per_block=st.integers(1, 700),
    workers=st.integers(1, 3),
)
def test_sweep_bit_identical_across_chunk_and_workers(pair_sets, name, per_block, workers):
    ms, (reduced, full, raw) = pair_sets[name]
    with (
        mock.patch.object(mub, "BLOCK_BYTES", per_block_bytes(per_block, ms.d)),
        mock.patch.object(os, "cpu_count", return_value=3),  # the pool runs anywhere
    ):
        assert sweep_max_eigen(ms, workers=workers) == reduced
        assert sweep_max_eigen(ms, workers=workers, on_chunk=_ignore) == full
        assert sweep_max_eigen(ms.bases, workers=workers) == raw


def test_single_level_sweep_is_one_bin():
    # single qubit, two bases: every string has lambda = (1 + 1/sqrt(2))/2,
    # so all four chain into one level and b* is the smallest string
    pair = build_mub_set(build_classes_2n1(1)).bases[:2]
    res, lams = every_lambda(pair)
    lams = lams.tolist()
    assert len(lams) == res.count == 4
    assert oracle_bins(lams) == [(min(lams), 4)]
    assert abs(res.lambda_star - (1 + 2**-0.5) / 2) < 1e-12
    assert res.b_star == (0, 0)


def test_sample_matches_pointwise_oracle():
    ms = build_mub_set(build_partition(3, 7))
    res = sample_max_eigen(ms, samples=300, seed=9)
    rng = random.Random(9)
    strings = np.array([[int(8 * rng.random()) for _ in range(7)] for _ in range(300)])
    lams = [
        np.linalg.eigvalsh(entropy.pvec_operator(ms, s).matrix)[-1] for s in strings
    ]
    assert abs(res.lambda_star - max(lams)) < 1e-12
    top = res.lambda_star
    assert res.b_star == min(
        tuple(s) for s, lam in zip(strings.tolist(), lams) if lam >= top - LEVEL_TOL
    )
    assert res.count == 300


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_sample_rejects_a_negative_seed_before_any_work(seed):
    # random.Random(-s) would silently be Random(s)
    with mock.patch.object(entropy, "_checked_matrices") as mats:
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sample_max_eigen([], samples=10, seed=seed)
    mats.assert_not_called()


def _orthonormal(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


@pytest.mark.parametrize(
    "bases, match",
    [
        ([], "at least one"),
        ([np.eye(4), np.eye(2)], "dimensional"),
        ([np.eye(4), np.ones((4, 3))], "shape"),
        ([np.eye(1), np.eye(1)], "shape"),
        ([np.eye(3), np.zeros(3)], "shape"),
        ([np.eye(4), 2 * np.eye(4)], "orthonormal"),
        ([np.eye(4), np.full((4, 4), np.nan)], "orthonormal"),
    ],
)
def test_sweeps_reject_bad_bases(bases, match):
    with pytest.raises(ValueError, match=match):
        sweep_max_eigen(bases)
    with pytest.raises(ValueError, match=match):
        sample_max_eigen(bases, samples=10, seed=0)


def test_sweeps_accept_raw_orthonormal_arrays():
    mats = [_orthonormal(4, s) for s in range(3)]
    res = sweep_max_eigen(mats)
    assert res.count == 64
    assert 0.25 <= res.lambda_star <= 1.0
    assert sample_max_eigen(mats, samples=64, seed=0).lambda_star <= res.lambda_star
    with pytest.raises(ValueError, match="samples"):
        sample_max_eigen(mats, samples=0, seed=0)


@pytest.mark.parametrize("n", [1, 2])
def test_spread_set_reduced_sweep_matches_full_sweep(monkeypatch, n):
    # a spread set has Pauli classes but no cycle unitary: the reduction
    # still holds, and no string is preferred as a cycle string
    ms = build_mub_set(spread_partition(n))
    assert ms.U is None and len(entropy._cycle_strings(ms)) == 0
    oracle, lams = every_lambda(ms.bases)
    res = assert_reduction_keeps_levels(monkeypatch, ms, lams)
    assert res.count == (2**n) ** ms.L
    assert_same_sweep(res, oracle)


@pytest.mark.parametrize(
    "kwargs, match", [({"workers": 0}, "workers"), ({"workers": -3}, "workers")]
)
def test_sweep_rejects_bad_workers_and_chunk(kwargs, match):
    ms = build_mub_set(build_partition(2, 3))
    with pytest.raises(ValueError, match=match):
        sweep_max_eigen(ms, **kwargs)
    with pytest.raises(ValueError, match=match):
        sweep_max_eigen(ms.bases, **kwargs)


def stack_eigmax_chunks(B, strings, workers=1):
    """The kernel before selectors were built per block, kept as the oracle:
    every projector np.outer(v, v^dag) in one (L, d, d, d) stack, gathered
    and summed in basis order for each block of
    max(1, mub.BLOCK_BYTES // (48 d^2)) strings (workers ignored). String
    indices are decoded by np.unravel_index."""
    L, d = B.shape[:2]
    projs = np.empty((L, d, d, d), dtype=complex)
    for j in range(L):
        for b in range(d):
            projs[j, b] = np.outer(B[j][:, b], B[j][:, b].conj())
    block = max(1, mub.BLOCK_BYTES // (48 * d * d))
    for s in range(0, len(strings), block):
        digits = strings[s : s + block]
        if np.ndim(digits) == 1:  # string indices: a range or an int array
            digits = np.stack(np.unravel_index(np.asarray(digits), (d,) * L), axis=1)
        P = np.zeros((len(digits), d, d), dtype=complex)
        for j in range(L):
            P += projs[j, digits[:, j]]
        P /= L
        yield digits, np.linalg.eigvalsh(P)[:, -1]


# strings per block: one, an odd count, more than the default at d = 4 and 8
@pytest.mark.parametrize(
    "n, L, per_block",
    [(n, L, b) for n, L in [(2, 4), (2, 5), (3, 3), (3, 7)] for b in (1, 7, 4096)],
)
def test_selectors_built_per_chunk_equal_the_projector_stack(monkeypatch, n, L, per_block):
    ms = build_mub_set(build_partition(n, L))
    monkeypatch.setattr(mub, "BLOCK_BYTES", per_block_bytes(per_block, ms.d))
    runs = []
    for kernel in (stack_eigmax_chunks, entropy._eigmax_chunks):
        lams = []

        def recording(*args, kernel=kernel, lams=lams, **kwargs):
            for digits, lam in kernel(*args, **kwargs):
                lams.append(lam)
                yield digits, lam

        monkeypatch.setattr(entropy, "_eigmax_chunks", recording)
        res = sweep_max_eigen(ms)
        runs.append((res, np.concatenate(lams)))
    (want, want_lams), (got, got_lams) = runs
    assert got_lams.tobytes() == want_lams.tobytes()
    assert got == want


def test_selectors_built_per_chunk_equal_the_projector_stack_one_by_one(monkeypatch):
    ms = build_mub_set(build_partition(3, 7))
    B = np.stack([b.vectors for b in ms.bases])
    # every 13th string with prefix (0, 0), as digit rows, one per block
    strings = (np.arange(0, 8**5, 13)[:, None] // 8 ** np.arange(6, -1, -1)) % 8
    monkeypatch.setattr(mub, "BLOCK_BYTES", per_block_bytes(1, ms.d))
    want = list(stack_eigmax_chunks(B, strings))
    got = list(entropy._eigmax_chunks(B, strings))
    assert len(got) == len(want) == len(strings)
    for (gd, gl), (wd, wl) in zip(got, want):
        assert gl.tobytes() == wl.tobytes()
        assert np.array_equal(gd, wd)
    a = entropy._summarize(iter(got), len(strings))
    b = entropy._summarize(iter(want), len(strings))
    assert a == b


# the unreduced (3,7) sweep at one string per block would take minutes
@pytest.mark.parametrize(
    "n, L, mode",
    [
        (n, L, mode)
        for n, L in [(2, 4), (3, 3), (3, 7)]
        for mode in ("reduced", "unreduced", "workers=2")
        if (n, L, mode) != (3, 7, "unreduced")
    ],
)
def test_kernel_is_bit_identical_for_any_block_size(monkeypatch, n, L, mode):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool runs on any host
    ms = build_mub_set(build_partition(n, L))
    kwargs = {
        "reduced": {},
        "unreduced": {"on_chunk": _ignore},
        "workers=2": {"workers": 2},
    }[mode]
    runs = []
    # strings per block: one, an odd count, more than the default at d = 4 and 8
    for per_block in (1, 7, 4097):
        monkeypatch.setattr(mub, "BLOCK_BYTES", per_block_bytes(per_block, ms.d))
        res, calls = kernel_calls(monkeypatch, ms, **kwargs)
        runs.append((res, [[x.tobytes() for x in call] for call in calls]))
    (want, want_calls), *others = runs
    assert want_calls
    for got, got_calls in others:
        assert got_calls == want_calls
        assert got == want


def test_kernel_memory_stays_within_its_block_budget():
    import tracemalloc

    ms = build_mub_set(build_partition(5, 5))
    B = np.stack([b.vectors for b in ms.bases])
    strings = np.random.default_rng(5).integers(0, ms.d, size=(2048, ms.L))
    tracemalloc.start()
    try:
        blocks = list(KERNEL(B, strings))  # 2,048 d = 32 selectors, 21 a block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(lam) for _, lam in blocks) == 2048
    # all 2,048 selectors at once would be 2,048 x 16 KB = 32 MB each array
    assert peak < 4 * mub.BLOCK_BYTES


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, L", [(2, 4), (3, 3), (5, 5)])
def test_kernel_yields_blocks_of_its_byte_budget_in_input_order(
    monkeypatch, n, L, workers
):
    # d = 4, 8 and 32: blocks of 1,365, 341 and 21 strings at the default
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    ms = build_mub_set(build_partition(n, L))
    # each basis twice: d^(2L) strings hold the three blocks at d = 4 too
    B = np.stack([b.vectors for b in ms.bases] * 2)
    L, d = B.shape[:2]
    block = max(1, mub.BLOCK_BYTES // (48 * d * d))
    count = 2 * block + block // 2 + 1  # two whole blocks and a shorter one
    start = d**L - count - 3
    scattered = np.random.default_rng(n).integers(0, d**L, size=count)
    for indices in (range(start, start + count), scattered):
        rows = np.stack(np.unravel_index(np.asarray(indices), (d,) * L), axis=1)
        by_index = list(KERNEL(B, indices, workers))
        by_rows = list(KERNEL(B, rows, workers))
        for got in (by_index, by_rows):
            assert [len(lam) for _, lam in got] == [block, block, count - 2 * block]
            assert np.array_equal(np.concatenate([digits for digits, _ in got]), rows)
        lams = [np.concatenate([lam for _, lam in got]) for got in (by_index, by_rows)]
        assert lams[0].tobytes() == lams[1].tobytes()


@pytest.mark.parametrize(
    "workers, cpus, pools", [(100000, 2, [2]), (100000, 1, []), (100000, None, []), (3, 8, [3])]
)
def test_worker_pool_is_capped_by_the_cpu_count(monkeypatch, workers, cpus, pools):
    # the fake pool records the threads asked for and solves each submitted
    # block at once, so no thread starts
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    ms = build_mub_set(build_partition(2, 4))
    want = unreduced(ms)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(mub, "BLOCK_BYTES", per_block_bytes(7, ms.d))  # 37 blocks
    assert sweep_max_eigen(ms, workers=workers, on_chunk=_ignore) == want
    assert asked == pools
