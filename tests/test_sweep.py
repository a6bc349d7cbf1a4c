"""The selector sweep: orbits of the Paulis and the cycle unitary,
tolerance-aware bins and ties, input checks. The unreduced kernel (raw
bases, or a MubSet swept with on_chunk) is the oracle for the reduced one,
and orbits found by brute force over all d^L strings, from dense matrices,
are the oracle for the orbit walk."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubforge import entropy, mub
from mubforge.classes import build_classes_2n1
from mubforge.cli import build_partition, constructible
from mubforge.entropy import LEVEL_TOL, sample_max_eigen, sweep_max_eigen
from mubforge.mub import MubSet, build_mub_set, orbit_step, verify_cycle
from mubforge.pauli import PauliTerm, to_dense
from mubforge.wigner import spread_partition
from oracles import iter_sweep_rows

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
    ha, hb = sorted(a.histogram.items()), sorted(b.histogram.items())
    assert [n for _, n in ha] == [n for _, n in hb]
    assert all(abs(x - y) < 1e-12 for (x, _), (y, _) in zip(ha, hb))


def oracle_bins(lams):
    """Single-linkage levels of a plain list: (smallest value, count)."""
    lams = sorted(lams)
    out = [[lams[0], 1]]
    for prev, x in zip(lams, lams[1:]):
        if x - prev > LEVEL_TOL:
            out.append([x, 0])
        out[-1][1] += 1
    return [tuple(b) for b in out]


@pytest.fixture(scope="module", params=SMALL_SETS, ids=lambda p: f"n{p[0]}-L{p[1]}")
def small_ms(request):
    return build_mub_set(build_partition(*request.param))


def test_small_sets_cover_the_figure_sets():
    assert {(2, 2), (2, 3), (2, 4), (2, 5), (3, 3)} <= set(SMALL_SETS)


def test_reduced_matches_unreduced(small_ms):
    res = sweep_max_eigen(small_ms)
    assert res.count == small_ms.d**small_ms.L
    assert sum(res.histogram.values()) == res.count
    assert_same_sweep(res, unreduced(small_ms))


def test_raw_sweep_matches_row_oracle(small_ms):
    # raw bases: plain lexicographic tie rule and chained bins, recomputed
    # from every row of the unreduced kernel
    rows = list(iter_sweep_rows(small_ms))
    top = max(lam for _, lam in rows)
    res = sweep_max_eigen(small_ms.bases)
    assert res.lambda_star == top
    assert res.b_star == min(b for b, lam in rows if lam >= top - LEVEL_TOL)
    assert sorted(res.histogram.items()) == oracle_bins([lam for _, lam in rows])
    # the reduced sweep's levels are the same, d^2 strings per orbit
    red = sweep_max_eigen(small_ms)
    assert [n for _, n in sorted(red.histogram.items())] == [
        n for _, n in oracle_bins([lam for _, lam in rows])
    ]


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


@pytest.mark.parametrize("n, L, orbits", [(2, 5, 16), (3, 7, 4688)])
def test_reduced_sweep_solves_one_string_per_orbit(monkeypatch, n, L, orbits):
    # one string per orbit of the Paulis and the cycle unitary, then the
    # strings the cycle unitary fixes; the raw route solves all d^L
    ms = build_mub_set(build_partition(n, L))
    solved = []
    kernel = entropy._eigmax_chunks

    def counting(*args, **kwargs):
        for digits, lam, weights in kernel(*args, **kwargs):
            solved.append(len(lam))
            yield digits, lam, weights

    monkeypatch.setattr(entropy, "_eigmax_chunks", counting)
    sweep_max_eigen(ms)
    cycle = len(entropy._cycle_strings(ms))
    assert sum(solved) == orbits + cycle
    if n == 2:
        solved.clear()
        sweep_max_eigen(ms.bases)
        assert sum(solved) == 4**5


def _dense_label_maps(ms):
    """The label permutation of every basis under X_i and Z_i, i < n, and
    under U, from dense matrices: (perm over all d^L strings) for each."""
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
    try:
        pi = np.array(verify_cycle(ms).permutations)
    except (ValueError, RuntimeError):  # no U, or U leaves the set
        pi = None
    if pi is not None:
        moved = np.column_stack([pi[j][digits[:, j]] for j in range(L)])
        maps.append(np.roll(moved, 1, axis=1))
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
    return MubSet(full.bases[:5], full.U, replace(part, L=5, classes=part.classes[:5]))


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


@pytest.mark.parametrize("kind, arg", ORBIT_SETS, ids=lambda a: str(a))
def test_orbit_walk_matches_brute_force_orbits(kind, arg):
    ms = _orbit_set(kind, arg)
    d, L = ms.d, ms.L
    low, size = brute_force_orbits(ms)
    minima = np.flatnonzero(low == np.arange(d**L))
    assert np.all(minima < d ** (L - 2))  # every smallest member has prefix (0, 0)
    select = entropy._orbit_minima(orbit_step(ms), d * d, L, d)
    digits = (np.arange(d ** (L - 2))[:, None] // d ** np.arange(L - 1, -1, -1)) % d
    kept, weights = select(digits)
    assert (kept @ d ** np.arange(L - 1, -1, -1)).tolist() == minima.tolist()
    assert weights.tolist() == size[minima].tolist()
    assert weights.sum() == d**L


def test_orbit_step_is_the_identity_without_a_cycle():
    for ms in (build_mub_set(spread_partition(2)), _five_of_seven()):
        digits = np.random.default_rng(5).integers(0, ms.d, size=(30, ms.L))
        digits[:, :2] = 0
        assert np.array_equal(orbit_step(ms)(digits), digits)


@pytest.mark.parametrize("kind, arg", ORBIT_SETS, ids=lambda a: str(a))
def test_label_maps_that_break_the_pauli_action_are_refused(kind, arg):
    # the exact maps of every cycled set carry Paulis to Paulis; a spread
    # set has no U, and U leaves the five of seven, so neither has maps
    ms = _orbit_set(kind, arg)
    pi = ms.cycle_permutations
    if kind != "constructed":
        assert pi is None
        return
    assert ms.pauli_labels.carried_by(pi)
    bad = pi.copy()
    bad[0, [0, 1]] = bad[0, [1, 0]]
    # a swap of two labels is an affine map of GF(2)^n only for n <= 2, and
    # only at (1, 3) and (2, 2) does it also fit the other bases' maps
    assert ms.pauli_labels.carried_by(bad) == (arg in [(1, 3), (2, 2)])


def test_cycle_maps_are_derived_once_per_set(monkeypatch):
    # one apply per basis, once per set, with the action cycle_unitary read:
    # the set never reads U's action a second time
    reads, read = [], mub.clifford_action
    applies, apply = [], mub.apply
    monkeypatch.setattr(mub, "clifford_action", lambda *a: reads.append(a) or read(*a))
    monkeypatch.setattr(mub, "apply", lambda *a: applies.append(a) or apply(*a))
    ms = build_mub_set(build_partition(3, 7))
    sweep_max_eigen(ms)
    report = verify_cycle(ms)
    assert len(reads) == 0 and len(applies) == ms.L
    assert report.permutations == tuple(map(tuple, ms.cycle_permutations.tolist()))
    # a set built by hand from U alone reads the action off U once
    by_hand = mub.MubSet(ms.bases, ms.U, ms.provenance)
    assert verify_cycle(by_hand).permutations == report.permutations
    assert by_hand.cycle_permutations is by_hand.cycle_permutations
    assert len(reads) == 1


def test_cycle_orbits_match_the_pauli_only_route_d8_L7(monkeypatch):
    # the same lambda*, b* and histogram counts as walking no cycle orbits
    ms = build_mub_set(build_partition(3, 7))
    res = sweep_max_eigen(ms)
    monkeypatch.setattr(entropy, "orbit_step", lambda ms: lambda strings: strings)
    pauli_only = sweep_max_eigen(ms)
    assert_same_sweep(res, pauli_only)
    assert res.b_star == pauli_only.b_star == (0, 0, 0, 2, 0, 0, 5)
    assert sum(res.histogram.values()) == res.count == 8**7


def test_cycle_orbit_sweep_is_bit_identical_for_two_workers():
    ms = build_mub_set(build_partition(3, 7))
    assert sweep_max_eigen(ms, workers=2) == sweep_max_eigen(ms)


def test_five_basis_sub_partition_d8():
    # the reduction needs only Pauli classes, not a complete or cycled set
    five = _five_of_seven()
    assert len(entropy._cycle_strings(five)) == 0  # U leaves the sub-set
    res = sweep_max_eigen(five)
    oracle = sweep_max_eigen(five.bases)
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
    chunk=st.integers(1, 700),
    workers=st.integers(1, 3),
)
def test_sweep_bit_identical_across_chunk_and_workers(pair_sets, name, chunk, workers):
    ms, (reduced, full, raw) = pair_sets[name]
    assert sweep_max_eigen(ms, chunk=chunk, workers=workers) == reduced
    got = sweep_max_eigen(ms, chunk=chunk, workers=workers, on_chunk=_ignore)
    assert got == full
    assert sweep_max_eigen(ms.bases, chunk=chunk, workers=workers) == raw


@settings(max_examples=50, deadline=None)
@given(
    levels=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=6),
    ulps=st.lists(st.integers(-4, 4), min_size=1, max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=5),
)
def test_bins_ignore_ulps_and_splits(levels, ulps, cuts):
    base = [levels[i % len(levels)] for i in range(len(ulps))]
    vals = np.array([np.nextafter(x, 2.0 * u) if u else x for x, u in zip(base, ulps)])
    whole = entropy._merge_bins(np.column_stack([vals, vals, np.ones_like(vals)]))
    assert [tuple(r) for r in whole[:, [0, 2]]] == oracle_bins(vals.tolist())
    # values an ulp apart share a bin
    assert len(whole) <= len(set(levels))
    bins = np.empty((0, 3))
    for part in np.split(vals, sorted(set(min(c, len(vals)) for c in cuts))):
        if not len(part):  # _summarize skips empty chunks
            continue
        pts = np.column_stack([part, part, np.ones_like(part)])
        bins = entropy._merge_bins(np.vstack([bins, pts]))
    assert np.array_equal(bins, whole)


def test_single_level_sweep_is_one_bin():
    # single qubit, two bases: every string has lambda = (1 + 1/sqrt(2))/2
    pair = build_mub_set(build_classes_2n1(1)).bases[:2]
    res = sweep_max_eigen(pair)
    assert len(res.histogram) == 1
    assert sum(res.histogram.values()) == 4
    assert res.b_star == (0, 0)


def test_sample_matches_pointwise_oracle():
    ms = build_mub_set(build_partition(3, 7))
    res = sample_max_eigen(ms, samples=300, seed=9)
    strings = np.random.default_rng(9).integers(0, 8, size=(300, 7))
    lams = [
        np.linalg.eigvalsh(entropy.pvec_operator(ms, s).matrix)[-1] for s in strings
    ]
    assert abs(res.lambda_star - max(lams)) < 1e-12
    top = res.lambda_star
    assert res.b_star == min(
        tuple(s) for s, lam in zip(strings.tolist(), lams) if lam >= top - LEVEL_TOL
    )
    assert res.count == 300 == sum(res.histogram.values())


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
def test_spread_set_reduced_sweep_matches_full_sweep(n):
    # a spread set has Pauli classes but no cycle unitary: the reduction
    # still holds, and no string is preferred as a cycle string
    ms = build_mub_set(spread_partition(n))
    assert ms.U is None and len(entropy._cycle_strings(ms)) == 0
    res = sweep_max_eigen(ms)
    assert res.count == (2**n) ** ms.L
    assert_same_sweep(res, sweep_max_eigen(ms.bases))


@pytest.mark.parametrize(
    "kwargs, match",
    [({"workers": 0}, "workers"), ({"workers": -3}, "workers"), ({"chunk": 0}, "chunk")],
)
def test_sweep_rejects_bad_workers_and_chunk(kwargs, match):
    ms = build_mub_set(build_partition(2, 3))
    with pytest.raises(ValueError, match=match):
        sweep_max_eigen(ms, **kwargs)
    with pytest.raises(ValueError, match=match):
        sweep_max_eigen(ms.bases, **kwargs)


def stack_eigmax_chunks(B, strings, chunk=entropy.SWEEP_CHUNK, workers=1, select=None):
    """The kernel before selectors were built per chunk, kept as the oracle:
    every projector np.outer(v, v^dag) in one (L, d, d, d) stack, gathered
    and summed per chunk in basis order (workers ignored)."""
    L, d = B.shape[:2]
    projs = np.empty((L, d, d, d), dtype=complex)
    for j in range(L):
        for b in range(d):
            projs[j, b] = np.outer(B[j][:, b], B[j][:, b].conj())
    powers = np.array([d ** (L - 1 - j) for j in range(L)])
    for s in range(0, len(strings), chunk):
        part = strings[s : s + chunk]
        if isinstance(part, range):
            digits = (np.arange(part.start, part.stop)[:, None] // powers) % d
        else:
            digits = part
        weights = np.ones(len(digits), dtype=np.int64)
        if select is not None:
            digits, weights = select(digits)
        P = np.zeros((len(digits), d, d), dtype=complex)
        for j in range(L):
            P += projs[j, digits[:, j]]
        P /= L
        yield digits, np.linalg.eigvalsh(P)[:, -1], weights


# (3,7) at chunk 1 solves its 32,768 reduced strings one call each, about
# 5 s for both kernels; the test below takes it on a sample of them
@pytest.mark.parametrize(
    "n, L, chunk",
    [
        (n, L, chunk)
        for n, L in [(2, 4), (2, 5), (3, 3), (3, 7)]
        for chunk in (1, 7, 4096)
        if (n, L, chunk) != (3, 7, 1)
    ],
)
def test_selectors_built_per_chunk_equal_the_projector_stack(monkeypatch, n, L, chunk):
    ms = build_mub_set(build_partition(n, L))
    runs = []
    for kernel in (stack_eigmax_chunks, entropy._eigmax_chunks):
        lams = []

        def recording(*args, kernel=kernel, lams=lams, **kwargs):
            for digits, lam, weights in kernel(*args, **kwargs):
                lams.append(lam)
                yield digits, lam, weights

        monkeypatch.setattr(entropy, "_eigmax_chunks", recording)
        res = sweep_max_eigen(ms, chunk=chunk)
        runs.append((res, np.concatenate(lams)))
    (want, want_lams), (got, got_lams) = runs
    assert got_lams.tobytes() == want_lams.tobytes()
    assert got.b_star == want.b_star
    assert got.lambda_star == want.lambda_star
    assert got.histogram == want.histogram


def test_selectors_built_per_chunk_equal_the_projector_stack_one_by_one():
    ms = build_mub_set(build_partition(3, 7))
    B = np.stack([b.vectors for b in ms.bases])
    # every 13th string with prefix (0, 0), as digit rows, one per chunk
    strings = (np.arange(0, 8**5, 13)[:, None] // 8 ** np.arange(6, -1, -1)) % 8
    want = list(stack_eigmax_chunks(B, strings, chunk=1))
    got = list(entropy._eigmax_chunks(B, strings, chunk=1))
    assert len(got) == len(want) == len(strings)
    for (gd, gl, gw), (wd, wl, ww) in zip(got, want):
        assert gl.tobytes() == wl.tobytes()
        assert np.array_equal(gd, wd) and np.array_equal(gw, ww)
    a = entropy._summarize(iter(got), len(strings))
    b = entropy._summarize(iter(want), len(strings))
    assert (a.b_star, a.lambda_star, a.histogram) == (b.b_star, b.lambda_star, b.histogram)


KERNEL = entropy._eigmax_chunks


def _recorded_sweep(monkeypatch, ms, **kwargs):
    """sweep_max_eigen's result, and the bytes of every (digits, lambdas,
    weights) chunk its kernel yielded."""
    chunks = []

    def recording(*args, **kw):
        for part in KERNEL(*args, **kw):
            chunks.append(tuple(a.tobytes() for a in part))
            yield part

    monkeypatch.setattr(entropy, "_eigmax_chunks", recording)
    return sweep_max_eigen(ms, **kwargs), chunks


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
    import mubforge.mub

    ms = build_mub_set(build_partition(n, L))
    kwargs = {
        "reduced": {},
        "unreduced": {"on_chunk": _ignore},
        "workers=2": {"workers": 2},
    }[mode]
    runs = []
    # strings per block: one, an odd count, more than a chunk
    for per_block in (1, 7, entropy.SWEEP_CHUNK + 1):
        monkeypatch.setattr(mubforge.mub, "BLOCK_BYTES", per_block * 48 * ms.d**2)
        runs.append(_recorded_sweep(monkeypatch, ms, **kwargs))
    (want, want_chunks), *others = runs
    assert want_chunks
    for got, got_chunks in others:
        assert got_chunks == want_chunks
        assert got == want


def test_kernel_memory_stays_within_its_block_budget():
    import tracemalloc

    import mubforge.mub

    ms = build_mub_set(build_partition(5, 5))
    B = np.stack([b.vectors for b in ms.bases])
    strings = np.random.default_rng(5).integers(0, ms.d, size=(2048, ms.L))
    tracemalloc.start()
    try:
        (chunk,) = KERNEL(B, strings)  # one chunk of 2,048 d = 32 selectors
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chunk[1]) == 2048
    # one chunk's selectors at once would be 2,048 x 16 KB = 32 MB each array
    assert peak < 4 * mubforge.mub.BLOCK_BYTES
