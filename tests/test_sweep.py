"""The selector sweep: Pauli reduction, tolerance-aware bins and ties, input
checks. The unreduced kernel (raw bases, or a MubSet swept with on_chunk)
is the oracle for the reduced one."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubforge import entropy
from mubforge.classes import build_classes_2n1
from mubforge.cli import build_partition, constructible
from mubforge.entropy import (
    LEVEL_TOL,
    iter_sweep_rows,
    sample_max_eigen,
    sweep_max_eigen,
)
from mubforge.mub import MubSet, build_mub_set
from mubforge.wigner import spread_partition

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


def test_reduced_sweep_solves_d_to_the_L_minus_2(monkeypatch):
    ms = build_mub_set(build_partition(2, 5))
    solved = []
    kernel = entropy._eigmax_chunks

    def counting(*args, **kwargs):
        for digits, lam in kernel(*args, **kwargs):
            solved.append(len(lam))
            yield digits, lam

    monkeypatch.setattr(entropy, "_eigmax_chunks", counting)
    sweep_max_eigen(ms)
    cycle = len(entropy._cycle_strings(ms))
    assert sum(solved) == 4**3 + cycle
    solved.clear()
    sweep_max_eigen(ms.bases)
    assert sum(solved) == 4**5


def test_five_basis_sub_partition_d8():
    # five of the seven d = 8 classes: the reduction needs only Pauli
    # classes, not a complete or cycled set
    part = build_classes_2n1(3)
    full = build_mub_set(part)
    sub = replace(part, L=5, classes=part.classes[:5])
    five = MubSet(full.bases[:5], full.U, sub)
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
        if not len(part):  # the kernel never yields an empty chunk
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
