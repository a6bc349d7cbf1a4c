"""Entropies of measurement outcomes, eigenvalue bounds and brute-force sweeps.

All logarithms are base 2. For a state rho and bases B_0..B_{L-1}, the
quantity of interest is the average order-alpha entropy of the outcome
distributions p_b = <b|rho|b>. Two analytic lower bounds on the average
min-entropy of L mutually unbiased bases in dimension d are provided:

    small_L = -log2[ (1 + (L-1)/sqrt(d)) / L ]
    large_L = -log2[ (1 + (d-1)/sqrt(L)) / d ]

The first dominates for L < d, the second for L > d; they coincide at L = d.
Both arise from a bound on the top eigenvalue of the selector operators

    P_b = (1/L) sum_j |b^(j)><b^(j)|,      b in {0..d-1}^L,

and sweep_max_eigen certifies tightness by covering all d^L of them, each
selector eigenvalue from the one kernel, selector._eigmax_chunks, a block
of strings at a time.

Pauli reduction. Each basis of a MubSet is the joint eigenbasis of a class
C_j of d-1 commuting Pauli operators that, with the identity, span a
maximal abelian algebra. A Pauli operator W satisfies W M W^dag = +-M for
every member M, so W maps joint eigenvectors of C_j to joint eigenvectors
(with the signs of the members it anticommutes with flipped): conjugation
by W permutes the elements of every basis, b -> W.b, and P_{W.b} =
W P_b W^dag has the spectrum of P_b. W fixes a pair (b_0, b_1) only if it
flips no sign in C_0 or C_1, that is, commutes with both classes and so
lies in both maximal abelian algebras, which share only the identity (the
classes are disjoint). So the d^2 Pauli
operators (up to phase) act freely on the d^2 pairs (b_0, b_1), hence
transitively: every orbit of strings has d^2 members, exactly one of them
with b_0 = b_1 = 0. Sweeping those d^(L-2) strings gives lambda*, and
each histogram count times d^2. A string with prefix (0, 0) precedes all
others, so each orbit's smallest string is in the reduced range, and so is
the smallest string attaining lambda*: the tie rule below picks the same
b* from either range. Every complete set of d+1 bases is a MubSet built
this way too, the symplectic spread of wigner.complete_mub_bases included,
so its sweep gets the reduction; a spread set has no cycle unitary.

Cycle and conjugation orbits. The cycle unitary U of a MubSet maps basis
j onto basis j+1, cyclically: U|b^(j)> is |pi_j(b)^(j+1)> up to phase, so
U.b, with (U.b)_{j+1} = pi_j(b_j), has P_{U.b} = U P_b U^dag and the
spectrum of P_b. U is a Clifford unitary, U W U^dag is a Pauli W', and
U.(W.b) = W'.(U.b): U maps Pauli orbits onto Pauli orbits. Complex
conjugation K, the antiunitary half of the extended Clifford group, does
too: each Hermitian basis generator is real or imaginary, so the conjugate
of an element of basis j is the element whose label, its sign code
(mub.Basis), has the bits of the imaginary generators flipped, P_{K.b} =
conj(P_b) has the spectrum of P_b, and conj(W) = +-W. A partition may
declare further Clifford symmetries that permute the bases
(classes.Partition.symmetries): an (n, 2n+1) set declares its multiplier,
which sends basis j to basis g j mod L and with U generates AGL(1, L). On
strings with b_0 = b_1 = 0, f(b), k(b) and each symmetry's map are the
representatives with prefix (0, 0) of U.b, of K.b and of the symmetry's
image of b, and orbits.orbit_maps gives each as a permutation of the
d^(L-2) keys. The group they generate with the Paulis (Paulis x
AGL(1, L) x K for an (n, 2n+1) set) has orbits that are unions of Pauli
orbits, and its orbit through b holds d^2 times as many strings as the
orbit of b under the maps. Its smallest member has prefix (0, 0),
so it is the smallest key of that orbit. The sweep labels the orbits of
the maps in one pass over all d^(L-2) keys (_orbit_minima), which works
for any number of maps, commuting or not, and solves only each orbit's
smallest string, weighted d^2 times the orbit's size. Since each orbit's
smallest string is still solved, lambda* and the tie rule below give the
same b* as the Pauli reduction alone. The maps pi_j follow exactly from
each action (mub.MubSet.cycle_permutations and symmetry_permutations).
Where there are none (U is None or leaves the set), f is left out, as is
a symmetry that leaves the set, and k alone may join the Pauli orbits in
pairs.

The maps run on integer keys: a string's key is its index, digit j in its
own n-bit field since d = 2^n. On a string with b_0 = b_1 = 0 the Pauli
that brings g.b back to prefix (0, 0) depends on the digits that land at
positions 0 and 1 alone (b_{L-1} for U), so each digit of the image is an
exact int32 table over at most three digits, which orbits._key_map
broadcasts over the grid of keys and ORs into the image keys. A Pauli or
K flips fixed bits of each label, so k is the XOR of the key with one
mask. Labels and maps are int32, one array of d^(L-2) each
(8 MB at 8^7 keys), so a reduced range of 2^31 keys or more is refused
before any is allocated. The kept keys go to the kernel as string indices,
which it decodes to digits a block at a time.

Ties and bins. Orbit members agree only to rounding, so eigenvalues within
LEVEL_TOL are one level. Histogram bins group eigenvalues that chain
within LEVEL_TOL (no fixed bin edges), and b* is the smallest string
within LEVEL_TOL of lambda*, preferring for a MubSet the strings the cycle
unitary maps to themselves. Block boundaries are fixed independently of
the worker count and blocks are combined in order, so results are
bit-identical for any number of workers and any block size.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import mub
# DEFAULT_BUDGET and BudgetExceededError live in mub, so that the CLI's
# --budget default and its exit-3 clause do not load this module
from .mub import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    MubSet,
    basis_matrices,
)
from .orbits import _cycle_strings, orbit_maps
# the kernel and the dense selector, bound here as well: the tests and
# bench/tracer.py reach them through this module
from .selector import LEVEL_TOL, _eigmax_chunks, hermitian_eigmax, pvec_operator

LOG2 = math.log(2)
ORTHONORMAL_TOL = 1e-8  # max | B^H B - I | of a basis the entropies accept
MINIMIZE_BLOCK = 128  # restarts descending together; bounds the minimizer's memory
MINIMIZE_ITERS = 500  # moves per restart in the last (or only) descent stage
ANNEAL_ORDERS = (2.0, 20.0)  # smooth orders an alpha = inf descent passes first
ANNEAL_MOVES = 50  # moves per restart in each annealing stage
STALL_ETA = 2.0**-8  # a row stops once a rejected step leaves eta at or below this
SMALLEST_NORMAL = 2.0**-1022  # a sum p^alpha below it is rescaled


@dataclass(frozen=True)
class BoundSet:
    small_L: float
    large_L: float

    @property
    def best(self) -> float:
        return max(self.small_L, self.large_L)


@dataclass(frozen=True)
class SweepResult:
    b_star: tuple[int, ...]
    lambda_star: float
    histogram: Counter
    count: int

    @property
    def min_avg_entropy(self) -> float:
        return -math.log2(self.lambda_star)


def bounds(L: int, d: int) -> BoundSet:
    if L < 1 or d < 2:
        raise ValueError(f"need L >= 1 and d >= 2, got L={L}, d={d}")
    small = -math.log2((1 / L) * (1 + (L - 1) / math.sqrt(d))) + 0.0
    large = -math.log2((1 / d) * (1 + (d - 1) / math.sqrt(L))) + 0.0
    return BoundSet(small, large)


def _checked_state(state, alpha: float = 1.0) -> np.ndarray:
    """state as a complex array: a unit vector or a density matrix of
    trace 1. alpha must be positive."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2):
        raise ValueError("state must be a vector or a density matrix")
    what = ("norm", "trace")[state.ndim - 1]
    size = np.linalg.norm(state) if state.ndim == 1 else np.trace(state)
    if not abs(size - 1) <= 1e-8:
        raise ValueError(f"state {what} {size:.6g}, want 1")
    return state


def _outcomes(G: np.ndarray, state: np.ndarray) -> np.ndarray:
    """<b|state|b> for every column b of G."""
    if state.ndim == 1:
        return np.abs(G.conj().T @ state) ** 2
    return np.real(np.add.reduce(G.conj() * (state @ G), axis=0))


def outcome_distribution(basis, state) -> np.ndarray:
    """p_b for a unit vector or a density matrix."""
    (B,) = basis_matrices([basis])
    return np.maximum(_outcomes(B, _checked_state(state)), 0.0)


def renyi_entropy(basis, state, alpha: float) -> float:
    """Order-alpha entropy of the outcome distribution, in bits: alpha = 1
    is Shannon, alpha = 2 the collision entropy, alpha = inf the
    min-entropy -log2 max_b p_b."""
    return avg_entropy([basis], state, alpha)


def avg_entropy(ms: "MubSet | Sequence", state, alpha: float) -> float:
    """Arithmetic mean of the per-basis entropies. A unit vector is one row
    of the minimizer's value pass; a density matrix's outcome rows go
    through the same terms, finite at every order."""
    state = _checked_state(state, alpha)
    stack = _basis_stack(ms)
    if state.ndim == 1:
        f, _ = _avg_entropy_values(stack, state[None], alpha)
    else:
        p = np.maximum(_outcomes(stack[1], state), 1e-300)
        f, _ = _avg_entropy_terms(p.reshape(1, -1, len(state)), alpha)
    return float(f[0])


def _checked_matrices(ms) -> list[np.ndarray]:
    """Basis matrices of a MubSet or a sequence of bases, checked: each a
    d x d matrix with d >= 2, the same d for all, orthonormal to
    ORTHONORMAL_TOL."""
    mats = basis_matrices(ms)
    if not mats:
        raise ValueError("need at least one basis")
    for j, B in enumerate(mats):
        if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] < 2:
            raise ValueError(f"basis {j} has shape {B.shape}, want d x d with d >= 2")
        if B.shape != mats[0].shape:
            raise ValueError(
                f"basis {j} is {B.shape[0]}-dimensional, basis 0 {mats[0].shape[0]}"
            )
        dev = float(np.max(np.abs(B.conj().T @ B - np.eye(B.shape[0]))))
        if not dev <= ORTHONORMAL_TOL:
            raise ValueError(
                f"basis {j} is not orthonormal: deviation {dev:.3g} > {ORTHONORMAL_TOL}"
            )
    return mats


def _sweep_size(mats, budget: int) -> int:
    d, L = mats[0].shape[0], len(mats)
    total = d**L
    if total > budget:
        raise BudgetExceededError(
            f"{d}^{L} = {total} eigenproblems over budget {budget}; "
            "raise the budget or use sampling"
        )
    return total


def _orbit_minima(maps, count: int):
    """(kept, sizes): the keys 0..count-1 that are the smallest of their
    orbit under the group the key permutations `maps` generate
    (orbits.orbit_maps), in increasing order, and the size of each one's orbit.

    Every key holds a label, at first itself. A round gives each key the
    least label among its own and those of its images under every map; the
    rounds stop when one changes no label. A label is always a key of the
    orbit, and at the stop it does not rise along any map. Each map is a
    permutation of finite order, so its inverse is a power of it, and the
    label is then the same on the whole orbit: its smallest key, the one
    key that keeps its own label. The maps need not commute, and there may
    be any number of them. The labels are int32, so count must be below
    2^31. Besides the maps, a round holds two int32 arrays of count entries
    (the labels and the next labels, swapped after each map), and the sizes
    are counted in one int64 array of as many.
    """
    low, new = np.arange(count, dtype=np.int32), np.empty(count, dtype=np.int32)
    changed = True
    while changed:
        changed = False
        for p in maps:
            np.minimum(low, np.take(low, p, out=new, mode="clip"), out=new)
            changed = changed or not np.array_equal(new, low)
            low, new = new, low
    del new
    kept = np.flatnonzero(low == np.arange(count, dtype=np.int32))
    return kept, np.bincount(low)[kept]


def _merge_bins(bins: np.ndarray) -> np.ndarray:
    """Merge (lo, hi, count) rows whose values chain within LEVEL_TOL.

    This is single-linkage grouping: values are in one bin when a chain of
    values, each within LEVEL_TOL of the next, joins them. Bins therefore
    have no fixed edges, and merging the bins of any split of the values
    gives the bins of the whole.
    """
    bins = bins[np.argsort(bins[:, 0], kind="stable")]
    reach = np.maximum.accumulate(bins[:, 1])
    start = np.flatnonzero(np.r_[True, bins[1:, 0] - reach[:-1] > LEVEL_TOL])
    return np.column_stack(
        [
            bins[start, 0],
            np.maximum.reduceat(bins[:, 1], start),
            np.add.reduceat(bins[:, 2], start),
        ]
    )


def _lex_records(cands, top: float) -> list:
    """The (string, lambda) candidates within LEVEL_TOL of top, in string
    order, each kept only if its lambda beats every smaller string's."""
    out: list = []
    for b, lam in sorted(c for c in cands if c[1] >= top - LEVEL_TOL):
        if not out or lam > out[-1][1]:
            out.append((b, lam))
    return out


def _summarize(blocks, count: int, weights: np.ndarray | None = None) -> SweepResult:
    """lambda*, b* and the histogram of the (digits, lambdas) blocks.

    b* is the lexicographically smallest string within LEVEL_TOL of
    lambda*. Histogram keys are each bin's smallest lambda; each string
    adds its weight, the number of strings it stands for (weights, in the
    order of the blocks' strings, or 1 each), to its bin.
    """
    best, cands, bins, pending, at = -math.inf, [], np.empty((0, 3)), [], 0
    for digits, lam in blocks:
        best = max(best, float(lam.max()))
        keep = lam >= best - LEVEL_TOL
        new = zip(map(tuple, digits[keep].tolist()), lam[keep].tolist())
        cands = _lex_records(cands + list(new), best)
        w = 1 if weights is None else weights[at : at + len(lam)]
        at += len(lam)
        pending.append(np.column_stack([lam, lam, np.broadcast_to(w, lam.shape)]))
        # amortized, since bins may be many; pending rows are three float64s,
        # so at most about one block's bytes of them wait for a merge
        if sum(map(len, pending)) >= max(len(bins), mub.BLOCK_BYTES // 24):
            bins, pending = _merge_bins(np.vstack([bins, *pending])), []
    bins = _merge_bins(np.vstack([bins, *pending]))
    hist = Counter({float(lo): int(n) for lo, _, n in bins})
    return SweepResult(cands[0][0], best, hist, count)


def _reported(blocks, on_chunk):
    for digits, lam in blocks:
        on_chunk(digits, lam)
        yield digits, lam


def sweep_max_eigen(
    ms,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    on_chunk: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> SweepResult:
    """Exact maximum of lambda_max(P_b, mean) over all d^L strings b.

    A MubSet is swept over the strings with b_0 = b_1 = 0 that are the
    smallest of their orbit under the key permutations of orbits.orbit_maps,
    each standing for the d^2 |orbit| strings of its orbit under the Paulis,
    the cycle unitary, the declared symmetries and complex conjugation:
    Paulis x AGL(1, L) x K for an (n, 2n+1) set (module docstring); raw bases
    are swept over all d^L. The orbits are labelled once over the d^(L-2)
    keys (_orbit_minima), and the kept keys, which are string indices, go
    to the kernel as they are; a reduced range of 2^31 keys or more, which
    int32 labels cannot index, is refused with BudgetExceededError before
    anything is allocated. `count` is d^L either way. For a MubSet, b* is
    the smallest string within LEVEL_TOL of lambda* that the cycle unitary
    maps to itself, if there is one; otherwise, and for raw bases, the
    smallest string within LEVEL_TOL of lambda*. The kernel solves the
    strings a block at a time (_eigmax_chunks); the result is bit-identical
    for any worker count and block size.

    on_chunk, if given, is called with (digits, lambdas) for every block of
    all d^L strings in lexicographic order; the sweep is then unreduced.
    """
    mats = _checked_matrices(ms)
    total = _sweep_size(mats, budget)
    d, L = mats[0].shape[0], len(mats)
    B = np.stack(mats)
    strings, weights = range(total), None
    if isinstance(ms, MubSet) and L >= 2 and on_chunk is None:
        count = d ** (L - 2)
        if count >= 2**31:
            raise BudgetExceededError(
                f"{d}^{L - 2} = {count} reduced strings, but int32 orbit labels "
                "index fewer than 2^31; use sampling"
            )
        # with b_0 = b_1 = 0 a key is its string's index
        strings, sizes = _orbit_minima(orbit_maps(ms), count)
        weights = d * d * sizes
    blocks = _eigmax_chunks(B, strings, workers)
    if on_chunk is not None:
        blocks = _reported(blocks, on_chunk)
    res = _summarize(blocks, total, weights)
    if isinstance(ms, MubSet):
        cyc = _cycle_strings(ms)
        if len(cyc):
            lam = np.concatenate([lam for _, lam in _eigmax_chunks(B, cyc)])
            hits = cyc[lam >= res.lambda_star - LEVEL_TOL]
            if len(hits):
                res = replace(res, b_star=min(map(tuple, hits.tolist())))
    return res


def _seeded(seed: int) -> random.Random:
    """random.Random(seed), the standard library's Mersenne Twister, whose
    random() stream Python keeps the same across versions for a seed."""
    seed = operator.index(seed)
    if seed < 0:  # Random(-s) would be Random(s)
        raise ValueError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def sample_max_eigen(ms, samples: int, seed: int) -> SweepResult:
    """Seeded random-string estimate of the sweep maximum (lower bound).

    The strings are drawn row by row from random.Random(seed), each digit
    int(d * random()), uniform on 0..d-1 and built on random() alone."""
    rng = _seeded(seed)
    mats = _checked_matrices(ms)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    d = mats[0].shape[0]
    strings = np.array([[int(d * rng.random()) for _ in mats] for _ in range(samples)])
    return _summarize(_eigmax_chunks(np.stack(mats), strings), samples)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a C-contiguous complex (R, d) array."""
    v = x.view(float)
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _basis_stack(ms):
    """(A, G, cols) for the checked bases B_0..B_{L-1}: G = [B_0 | ... |
    B_{L-1}], (d, L d); A = G^dag, Fortran-ordered, so that A psi is every
    B_j^dag psi at once; cols = G^T, row j d + k column k of B_j."""
    G = np.concatenate(_checked_matrices(ms), axis=1).astype(complex)
    return G.conj().T, G, np.ascontiguousarray(G.T)


def _pick(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x[r, j, b[r, j]] for every (r, j) of b, in one flat take."""
    starts = np.arange(0, x.size, x.shape[-1]).reshape(b.shape)
    return x.reshape(-1).take(b + starts)


def _avg_entropy_terms(p: np.ndarray, alpha):
    """Average entropy (R,) of the outcome rows p (R, L, d), floored at
    1e-300, and the parts (R, L, ...) the gradient pass reads: argmax b and
    top outcome for alpha = inf, log2 p for alpha = 1, else p and
    S = sum p^alpha. Where S is below the normal floats, the basis's
    largest p, m, is factored out: the parts hold p / m and
    m sum (p / m)^alpha, which the gradient reads unchanged, and
    log2 S = alpha log2 m + log2 sum (p / m)^alpha; elsewhere m = 1 leaves
    the bits alone. A row's L terms are added in basis order
    (np.add.accumulate; a reduction may regroup them). This is the one
    place the module forms H_alpha (the gradient pass forms its weights).
    """
    if math.isinf(alpha):  # only the largest outcome of each basis counts
        b = p.argmax(axis=-1)  # (R, L); with _pick, faster than p.max
        top = _pick(p, b)
        terms, parts = -np.log2(top), (b, top)
    elif alpha == 1:
        lp = np.log2(p)
        terms, parts = -np.add.reduce(p * lp, axis=-1), (lp,)
    else:
        S = np.add.reduce(p**alpha, axis=-1)
        if S.min(initial=1.0) < SMALLEST_NORMAL:
            m = np.where(S < SMALLEST_NORMAL, p.max(axis=-1), 1.0)
            p = p / m[..., None]
            S = np.add.reduce(p**alpha, axis=-1)
            log_S = np.log2(S) + alpha * np.log2(m)
            S *= m
        else:
            log_S = np.log2(S)
        terms, parts = log_S / (1 - alpha), (p, S)
    return np.add.accumulate(terms, axis=-1)[:, -1] / terms.shape[1], parts


def _avg_entropy_values(stack, psi: np.ndarray, alpha):
    """Value pass: average entropy (R,) and the parts the gradient pass
    reads, c = B_j^dag psi (R, L, d) and _avg_entropy_terms's of |c|^2.
    psi holds one unit vector per row; c = A psi is one BLAS gemv per row
    (stack is _basis_stack's), so a row's numbers do not depend on its block.
    """
    A = stack[0]
    R, d = psi.shape
    c = (A @ psi[:, :, None]).reshape(R, len(A) // d, d)
    f, parts = _avg_entropy_terms(np.maximum(np.abs(c) ** 2, 1e-300), alpha)
    return f, (c, *parts)


def _avg_entropy_grads(stack, parts, alpha, rows) -> np.ndarray:
    """Gradient pass: the Wirtinger gradient d/d(psi*) (len(rows), d) of the
    rows `rows` (an index array or a slice) of a value pass's `parts`; each
    row's numbers are those of its one-row call.
    - Finite alpha: g = sum_j B_j (w * c) = G (w * c), one gemv per row.
    - alpha = inf: w * c has one nonzero entry per basis, at b_j, so
      B_j (w * c) is column b_j of B_j times that entry, a gather. On
      stabilizer bases every entry of B_j is 0, +-a or +-ia, so each
      product is rounded once, as inside a gemv. The L terms are added in
      basis order.
    """
    _, G, cols = stack
    d = len(G)
    L = G.shape[1] // d
    c, *rest = (x[rows] for x in parts)
    if math.isinf(alpha):
        b, top = rest
        coef = (_pick(c, b) * (-1.0 / (top * LOG2))).T[..., None]  # (L, r, 1)
        # (L, r, d), summed over the leading axis one basis at a time
        g = cols.take(b.T + np.arange(0, L * d, d)[:, None], axis=0) * coef
        g = np.add.reduce(g)
    else:
        if alpha == 1:
            (lp,) = rest
            wc = -(lp + 1 / LOG2) * c
        else:
            p, S = rest
            wc = alpha * p ** (alpha - 1) / ((1 - alpha) * S * LOG2)[..., None] * c
        g = (G @ wc.reshape(len(c), L * d, 1))[..., 0]
    return g / L


def _avg_entropy_rows(stack, psi: np.ndarray, alpha):
    """Average entropy (R,) and its gradient (R, d): the value pass and the
    gradient pass over every row."""
    f, parts = _avg_entropy_values(stack, psi, alpha)
    return f, _avg_entropy_grads(stack, parts, alpha, slice(None))


def _tangent_rows(psi: np.ndarray, g: np.ndarray):
    """Gradient projected on the tangent space of each row, and its norm."""
    g_t = g - np.add.reduce(psi.conj() * g, axis=-1)[:, None] * psi
    return g_t, _row_norms(g_t)


def _descend_rows(stack, psi: np.ndarray, alpha, cap: int):
    """Projected gradient descent with backtracking, every row at once.

    Each row keeps its own step size eta (0.5 to start, halved on a rejected
    step, doubled up to 1 after a move) and its own stop: `cap` moves, a
    tangent gradient below 1e-12, or a rejected step that leaves eta at or
    below STALL_ETA (read at call time), 7 rejected steps in a row from 0.5
    at the default 2^-8. Only live rows are evaluated, and each takes the
    steps it takes alone, as a one-row block, with the same numbers:
    - The live rows' state is kept packed. Every iteration halves all step
      sizes and runs the value pass on every live row's candidate; only the
      rows that pass Armijo get the gradient pass, their new state, tangent
      gradient and a step size 4 times the halved one, capped at 1. A row
      is written back to psi and f when it stops.
    - eta is a power of two, so the Armijo threshold f - 0.25 eta gn gn
      equals f - eta q with q = 0.25 gn gn, and q < 0.25 (1e-12)^2 exactly
      when gn < 1e-12.
    Updates psi in place; returns it with its objective.
    """
    q_stop = 0.25 * 1e-12 * 1e-12  # q of the largest gn below 1e-12 is below this
    f, g = _avg_entropy_rows(stack, psi, alpha)
    g_t, gn = _tangent_rows(psi, g)
    rows = np.flatnonzero(~(gn < 1e-12))
    x, fx, gx, q = psi[rows], f[rows], g_t[rows], 0.25 * gn[rows] * gn[rows]
    eta = np.full(len(rows), 0.5)
    moves = np.zeros(len(rows), dtype=np.int64)
    it = 0
    while len(rows):
        it += 1
        cand = x - eta[:, None] * gx
        cand /= _row_norms(cand)[:, None]
        fc, parts = _avg_entropy_values(stack, cand, alpha)
        moved = np.flatnonzero(fc < fx - eta * q)  # Armijo
        eta *= 0.5
        if len(moved):
            cand = cand[moved]
            gc = _avg_entropy_grads(stack, parts, alpha, moved)
            gm, gnm = _tangent_rows(cand, gc)
            x[moved], gx[moved], fx[moved] = cand, gm, fc[moved]
            q[moved] = 0.25 * gnm * gnm
            eta[moved] = np.minimum(eta[moved] * 4, 1.0)
            moves[moved] += 1
        stop = (eta <= STALL_ETA) | (q < q_stop)
        if it >= cap:  # before that no row can have made that many
            stop |= moves >= cap
        if stop.any():
            psi[rows[stop]], f[rows[stop]] = x[stop], fx[stop]
            keep = ~stop
            rows, x, fx, gx = rows[keep], x[keep], fx[keep], gx[keep]
            q, eta, moves = q[keep], eta[keep], moves[keep]
    return psi, f


def minimize_avg_entropy(
    ms, alpha: float, restarts: int = 64, seed: int = 0
) -> tuple[np.ndarray, float]:
    """Best local minimum of the average entropy over unit vectors.

    Projected gradient descent with backtracking from seeded random starts.
    For alpha = inf each start anneals through the smooth objectives of the
    orders ANNEAL_ORDERS (2 and 20), at most ANNEAL_MOVES (50) moves each,
    before polishing on the exact min-entropy, whose active-term gradient
    is smooth wherever the per-basis maxima are unique; the annealing
    stages funnel past the local minima the non-smooth objective has on
    its own. A short anneal only has to reach the right basin: run to 500
    moves it crawls along flat minima, and at (n, L) = (3, 7) it settles
    0.032 bits above the exact sweep value that 50 moves reach. The last
    stage, or the only one for a finite alpha, makes at most MINIMIZE_ITERS
    moves. In every stage a row also stops once rejected steps have halved
    its step size to STALL_ETA (2^-8) or below: from 0.5, 7 rejections in a
    row. Such a row sits where no step improves it, and a lower floor only
    adds rejected passes without moving the printed minima. The constants
    are read at call time. The result is a heuristic upper bound on the
    true minimum and is deterministic for a fixed seed.

    The restarts descend together, MINIMIZE_BLOCK at a time, as the rows of
    one (R, d) array (_descend_rows, the same loop in every stage). Each
    start is 2d gauss(0.0, 1.0) draws of random.Random(seed), taken in
    restart order, and the first restart more than 1e-15 below all earlier
    ones wins, so neither the value nor the state depends on the block
    size. gauss is computed from random() alone, whose stream Python keeps
    the same across versions for a given seed.
    """
    rng = _seeded(seed)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    stack = _basis_stack(ms)
    d = stack[0].shape[1]
    stages = [(alpha, MINIMIZE_ITERS)]
    if math.isinf(alpha):
        stages[:0] = [(order, ANNEAL_MOVES) for order in ANNEAL_ORDERS]
    best_val, best_psi = math.inf, None
    for start in range(0, restarts, MINIMIZE_BLOCK):
        rows = min(MINIMIZE_BLOCK, restarts - start)
        x = np.array([[rng.gauss(0.0, 1.0) for _ in range(2 * d)] for _ in range(rows)])
        psi = x[:, :d] + 1j * x[:, d:]
        psi /= _row_norms(psi)[:, None]
        for order, cap in stages:
            psi, f = _descend_rows(stack, psi, order, cap)
        for val, row in zip(f.tolist(), psi):
            if val < best_val - 1e-15:
                best_val, best_psi = val, row.copy()
    return best_psi, best_val
