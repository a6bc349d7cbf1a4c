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

and sweep_max_eigen certifies tightness by covering all d^L of them. Every
selector eigenvalue goes through one chunked kernel, _eigmax_chunks.

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

Cycle orbits. The cycle unitary U of a MubSet maps basis j onto basis j+1,
cyclically: U|b^(j)> is |pi_j(b)^(j+1)> up to phase, so U.b, with
(U.b)_{j+1} = pi_j(b_j), has P_{U.b} = U P_b U^dag and the spectrum of P_b.
U is a Clifford unitary, U W U^dag is a Pauli W', and U.(W.b) = W'.(U.b):
U maps Pauli orbits onto Pauli orbits. So the group the Paulis and <U>
generate has orbits that are unions of Pauli orbits, and its orbit through
b, with b_0 = b_1 = 0, holds d^2 |F(b)| strings, F(b) being the orbit of b
under f(b) = the representative of U.b with prefix (0, 0)
(mub.orbit_step). Its smallest member has prefix (0, 0) and is the
smallest string of F(b). The sweep solves only those smallest strings,
each weighted d^2 |F(b)|, walking f chunk by chunk. Since each orbit's
smallest string is still solved, lambda* and the tie rule below give the
same b* as the Pauli reduction alone. Where U is None, leaves the set or
fails the exact check of U.(W.b) = W'.(U.b) on the labels
(mub.PauliLabels.carried_by), f is the identity and each orbit is one
Pauli orbit.

Ties and bins. Orbit members agree only to rounding, so eigenvalues within
LEVEL_TOL are one level. Histogram bins group eigenvalues that chain
within LEVEL_TOL (no fixed bin edges), and b* is the smallest string
within LEVEL_TOL of lambda*, preferring for a MubSet the strings the cycle
unitary maps to themselves. Chunk boundaries are fixed independently of
the worker count and chunks are combined in order, so results are
bit-identical for any number of workers and any chunk size.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .mub import UNBIAS_TOL, MubSet, _cycle_strings, basis_matrices, orbit_step

LOG2 = math.log(2)
DEFAULT_BUDGET = 2**28
SWEEP_CHUNK = 4096
LEVEL_TOL = 1e-10  # eigenvalues closer than this are one level: bins, b* ties
MINIMIZE_BLOCK = 128  # restarts descending together; bounds the minimizer's memory


class BudgetExceededError(RuntimeError):
    """Sweep size is over the configured budget; sample or raise the budget."""


@dataclass(frozen=True)
class BoundSet:
    deutsch: float
    small_L: float
    large_L: float

    @property
    def best(self) -> float:
        return max(self.small_L, self.large_L)


@dataclass(frozen=True)
class PvecOperator:
    matrix: np.ndarray
    normalization: str  # "mean" | "sum"
    b: tuple[int, ...]


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
    deutsch = -math.log2((1 + 1 / math.sqrt(d)) / 2)
    small = -math.log2((1 / L) * (1 + (L - 1) / math.sqrt(d))) + 0.0
    large = -math.log2((1 / d) * (1 + (d - 1) / math.sqrt(L))) + 0.0
    return BoundSet(deutsch, small, large)


def outcome_distribution(basis, state) -> np.ndarray:
    """p_b for a unit vector or a density matrix."""
    (B,) = basis_matrices([basis])
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        if abs(np.linalg.norm(state) - 1) > 1e-8:
            raise ValueError(f"state norm {np.linalg.norm(state):.6g}, want 1")
        p = np.abs(B.conj().T @ state) ** 2
    elif state.ndim == 2:
        if abs(np.trace(state) - 1) > 1e-8:
            raise ValueError(f"state trace {np.trace(state):.6g}, want 1")
        p = np.real(np.sum(B.conj() * (state @ B), axis=0))
    else:
        raise ValueError("state must be a vector or a density matrix")
    return np.maximum(p, 0.0)


def renyi_entropy(basis, state, alpha: float) -> float:
    """Order-alpha entropy of the outcome distribution, in bits.

    alpha = 1 is Shannon (computed directly with 0 log 0 = 0), alpha = 2 the
    collision entropy, alpha = inf the min-entropy -log2 max_b p_b.
    """
    p = outcome_distribution(basis, state)
    return _entropy_of(p, alpha)


def _entropy_of(p: np.ndarray, alpha: float) -> float:
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if math.isinf(alpha):
        return -math.log2(float(np.max(p)))
    if alpha == 1:
        q = p[p > 0]
        return float(-np.sum(q * np.log2(q)))
    return float(np.log2(np.sum(p**alpha)) / (1 - alpha))


def avg_entropy(ms: "MubSet | Sequence", state, alpha: float) -> float:
    """Arithmetic mean of the per-basis entropies."""
    mats = _checked_matrices(ms)
    return sum(renyi_entropy(B, state, alpha) for B in mats) / len(mats)


def pvec_operator(ms, b: Sequence[int], normalization: str = "mean") -> PvecOperator:
    """Selector operator for the string b, one projector per basis."""
    if normalization not in ("mean", "sum"):
        raise ValueError(f"normalization must be 'mean' or 'sum', got {normalization!r}")
    mats = basis_matrices(ms)
    d = mats[0].shape[0]
    if len(b) != len(mats):
        raise ValueError(f"string length {len(b)} != basis count {len(mats)}")
    if any(not 0 <= int(x) < d for x in b):
        raise IndexError(f"basis-element index out of range in {tuple(b)}")
    P = np.zeros((d, d), dtype=complex)
    for j, B in enumerate(mats):
        v = B[:, int(b[j])]
        P += np.outer(v, v.conj())
    if normalization == "mean":
        P /= len(mats)
    return PvecOperator(P, normalization, tuple(int(x) for x in b))


def hermitian_eigmax(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a deterministic unit eigenvector."""
    M = np.asarray(M)
    if np.max(np.abs(M - M.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian within 1e-10")
    w, V = np.linalg.eigh(M)
    i = int(np.argmax(w))  # first index attaining the max
    v = V[:, i]
    mags = np.abs(v)
    k = int(np.argmax(mags > mags.max() - 1e-12))
    v = v / (v[k] / abs(v[k]))
    lam = float(w[i])
    if np.linalg.norm(M @ v - lam * v) > 1e-10:
        raise RuntimeError("eigenpair residual above 1e-10")
    return lam, v


def _checked_matrices(ms) -> list[np.ndarray]:
    """Basis matrices of a MubSet or a sequence of bases, checked.

    Every basis must be a d x d matrix with d >= 2, the same d for all, and
    orthonormal to UNBIAS_TOL.
    """
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
        if not dev <= UNBIAS_TOL:
            raise ValueError(
                f"basis {j} is not orthonormal: deviation {dev:.3g} > {UNBIAS_TOL}"
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


def _projector_stack(mats) -> np.ndarray:
    d = mats[0].shape[0]
    P = np.empty((len(mats), d, d, d), dtype=complex)
    for j, B in enumerate(mats):
        for b in range(d):
            P[j, b] = np.outer(B[:, b], B[:, b].conj())
    return P


def _eigmax_chunks(
    projs: np.ndarray, strings, chunk: int = SWEEP_CHUNK, workers: int = 1, select=None
):
    """Top eigenvalue of the mean-form selector of every string, by chunks.

    The one selector-eigenvalue kernel. `strings` is a range of string
    indices (digit j of an index, base d with basis 0 most significant, is
    the element of basis j) or an (n, L) array of digit rows. Yields
    (digits, lambdas, weights) for consecutive chunks of at most `chunk`
    strings, in input order for any worker count. Weights are 1 unless
    `select`, which maps a chunk's digits to the rows kept and their
    weights, thins the chunk first; a chunk may then be empty. A string's
    eigenvalue does not depend on the chunk it falls in.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    L, d = projs.shape[:2]
    if isinstance(strings, range):
        powers = np.array([d ** (L - 1 - j) for j in range(L)])

    def solve(part):
        if isinstance(part, range):
            digits = (np.arange(part.start, part.stop)[:, None] // powers) % d
        else:
            digits = part
        if select is None:
            weights = np.ones(len(digits), dtype=np.int64)
        else:
            digits, weights = select(digits)
        P = np.zeros((len(digits), d, d), dtype=complex)
        for j in range(L):
            P += projs[j, digits[:, j]]
        P /= L
        return digits, np.linalg.eigvalsh(P)[:, -1], weights

    parts = (strings[s : s + chunk] for s in range(0, len(strings), chunk))
    if workers <= 1:
        yield from map(solve, parts)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for part in parts:
            pending.append(pool.submit(solve, part))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _orbit_minima(step, weight: int, L: int, d: int):
    """select for _eigmax_chunks: the strings that are the smallest of their
    orbit under the permutation `step`, each weighted `weight` times the
    orbit's size.

    Each string is walked along its orbit until the walk returns (the orbit
    size) or passes a smaller string (not the smallest; dropped there), so
    no table over all strings is kept.
    """
    powers = np.array([d ** (L - 1 - j) for j in range(L)])

    def select(digits):
        start = (digits * powers).sum(axis=1)
        size = np.zeros(len(digits), dtype=np.int64)
        alive, cur, k = np.arange(len(digits)), digits, 0
        while len(alive):
            cur, k = step(cur), k + 1
            at = (cur * powers).sum(axis=1)
            back, lower = at == start[alive], at < start[alive]
            size[alive[back]] = k
            stay = ~(back | lower)
            alive, cur = alive[stay], cur[stay]
        keep = size > 0
        return digits[keep], weight * size[keep]

    return select


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


def _summarize(chunks, count: int) -> SweepResult:
    """lambda*, b* and the histogram of the (digits, lambdas, weights) chunks.

    b* is the lexicographically smallest string within LEVEL_TOL of
    lambda*. Histogram keys are each bin's smallest lambda; each string
    adds its weight, the number of strings it stands for, to its bin.
    """
    best, cands, bins, pending = -math.inf, [], np.empty((0, 3)), []
    for digits, lam, weights in chunks:
        if not len(lam):  # a chunk select left empty
            continue
        best = max(best, float(lam.max()))
        keep = lam >= best - LEVEL_TOL
        new = zip(map(tuple, digits[keep].tolist()), lam[keep].tolist())
        cands = _lex_records(cands + list(new), best)
        pending.append(np.column_stack([lam, lam, weights]))
        if sum(map(len, pending)) >= len(bins):  # amortized: bins may be many
            bins, pending = _merge_bins(np.vstack([bins, *pending])), []
    bins = _merge_bins(np.vstack([bins, *pending]))
    hist = Counter({float(lo): int(n) for lo, _, n in bins})
    return SweepResult(cands[0][0], best, hist, count)


def _reported(chunks, on_chunk):
    for digits, lam, weights in chunks:
        on_chunk(digits, lam)
        yield digits, lam, weights


def sweep_max_eigen(
    ms,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    chunk: int = SWEEP_CHUNK,
    on_chunk: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> SweepResult:
    """Exact maximum of lambda_max(P_b, mean) over all d^L strings b.

    A MubSet is swept over the strings with b_0 = b_1 = 0 that are the
    smallest of their orbit under mub.orbit_step, each standing for the d^2
    |orbit| strings of its orbit under the Paulis and the cycle unitary
    (module docstring); raw bases are swept over all d^L. `count` is d^L
    either way. For a MubSet, b* is the smallest string within LEVEL_TOL of
    lambda* that the cycle unitary maps to itself, if there is one;
    otherwise, and for raw bases, the smallest string within LEVEL_TOL of
    lambda*. Deterministic for any
    worker count and chunk size.

    on_chunk, if given, is called with (digits, lambdas) for every chunk of
    all d^L strings in lexicographic order; the sweep is then unreduced.
    """
    mats = _checked_matrices(ms)
    total = _sweep_size(mats, budget)
    d, L = mats[0].shape[0], len(mats)
    projs = _projector_stack(mats)
    if isinstance(ms, MubSet) and L >= 2 and on_chunk is None:
        strings = range(d ** (L - 2))
        select = _orbit_minima(orbit_step(ms), d * d, L, d)
    else:
        strings, select = range(total), None
    chunks = _eigmax_chunks(projs, strings, chunk, workers, select)
    if on_chunk is not None:
        chunks = _reported(chunks, on_chunk)
    res = _summarize(chunks, total)
    if isinstance(ms, MubSet):
        cyc = _cycle_strings(ms)
        if len(cyc):
            digits, lam, _ = next(_eigmax_chunks(projs, cyc, chunk=len(cyc)))
            hits = digits[lam >= res.lambda_star - LEVEL_TOL]
            if len(hits):
                res = replace(res, b_star=min(map(tuple, hits.tolist())))
    return res


def sample_max_eigen(ms, samples: int, seed: int) -> SweepResult:
    """Seeded random-string estimate of the sweep maximum (lower bound)."""
    mats = _checked_matrices(ms)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    strings = rng.integers(0, mats[0].shape[0], size=(samples, len(mats)))
    return _summarize(_eigmax_chunks(_projector_stack(mats), strings), samples)


def _log2(x: np.ndarray) -> np.ndarray:
    # math.log2 element by element: np.log2 differs from it in the last bit
    # for about one argument in a thousand, which would move the objective
    # off the one-vector oracle in tests/test_entropy.py
    return np.array([math.log2(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[r, k] b[r, k] for every row r, one BLAS dot per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, summed as np.linalg.norm sums a vector."""
    return np.sqrt(_row_dot(x.real, x.real) + _row_dot(x.imag, x.imag))


def _avg_entropy_rows(B: np.ndarray, BH: np.ndarray, psi: np.ndarray, alpha):
    """Average entropy (R,) and its Wirtinger gradient d/d(psi*) (R, d).

    B is the (L, d, d) basis stack and BH its conjugate transpose; psi holds
    one unit vector per row. Both products go through stacked matrix-vector
    matmuls, c = B^dag psi and g = sum_j B_j (w * c), so each row's numbers
    are those of the same products taken one vector at a time.
    """
    L = B.shape[0]
    c = (BH @ psi[:, None, :, None])[..., 0]  # (R, L, d)
    p = np.maximum(np.abs(c) ** 2, 1e-300)
    if math.isinf(alpha):  # only the largest outcome of each basis counts
        b = np.argmax(p, axis=-1)[..., None]
        top = np.take_along_axis(p, b, -1)
        terms = -_log2(top[..., 0])
        w = np.zeros_like(p)
        np.put_along_axis(w, b, -1.0 / (top * LOG2), -1)
    elif alpha == 1:
        lp = np.log2(p)
        terms = -np.sum(p * lp, axis=-1)
        w = -(lp + 1 / LOG2)
    else:
        S = np.sum(p**alpha, axis=-1)
        terms = _log2(S) / (1 - alpha)
        w = alpha * p ** (alpha - 1) / ((1 - alpha) * S * LOG2)[..., None]
    gj = (B @ (w * c)[..., None])[..., 0]
    f, g = np.zeros(len(psi)), np.zeros(psi.shape, dtype=complex)
    for j in range(L):  # in basis order: np.sum regroups eight or more terms
        f += terms[:, j]
        g += gj[:, j]
    return f / L, g / L


def _tangent_rows(psi: np.ndarray, g: np.ndarray):
    """Gradient projected on the tangent space of each row, and its norm."""
    g_t = g - _row_dot(psi.conj(), g)[:, None] * psi
    return g_t, _row_norms(g_t)


def _descend_rows(B, BH, psi: np.ndarray, alpha, iters: int):
    """Projected gradient descent with backtracking, every row at once.

    Each row keeps its own step size (0.5 to start, halved on a rejected
    step, doubled up to 1 after a move) and its own stop: `iters` moves, a
    tangent gradient below 1e-12, or a step size at 1e-14. Only live rows
    are evaluated. Updates psi in place; returns it with its objective.
    """
    f, g = _avg_entropy_rows(B, BH, psi, alpha)
    eta = np.full(len(psi), 0.5)
    moves = np.zeros(len(psi), dtype=np.int64)
    g_t, gn = _tangent_rows(psi, g)
    live = ~(gn < 1e-12) & (moves < iters)
    while live.any():
        idx = np.flatnonzero(live)
        step = eta[idx]
        cand = psi[idx] - step[:, None] * g_t[idx]
        cand /= _row_norms(cand)[:, None]
        fc, gc = _avg_entropy_rows(B, BH, cand, alpha)
        ok = fc < f[idx] - 0.25 * step * gn[idx] * gn[idx]  # Armijo
        moved, stuck = idx[ok], idx[~ok]
        psi[moved], f[moved] = cand[ok], fc[ok]
        g_t[moved], gn[moved] = _tangent_rows(cand[ok], gc[ok])
        eta[moved] = np.minimum(eta[moved] * 2, 1.0)
        moves[moved] += 1
        live[moved] = ~(gn[moved] < 1e-12) & (moves[moved] < iters)
        eta[stuck] /= 2
        live[stuck] = eta[stuck] > 1e-14
    return psi, f


def minimize_avg_entropy(
    ms,
    alpha: float,
    restarts: int = 64,
    seed: int = 0,
    iters: int = 500,
    surrogate_alpha: float = 20.0,
) -> tuple[np.ndarray, float]:
    """Best local minimum of the average entropy over unit vectors.

    Projected gradient descent with backtracking from seeded random starts.
    For alpha = inf each start anneals through the smooth order-2 and
    order-`surrogate_alpha` objectives before polishing on the exact
    min-entropy, whose active-term gradient is smooth wherever the per-basis
    maxima are unique; the annealing stages funnel past the local minima the
    non-smooth objective has on its own. The result is a heuristic upper
    bound on the true minimum and is deterministic for a fixed seed.

    The restarts descend together, MINIMIZE_BLOCK at a time, as the rows of
    one (R, d) array against the stacked (L, d, d) bases; each row keeps its
    own step size and stop rule, and every stage runs the same loop. Each
    start is 2d normals drawn in restart order, and the first restart more
    than 1e-15 below all earlier ones wins, so neither the value nor the
    state depends on the block size.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    B = np.stack(_checked_matrices(ms)).astype(complex)
    BH = np.ascontiguousarray(B.conj()).transpose(0, 2, 1)
    d = B.shape[1]
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    stages = [alpha] if not math.isinf(alpha) else [2.0, surrogate_alpha, alpha]
    rng = np.random.default_rng(seed)
    best_val, best_psi = math.inf, None
    for start in range(0, restarts, MINIMIZE_BLOCK):
        x = rng.normal(size=(min(MINIMIZE_BLOCK, restarts - start), 2 * d))
        psi = x[:, :d] + 1j * x[:, d:]
        psi /= _row_norms(psi)[:, None]
        for stage in stages:
            psi, f = _descend_rows(B, BH, psi, stage, iters)
        for val, row in zip(f.tolist(), psi):
            if val < best_val - 1e-15:
                best_val, best_psi = val, row.copy()
    return best_psi, best_val


def iter_sweep_rows(ms, budget: int = DEFAULT_BUDGET, chunk: int = SWEEP_CHUNK):
    """Yield (b, lambda_max) for every string in lexicographic order."""
    mats = _checked_matrices(ms)
    total = _sweep_size(mats, budget)
    for digits, lam, _ in _eigmax_chunks(_projector_stack(mats), range(total), chunk):
        yield from zip(map(tuple, digits.tolist()), lam.tolist())
