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
selector eigenvalue goes through one chunked kernel, _eigmax_chunks. It
builds and solves a chunk's selectors a block at a time, so that at most
about mub.BLOCK_BYTES of them are live in each worker, whatever d and the
chunk size.

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
same b* as the Pauli reduction alone. The maps pi_j follow exactly from
U's Clifford action (mub.MubSet.cycle_permutations). Where there are none
(U is None or leaves the set), or they fail the exact check of U.(W.b) =
W'.(U.b) (mub.PauliLabels.carried_by), f is the identity.

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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import mub
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


def pvec_operator(ms, b: Sequence[int]) -> PvecOperator:
    """Selector operator for the string b: the mean of one projector per
    basis."""
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
    P /= len(mats)
    return PvecOperator(P, tuple(int(x) for x in b))


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


def _eigmax_chunks(
    B: np.ndarray, strings, chunk: int = SWEEP_CHUNK, workers: int = 1, select=None
):
    """Top eigenvalue of the mean-form selector of every string, by chunks.

    The one selector-eigenvalue kernel. B is the (L, d, d) stack of basis
    matrices. `strings` is a range of string indices (digit j of an index,
    base d with basis 0 most significant, is the element of basis j) or an
    (n, L) array of digit rows. Yields (digits, lambdas, weights) for
    consecutive chunks of at most `chunk` strings, in input order for any
    worker count. Weights are 1 unless `select`, which maps a chunk's digits
    to the rows kept and their weights, thins the chunk first; a chunk may
    then be empty. A string's eigenvalue does not depend on the chunk or
    the block it falls in: selectors are summed from zero, basis by basis,
    from the outer products c c^dag of the basis columns, the products
    np.outer forms, and eigvalsh solves each matrix on its own.

    Memory: a chunk's kept strings are solved in blocks of
    max(1, mub.BLOCK_BYTES // (48 d^2)) strings, read at call time, in one
    pair of buffers for the selectors and the outer products. That budgets
    three complex d x d arrays per string: the two buffers and room for
    eigvalsh, which solves a stack one matrix at a time. So a chunk needs
    about BLOCK_BYTES for any d and chunk size, and each worker holds its
    own buffers. A chunk keeps only its digits, weights and eigenvalues,
    and no (L, d, d, d) projector stack is formed.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    L, d = B.shape[:2]
    cols = B.transpose(0, 2, 1)  # [j, b]: column b of B_j
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
        n = len(digits)
        block = max(1, min(n, mub.BLOCK_BYTES // (48 * d * d)))
        P, outer = np.empty((2, block, d, d), dtype=complex)  # reused per block
        lam = np.empty(n)
        for s in range(0, n, block):
            rows = digits[s : s + block]
            Pb, ob = P[: len(rows)], outer[: len(rows)]
            Pb.fill(0)
            for j in range(L):
                c = cols[j, rows[:, j]]  # [string, row]: each string's column of B_j
                np.multiply(c[:, :, None], c.conj()[:, None, :], out=ob)
                Pb += ob
            Pb /= L
            lam[s : s + block] = np.linalg.eigvalsh(Pb)[:, -1]
        return digits, lam, weights

    parts = (strings[s : s + chunk] for s in range(0, len(strings), chunk))
    if workers == 1:
        yield from map(solve, parts)
        return
    from concurrent.futures import ThreadPoolExecutor  # only here: ~3 ms to import

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
    B = np.stack(mats)
    if isinstance(ms, MubSet) and L >= 2 and on_chunk is None:
        strings = range(d ** (L - 2))
        select = _orbit_minima(orbit_step(ms), d * d, L, d)
    else:
        strings, select = range(total), None
    chunks = _eigmax_chunks(B, strings, chunk, workers, select)
    if on_chunk is not None:
        chunks = _reported(chunks, on_chunk)
    res = _summarize(chunks, total)
    if isinstance(ms, MubSet):
        cyc = _cycle_strings(ms)
        if len(cyc):
            digits, lam, _ = next(_eigmax_chunks(B, cyc, chunk=len(cyc)))
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
    return _summarize(_eigmax_chunks(np.stack(mats), strings), samples)


def _log2(x: np.ndarray) -> np.ndarray:
    # math.log2 element by element, streamed through fromiter: np.log2 differs
    # from it in the last bit for about one argument in a thousand, which
    # would move the objective off the one-vector oracle in tests/test_entropy.py
    logs = np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size)
    return logs.reshape(x.shape)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[r, k] b[r, k] for every row r, one BLAS dot per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a complex (R, d) array, summed as
    np.linalg.norm sums a vector: a BLAS dot of the real parts plus one of
    the imaginary parts, all 2R dots in one stacked matmul."""
    v = x.view(float).reshape(len(x), -1, 2).transpose(0, 2, 1)  # (R, 2, d)
    sq = (v[:, :, None, :] @ v[..., None])[..., 0, 0]
    return np.sqrt(sq[:, 0] + sq[:, 1])


def _basis_stack(ms):
    """(B, BH, cols) for the checked bases: the (L, d, d) stack, its conjugate
    transposes, and the (L d, d) columns, row j d + k being column k of B_j."""
    B = np.stack(_checked_matrices(ms)).astype(complex)
    BH = np.ascontiguousarray(B.conj()).transpose(0, 2, 1)
    return B, BH, B.transpose(0, 2, 1).reshape(-1, B.shape[1])


def _avg_entropy_rows(stack, psi: np.ndarray, alpha):
    """Average entropy (R,) and its Wirtinger gradient d/d(psi*) (R, d).

    stack is _basis_stack's (B, BH, cols); psi holds one unit vector per row.
    Intermediates are basis-major, (L, R, ...). Each row's numbers are those
    of the one-vector computation (serial_avg_entropy_and_grad in
    tests/test_entropy.py), up to the sign of a zero:
    - c = B^dag psi goes through stacked matrix-vector matmuls, the same
      BLAS call per row and basis as the one-vector product; for finite
      alpha so does g = sum_j B_j (w * c).
    - For alpha = inf, w * c has one nonzero entry per basis, so B_j (w * c)
      is a gather: column b_j of B_j times that entry. On stabilizer bases
      every entry of B_j is 0, +-a or +-ia, so each product is rounded once,
      as inside the matrix-vector product; on other bases it may differ in
      the last bit.
    - The L terms are summed over the leading axis, which numpy reduces by
      adding one term at a time in basis order, as the one-vector loop does
      (a reduction along the last axis regroups the terms).
    """
    B, BH, cols = stack
    L, d = BH.shape[:2]
    c = (BH[:, None] @ psi[:, :, None])[..., 0]  # (L, R, d)
    p = np.maximum(np.abs(c) ** 2, 1e-300)
    if math.isinf(alpha):  # only the largest outcome of each basis counts
        b = p.argmax(axis=-1)  # (L, R)
        at = b.ravel() + np.arange(0, p.size, d)  # flat index of each maximum
        top = p.take(at)
        terms = -_log2(top)
        coef = (c.take(at) * (-1.0 / (top * LOG2))).reshape(b.shape + (1,))
        g = cols.take(b + np.arange(0, L * d, d)[:, None], axis=0) * coef
    elif alpha == 1:
        lp = np.log2(p)
        terms = -np.add.reduce(p * lp, axis=-1)
        g = (B[:, None] @ (-(lp + 1 / LOG2) * c)[..., None])[..., 0]
    else:
        S = np.add.reduce(p**alpha, axis=-1)
        terms = _log2(S) / (1 - alpha)
        w = alpha * p ** (alpha - 1) / ((1 - alpha) * S * LOG2)[..., None]
        g = (B[:, None] @ (w * c)[..., None])[..., 0]
    f = np.add.reduce(terms.reshape(L, -1), axis=0)
    return f / L, np.add.reduce(g, axis=0) / L


def _tangent_rows(psi: np.ndarray, g: np.ndarray):
    """Gradient projected on the tangent space of each row, and its norm."""
    g_t = g - _row_dot(psi.conj(), g)[:, None] * psi
    return g_t, _row_norms(g_t)


def _descend_rows(stack, psi: np.ndarray, alpha, iters: int):
    """Projected gradient descent with backtracking, every row at once.

    Each row keeps its own step size eta (0.5 to start, halved on a rejected
    step, doubled up to 1 after a move) and its own stop: `iters` moves, a
    tangent gradient below 1e-12, or eta at 1e-14. Only live rows are
    evaluated, and each takes the one-vector descent's steps with the same
    numbers:
    - The live rows' state is kept packed. Every iteration halves all step
      sizes; only the rows that moved get their new state, tangent gradient
      and a step size 4 times the halved one, capped at 1. A row is written
      back to psi and f when it stops.
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
        fc, gc = _avg_entropy_rows(stack, cand, alpha)
        moved = np.flatnonzero(fc < fx - eta * q)  # Armijo
        eta *= 0.5
        if len(moved):
            cand = cand[moved]
            gm, gnm = _tangent_rows(cand, gc[moved])
            x[moved], gx[moved], fx[moved] = cand, gm, fc[moved]
            q[moved] = 0.25 * gnm * gnm
            eta[moved] = np.minimum(eta[moved] * 4, 1.0)
            moves[moved] += 1
        stop = (eta <= 1e-14) | (q < q_stop)
        if it >= iters:  # before that no row can have made `iters` moves
            stop |= moves >= iters
        if stop.any():
            psi[rows[stop]], f[rows[stop]] = x[stop], fx[stop]
            keep = ~stop
            rows, x, fx, gx = rows[keep], x[keep], fx[keep], gx[keep]
            q, eta, moves = q[keep], eta[keep], moves[keep]
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
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not surrogate_alpha > 0:
        raise ValueError(f"surrogate_alpha must be positive, got {surrogate_alpha}")
    stack = _basis_stack(ms)
    d = stack[0].shape[1]
    stages = [alpha] if not math.isinf(alpha) else [2.0, surrogate_alpha, alpha]
    rng = np.random.default_rng(seed)
    best_val, best_psi = math.inf, None
    for start in range(0, restarts, MINIMIZE_BLOCK):
        x = rng.normal(size=(min(MINIMIZE_BLOCK, restarts - start), 2 * d))
        psi = x[:, :d] + 1j * x[:, d:]
        psi /= _row_norms(psi)[:, None]
        for stage in stages:
            psi, f = _descend_rows(stack, psi, stage, iters)
        for val, row in zip(f.tolist(), psi):
            if val < best_val - 1e-15:
                best_val, best_psi = val, row.copy()
    return best_psi, best_val
