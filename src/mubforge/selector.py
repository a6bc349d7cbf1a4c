"""The one selector-eigenvalue kernel, and the dense selector it stands for.

For bases B_0..B_{L-1} in dimension d and a string b in {0..d-1}^L, the
mean-form selector is

    P_b = (1/L) sum_j |b^(j)><b^(j)|.

_eigmax_chunks gives lambda_max(P_b) for many strings, a block at a time;
it serves the sweeps of entropy and the phase-point levels of wigner alike.
pvec_operator forms one P_b densely, and hermitian_eigmax solves one
Hermitian matrix with a deterministic eigenvector: together they are the
oracle the kernel is checked against. LEVEL_TOL is the width of one level,
shared by the sweeps' bins and ties and the Wigner maximum.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mub
from .mub import basis_matrices

LEVEL_TOL = 1e-10  # eigenvalues closer than this are one level: bins, b* ties


@dataclass(frozen=True)
class PvecOperator:
    matrix: np.ndarray
    b: tuple[int, ...]


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
    v = mub.fix_phase(V[:, i])
    lam = float(w[i])
    if np.linalg.norm(M @ v - lam * v) > 1e-10:
        raise RuntimeError("eigenpair residual above 1e-10")
    return lam, v


def _eigmax_chunks(B: np.ndarray, strings, workers: int = 1):
    """Top eigenvalue of the mean-form selector of every string, by blocks.

    The one selector-eigenvalue kernel. B is the (L, d, d) stack of basis
    matrices. `strings` holds string indices, a range or a 1-D int array
    (digit j of an index, base d with basis 0 most significant, is the
    element of basis j), or is an (n, L) array of digit rows. Yields
    (digits, lambdas) for consecutive blocks of
    max(1, mub.BLOCK_BYTES // (48 d^2)) strings, read at call time, the
    last one shorter, in input order for any worker count; indices are
    decoded to digits a block at a time. A block is also the unit a worker
    solves. A string's eigenvalue does not depend on the block it falls in:
    selectors are summed from zero, basis by basis, from the outer products
    c c^dag of the basis columns, the products np.outer forms, and eigvalsh
    solves each matrix on its own.

    Memory: a block is solved in one pair of buffers, for the selectors and
    the outer products. The block size budgets three complex d x d arrays
    per string: the two buffers and room for eigvalsh, which solves a stack
    one matrix at a time. So a block needs about BLOCK_BYTES for any d. Each
    worker allocates its pair once per call and reuses it for every block
    it solves, so the heap does not churn block by block. A block keeps
    only its digits and eigenvalues, and no (L, d, d, d) projector stack is
    formed. At most min(workers, os.cpu_count()) threads run, and one runs
    the blocks in the calling thread.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    L, d = B.shape[:2]
    cols = B.transpose(0, 2, 1)  # [j, b]: column b of B_j
    powers = np.array([d ** (L - 1 - j) for j in range(L)])
    block = max(1, min(len(strings), mub.BLOCK_BYTES // (48 * d * d)))
    local = threading.local()  # each worker's buffer pair, for this call only

    def solve(digits):
        if isinstance(digits, range):
            digits = np.arange(digits.start, digits.stop)
        if digits.ndim == 1:
            digits = digits[:, None] // powers % d
        if not hasattr(local, "buffers"):
            local.buffers = np.empty((2, block, d, d), dtype=complex)
        P, outer = local.buffers[:, : len(digits)]  # reused for every block
        P.fill(0)
        for j in range(L):
            c = cols[j, digits[:, j]]  # [string, row]: each string's column of B_j
            np.multiply(c[:, :, None], c.conj()[:, None, :], out=outer)
            P += outer
        P /= L
        return digits, np.linalg.eigvalsh(P)[:, -1]

    parts = (strings[s : s + block] for s in range(0, len(strings), block))
    workers = min(workers, os.cpu_count() or 1)
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
