"""Discrete phase space over GF(2^n): point operators and their levels.

Phase space is the set of pairs (x, y) with x, y in GF(2^n). For each slope m
the lines {y = m x + c}_c form a striation (d parallel lines of d points);
the vertical lines {x = c}_c form one more, giving d+1 striations in total.
Striation j is matched with basis j of a complete set of d+1 mutually
unbiased bases, line c with element c. This matching is a quantum net
(Gibbons, Hoffman, Wootters, PRA 70, 062101).

The point operator at alpha sums the d+1 line projectors through alpha and
subtracts the identity:

    A_alpha = sum_{lines through alpha} Q(line) - I,
    tr A_alpha = 1,   tr(A_alpha A_beta) = d delta_{alpha beta},

and W_alpha(rho) = tr(A_alpha rho)/d is the discrete Wigner function. With b
the string of elements on the lines through alpha, A_alpha + I = (d+1) P_b
for the mean-form selector P_b, so lambda_max(A_alpha) = (d+1)
lambda_max(P_b) - 1: point_levels solves the phase-point strings in one
pass of the selector kernel entropy._eigmax_chunks, one string per Pauli
orbit (Pauli translations make point operators unitarily equivalent). The
dense point_operator is the oracle, checked once at the maximising point.
The phase-point value of this net, -log2[(d W_max + 1)/(d+1)], is not a
min-entropy bound: the bound maximises lambda_max(P_b) over all d^(d+1)
strings, not over the d^2 of one net (at n = 3 a minimized state reaches
1.3593 < 1.3866 bits).

The complete sets come from complete_mub_bases(n); the fields from the
irreducible polynomials in IRREDUCIBLE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import CommutingClass, Partition, build_classes_2n1
from .entropy import LEVEL_TOL, _eigmax_chunks, hermitian_eigmax, pvec_operator
from .mub import MubSet, basis_matrices, build_mub_set
from .pauli import PauliTerm

IRREDUCIBLE = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}

ROUTE_TOL = 1e-9  # the kernel, dense point-operator and selector routes agree to this


class GF:
    """Arithmetic in GF(2^n) with a fixed irreducible polynomial."""

    def __init__(self, n: int):
        if n not in IRREDUCIBLE:
            raise ValueError(f"no polynomial on file for n={n}")
        self.n = n
        self.order = 2**n
        self.poly = IRREDUCIBLE[n]

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.n & 1:
                a ^= self.poly
        return r

    def table(self) -> np.ndarray:
        """The d x d multiplication table: table()[a, b] = a * b, by mul's
        shift-and-add on every pair at once."""
        a, b = np.arange(self.order)[:, None], np.arange(self.order)
        out = np.zeros((self.order, self.order), dtype=np.int64)
        for i in range(self.n):
            out ^= a * (b >> i & 1)
            a = a << 1
            a ^= (a >> self.n & 1) * self.poly
        return out


@dataclass(frozen=True)
class PhasePointOperator:
    alpha: tuple[int, int]
    matrix: np.ndarray
    b: tuple[int, ...]  # line index through alpha, per striation


def line_indices_through(n: int, alpha: tuple[int, int]) -> tuple[int, ...]:
    """Per striation, the intercept index of the line containing alpha."""
    gf = GF(n)
    x, y = alpha
    d = gf.order
    if not (0 <= x < d and 0 <= y < d):
        raise ValueError(f"point {alpha} outside the {d}x{d} phase space")
    return tuple(gf.add(y, gf.mul(m, x)) for m in range(d)) + (x,)


def _net(bases) -> tuple[list[np.ndarray], int]:
    """The matrices of a complete set of d+1 bases, and d."""
    mats = basis_matrices(bases)
    d = mats[0].shape[0]
    if len(mats) != d + 1:
        raise ValueError(f"need a complete set of {d + 1} bases, got {len(mats)}")
    return mats, d


def point_operator(bases, alpha: tuple[int, int]) -> PhasePointOperator:
    """A_alpha for a complete set of d+1 bases."""
    mats, d = _net(bases)
    b = line_indices_through(d.bit_length() - 1, alpha)
    A = -np.eye(d, dtype=complex)
    for j, B in enumerate(mats):
        v = B[:, b[j]]
        A += np.outer(v, v.conj())
    return PhasePointOperator(tuple(alpha), A, b)


def _point_strings(n: int) -> np.ndarray:
    """The string of every point, x-major: per striation, the line through
    the point (as line_indices_through)."""
    d = 1 << n
    x, y = np.divmod(np.arange(d * d), d)
    return np.column_stack([y[:, None] ^ GF(n).table()[:, x].T, x])


def point_levels(bases) -> np.ndarray:
    """lambda_max(A_alpha) at every point, x-major: (d+1) lambda_max(P_b) - 1.

    For a MubSet only one string per Pauli orbit is solved: each phase-point
    string is replaced by its representative with prefix (0, 0)
    (PauliLabels.representatives), the distinct representatives go through
    the selector kernel in one pass, and their levels are scattered back.
    Raw bases solve all d^2 strings; that route is the oracle.
    """
    mats, d = _net(bases)
    strings = _point_strings(d.bit_length() - 1)
    back = np.arange(d * d)
    if isinstance(bases, MubSet):
        reps = bases.pauli_labels.representatives(strings)
        strings, back = np.unique(reps, axis=0, return_inverse=True)
    chunks = _eigmax_chunks(np.stack(mats), strings)
    return (d + 1) * np.concatenate([lam for _, lam in chunks])[back.ravel()] - 1


def wigner_entropy_bound(bases, levels: np.ndarray) -> dict:
    """W_max, the phase-point value of this net in bits (module docstring),
    its selector route and the maximising point alpha.

    alpha is the first point, x-major, within LEVEL_TOL of the top level.
    There the level must match the dense point_operator, and the value the
    dense P_b, to ROUTE_TOL. levels are point_levels(bases).
    """
    d = basis_matrices(bases)[0].shape[0]
    top = int(np.argmax(levels >= levels.max() - LEVEL_TOL))
    lam = float(levels[top])
    A = point_operator(bases, divmod(top, d))
    dense = hermitian_eigmax(A.matrix)[0]
    value = -math.log2((lam + 1) / (d + 1))
    cross = -math.log2(hermitian_eigmax(pvec_operator(bases, A.b).matrix)[0])
    if not (abs(dense - lam) <= ROUTE_TOL and abs(value - cross) <= ROUTE_TOL):
        raise RuntimeError(
            f"at {A.alpha}: kernel level {lam:.12f}, point operator {dense:.12f}; "
            f"Wigner route {value:.12f}, selector route {cross:.12f}"
        )
    return dict(alpha=A.alpha, w_max=lam / d, bits=value, selector_route_bits=cross)


def complete_mub_bases(n: int) -> MubSet:
    """A complete set of d+1 MUBs in d = 2^n: the cycled 2n+1 classes for
    n <= 2, the spread classes otherwise."""
    return build_mub_set(build_classes_2n1(n) if n <= 2 else spread_partition(n))


def spread_partition(n: int) -> Partition:
    """The d+1 commuting classes of a symplectic spread in d = 2^n.

    Classes are indexed by a in GF(2^n) as {(v, S_a v)} where S_a is the
    symmetric GF(2) matrix of the bilinear form Tr(a u v), plus the all-Z
    class; differences S_a + S_b are invertible, so the classes partition all
    nontrivial Paulis and their joint eigenbases are mutually unbiased. No
    cycle spec and no singletons.
    """
    gf = GF(n)
    d = gf.order
    T = gf.table()
    tr, c = np.zeros(d, dtype=np.int64), np.arange(d)
    for _ in range(n):  # Tr(c) = c + c^2 + c^4 + ..., which is 0 or 1
        tr, c = tr ^ c, T[c, c]
    v = np.arange(1, d)
    bit = np.arange(n)
    # bit i of S_a v is Tr(a x^i v): [a, v] masks of every class but Z's
    sv = (tr[T[T[:, v, None], 1 << bit]] << bit).sum(axis=2)
    x = np.vstack([np.broadcast_to(v, sv.shape), np.zeros_like(v)])
    z = np.vstack([sv, v])  # the all-Z class last
    xz = x & z
    phase = sum(xz >> i & 1 for i in range(n)) % 4  # popcount, Y = i X Z
    classes = tuple(
        CommutingClass(tuple(map(PauliTerm, [n] * (d - 1), *rows)), None)
        for rows in zip(x.tolist(), z.tolist(), phase.tolist())
    )
    return Partition(n, d + 1, None, classes)


def phase_space_csv(levels: np.ndarray) -> str:
    """Report rows alpha_x, alpha_y, lambda_max, W_max for every point, from
    the d^2 levels of point_levels, x-major."""
    d = math.isqrt(len(levels))
    lines = ["alpha_x,alpha_y,lambda_max,W_max"]
    for i, lam in enumerate(levels.tolist()):
        lines.append(f"{i // d},{i % d},{lam:.12f},{lam / d:.12f}")
    return "\n".join(lines) + "\n"
