"""Discrete phase space over GF(2^n): striations, point operators, Wigner values.

Phase space is the set of pairs (x, y) with x, y in GF(2^n). For each slope m
the lines {y = m x + c}_c form a striation (d parallel lines of d points);
the vertical lines {x = c}_c form one more, giving d+1 striations in total.
Striation j is matched with basis j of a complete set of d+1 mutually
unbiased bases, one line per basis element through a per-striation bijection
(identity by default; every bijection satisfies the trace identities below).

The point operator at alpha sums the d+1 line projectors through alpha and
subtracts the identity:

    A_alpha = sum_{lines through alpha} Q(line) - I,
    tr A_alpha = 1,   tr(A_alpha A_beta) = d delta_{alpha beta},

and W_alpha(rho) = tr(A_alpha rho)/d is the discrete Wigner function. Since
A_alpha + I equals the sum-form selector operator of the string of line
indices through alpha, the maximum Wigner value yields the min-entropy bound

    (1/(d+1)) sum_j H_inf(B_j) >= -log2[ (d W_max + 1) / (d+1) ],

which is exactly -log2 of the top eigenvalue of the mean-form selector over
phase-point strings. (The printed form of this bound sometimes appears
without the 1/(d+1) normalization, which would exceed 1 inside the log; the
normalized form is used here and both readings are reported on request.)

complete_mub_bases(n) builds the complete set with mub.build_mub_set, from
the cycled 2n+1 = d+1 classes for n <= 2 and otherwise from the symplectic
spread spread_partition(n), which has no cycle spec and so no U.

Irreducible polynomials, fixed per n: x (n=1), x^2+x+1, x^3+x+1, x^4+x+1,
x^5+x^2+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import CommutingClass, Partition, build_classes_2n1
from .entropy import hermitian_eigmax, pvec_operator
from .mub import MubSet, basis_matrices, build_mub_set
from .pauli import PauliTerm

IRREDUCIBLE = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}

VERTICAL = "inf"
ROUTE_TOL = 1e-9  # the Wigner route and the selector route agree to this


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

    def pow(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^n)")
        return self.pow(a, self.order - 2)


@dataclass(frozen=True)
class Line:
    slope: "int | str"
    intercept: int
    points: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Striation:
    slope: "int | str"
    lines: tuple[Line, ...]


@dataclass(frozen=True)
class PhasePointOperator:
    alpha: tuple[int, int]
    matrix: np.ndarray
    b: tuple[int, ...]  # line index through alpha, per striation


def striations(n: int) -> list[Striation]:
    """The d+1 striations: slopes 0..d-1 in field order, vertical last."""
    gf = GF(n)
    d = gf.order
    out = []
    for m in range(d):
        lines = tuple(
            Line(m, c, tuple((x, gf.add(gf.mul(m, x), c)) for x in range(d)))
            for c in range(d)
        )
        out.append(Striation(m, lines))
    vertical = tuple(
        Line(VERTICAL, c, tuple((c, y) for y in range(d))) for c in range(d)
    )
    out.append(Striation(VERTICAL, vertical))
    return out


def line_indices_through(n: int, alpha: tuple[int, int]) -> tuple[int, ...]:
    """Per striation, the intercept index of the line containing alpha."""
    gf = GF(n)
    x, y = alpha
    d = gf.order
    if not (0 <= x < d and 0 <= y < d):
        raise ValueError(f"point {alpha} outside the {d}x{d} phase space")
    return tuple(gf.add(y, gf.mul(m, x)) for m in range(d)) + (x,)


def _check_assignment(assignment, L: int, d: int) -> list[tuple[int, ...]]:
    if assignment is None:
        return [tuple(range(d))] * L
    if len(assignment) != L:
        raise ValueError(f"assignment has {len(assignment)} rows, want {L}")
    rows = []
    for j, row in enumerate(assignment):
        row = tuple(int(x) for x in row)
        if sorted(row) != list(range(d)):
            raise ValueError(f"assignment row {j} is not a bijection on 0..{d - 1}")
        rows.append(row)
    return rows


def point_operator(
    bases, alpha: tuple[int, int], assignment=None
) -> PhasePointOperator:
    """A_alpha for a complete set of d+1 bases."""
    mats = basis_matrices(bases)
    d = mats[0].shape[0]
    if len(mats) != d + 1:
        raise ValueError(f"need a complete set of {d + 1} bases, got {len(mats)}")
    n = d.bit_length() - 1
    assign = _check_assignment(assignment, d + 1, d)
    lines = line_indices_through(n, alpha)
    b = tuple(assign[j][lines[j]] for j in range(d + 1))
    A = -np.eye(d, dtype=complex)
    for j, B in enumerate(mats):
        v = B[:, b[j]]
        A += np.outer(v, v.conj())
    return PhasePointOperator(tuple(alpha), A, b)


def wigner_value(A: PhasePointOperator, rho: np.ndarray) -> float:
    """W_alpha(rho) = tr(A_alpha rho) / d."""
    rho = np.asarray(rho, dtype=complex)
    d = A.matrix.shape[0]
    if abs(np.trace(rho) - 1) > 1e-8:
        raise ValueError(f"state trace {np.trace(rho):.6g}, want 1")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-8:
        raise ValueError("state is not PSD")
    return float(np.real(np.trace(A.matrix @ rho)) / d)


def wigner_max(A: PhasePointOperator) -> float:
    """Maximum of W_alpha over states: lambda_max(A_alpha)/d."""
    lam, _ = hermitian_eigmax(A.matrix)
    return lam / A.matrix.shape[0]


def all_point_operators(bases, assignment=None) -> list[PhasePointOperator]:
    d = basis_matrices(bases)[0].shape[0]
    return [
        point_operator(bases, (x, y), assignment)
        for x in range(d)
        for y in range(d)
    ]


def point_levels(bases, assignment=None) -> list[tuple[PhasePointOperator, float]]:
    """Every point operator with its top eigenvalue, one eigensolve each."""
    return [
        (A, hermitian_eigmax(A.matrix)[0])
        for A in all_point_operators(bases, assignment)
    ]


def wigner_entropy_bound(bases, assignment=None, verbose: bool = False, levels=None):
    """Min-entropy bound from the Wigner maximum, for the complete set.

    Returns -log2[(d W_max + 1)/(d+1)] and cross-checks it against the
    mean-form selector route, which is the same number by the identity
    A_alpha + I = sum-form P_b: that identity is checked at every point, and
    the selector route's number is -log2 of the top eigenvalue of P_b at the
    maximising point. levels, as returned by point_levels, spares solving
    the points again. With verbose=True a dict holding both the normalized
    and the raw printed reading is returned instead.
    """
    d = basis_matrices(bases)[0].shape[0]
    if levels is None:
        levels = point_levels(bases, assignment)
    top, lam_A = max(levels, key=lambda level: level[1])
    w_max = lam_A / d
    value = -math.log2((d * w_max + 1) / (d + 1))
    eye = np.eye(d)
    for A, _ in levels:
        P = pvec_operator(bases, A.b, "mean").matrix
        dev = float(np.max(np.abs(A.matrix + eye - (d + 1) * P)))
        if dev > ROUTE_TOL:
            raise RuntimeError(
                f"A{A.alpha} + I differs from the selector operator of {A.b} by {dev:.3e}"
            )
    cross = -math.log2(hermitian_eigmax(pvec_operator(bases, top.b, "mean").matrix)[0])
    if abs(value - cross) > ROUTE_TOL:
        raise RuntimeError(
            f"Wigner route {value:.12f} and selector route {cross:.12f} disagree"
        )
    if verbose:
        return {
            "bound_bits": value,
            "selector_route_bits": cross,
            "w_max": w_max,
            "raw_unnormalized_reading": -math.log2(d * (w_max + 1)),
        }
    return value


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

    def trace(c: int) -> int:
        t = 0
        for _ in range(n):
            t, c = t ^ c, gf.mul(c, c)
        return t & 1

    def s_matrix(a: int) -> list[int]:
        # column masks of v -> S_a v in the polynomial basis
        return [
            sum(trace(gf.mul(a, gf.mul(1 << i, 1 << j))) << i for i in range(n))
            for j in range(n)
        ]

    def apply_cols(cols: list[int], v: int) -> int:
        out = 0
        for j in range(n):
            if v >> j & 1:
                out ^= cols[j]
        return out

    masks = []  # the (x, z) masks of each class's members
    for a in range(d):
        cols = s_matrix(a)
        masks.append([(v, apply_cols(cols, v)) for v in range(1, d)])
    masks.append([(0, z) for z in range(1, d)])  # the all-Z class
    classes = tuple(
        CommutingClass(
            tuple(PauliTerm(n, x, z, (x & z).bit_count() % 4) for x, z in c), None
        )
        for c in masks
    )
    return Partition(n, d + 1, None, classes)


def phase_space_csv(bases, assignment=None, levels=None) -> str:
    """Report rows alpha_x, alpha_y, lambda_max, W_max for every point.

    levels, as returned by point_levels, spares solving the points again.
    """
    if levels is None:
        levels = point_levels(bases, assignment)
    lines = ["alpha_x,alpha_y,lambda_max,W_max"]
    for A, lam in levels:
        lines.append(
            f"{A.alpha[0]},{A.alpha[1]},{lam:.12f},{lam / A.matrix.shape[0]:.12f}"
        )
    return "\n".join(lines) + "\n"
