"""Unitaries that cyclically permute generator sets by conjugation.

The paper's elementary move is a quarter rotation in the plane of two
generators,

    R(j -> k) = G_k (G_j + G_k) / sqrt(2),

which sends G_j to G_k, G_k to -G_j and fixes every other generator. A full
cycle over a group (g_0, ..., g_{L-1}) composes L-1 such rotations, applied
in position order with alternating direction, preceded by a parity fix F for
even L. The resulting conjugation maps G_{g_t} to G_{g_{t+1 mod L}} with a
plus sign for every t.

One sign cannot be helped: the conjugation action of any unitary on the 2n+1
generators restricts to an orthogonal map on the span of G_0..G_{2n-1}, and
G_{2n} (proportional to their full product) must pick up the determinant of
that map. A single even-length cycle has determinant -1, so it necessarily
flips G_{2n}. All other generators outside the cycled groups stay fixed.

So the action is known from the cycle spec alone (cycle_action), and it is
exact bit-mask arithmetic. A Clifford action is its stabilizer tableau, the
images of the single-qubit X_q and Z_q (CliffordAction): they follow in
closed form from the generator images, as X_k = Y_0 ... Y_{k-1} G_2k,
Z_k = Y_0 ... Y_{k-1} G_2k+1 and Y_q = i G_2q G_2q+1, and a whole array of
monomials is mapped by folding in those images bit by bit. U itself is the
rotation product (cycle_unitary), each rotation one apply of the monomial
G_k G_j, so no dense rotation is multiplied; the rotations' action on X_q
and Z_q is composed exactly alongside and must equal cycle_action, so U is
never read back. conjugate_term, the dense read of U a U^H, stays as the
oracle the tests check U against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import (
    GammaSet,
    PauliTerm,
    apply,
    commutes,
    identity,
    multiply,
    parity,
    row_mask,
    to_dense,
)

MONOMIAL_TOL = 1e-8


class ConstructionError(RuntimeError):
    """A synthesized unitary failed its own conjugation checks."""


class NotAMonomialError(ValueError):
    """Conjugation result is not a signed Pauli monomial."""


@dataclass(frozen=True)
class CycleSpec:
    """Disjoint generator-index groups, each cycled by one unitary."""

    n: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("need at least one group")
        lengths = {len(g) for g in self.groups}
        if len(lengths) != 1:
            raise ValueError(f"groups must share one length, got {sorted(lengths)}")
        if self.cycle_length < 2:
            raise ValueError("cycle length must be at least 2")
        flat = [i for g in self.groups for i in g]
        if len(set(flat)) != len(flat):
            raise ValueError("groups overlap")
        if any(not 0 <= i <= 2 * self.n for i in flat):
            raise ValueError(f"generator index out of range for n={self.n}")

    @property
    def cycle_length(self) -> int:
        return len(self.groups[0])

    def shift(self, i: int) -> int:
        """Image of generator index i under one cycle step."""
        for g in self.groups:
            if i in g:
                return g[(g.index(i) + 1) % len(g)]
        return i


@dataclass(frozen=True)
class CliffordAction:
    """Conjugation a -> U a U^H on monomials, exactly, as a stabilizer
    tableau (Aaronson and Gottesman, PRA 70, 052328).

    Row k of (x, z, phase) is the image i^phase[k] X^x[k] Z^z[k] of X_k for
    k < n and of Z_{k-n} for k >= n, its sign folded into the phase.
    Conjugation is an algebra automorphism, so i^p X^x Z^z maps to i^p
    times the product of the images of its bits, x bits first.
    """

    n: int
    x: tuple[int, ...]
    z: tuple[int, ...]
    phase: tuple[int, ...]

    def conjugate_masks(self, x, z, phase):
        """U a U^H for every a = i^phase X^x Z^z of the mask arrays, as
        (x', z', phase', sign) with phase' in {0, 1} (canonical) and sign
        +-1. Each set bit k multiplies in row k on the right, adding
        p_k + 2 parity(z & x_k) to the phase (pauli.multiply), the parity
        read from one table of the 2^n masks."""
        n = self.n
        x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        ox, oz = np.zeros_like(x), np.zeros_like(z)
        ph = np.array(phase, dtype=np.int64)
        two_parity = 2 * parity(np.arange(1 << n))
        for k, (tx, tz, tp) in enumerate(zip(self.x, self.z, self.phase)):
            on = (x >> k if k < n else z >> k - n) & 1
            ph += on * (tp + two_parity[oz & tx])
            ox ^= -on & tx
            oz ^= -on & tz
        ph %= 4
        return ox, oz, ph & 1, 1 - (ph & 2)


def _tableau_rows(images: Sequence[PauliTerm]) -> list[PauliTerm]:
    """The images of X_0 .. X_{n-1}, Z_0 .. Z_{n-1} under an automorphism
    that sends ladder generator G_i to images[i], i < 2n: in closed form,
    X_k = Y_0 ... Y_{k-1} G_2k and Z_k = Y_0 ... Y_{k-1} G_2k+1, with
    Y_q = i G_2q G_2q+1."""
    n = images[0].n
    ys = identity(n)  # the image of Y_0 ... Y_{k-1}
    xs, zs = [], []
    for k in range(n):
        gx, gz = images[2 * k], images[2 * k + 1]
        xs.append(multiply(ys, gx))
        zs.append(multiply(ys, gz))
        ys = multiply(ys, multiply(PauliTerm(n, 0, 0, 1), multiply(gx, gz)))
    return xs + zs


def cycle_action(gs: GammaSet, spec: CycleSpec) -> CliffordAction:
    """The action every cycle unitary for spec has, derived from spec alone.

    G_i -> G_shift(i) with sign +1 for the 2n ladder generators, which fix
    the tableau (_tableau_rows). The image of G_2n = i^(n mod 2) G_0 ...
    G_{2n-1}, the same product of their images, follows from the rows, and
    with it the determinant sign.
    """
    if spec.n != gs.n:
        raise ValueError(f"spec built for n={spec.n}, generators for n={gs.n}")
    rows = _tableau_rows([gs[spec.shift(i)] for i in range(2 * gs.n)])
    masks = ((r.xmask, r.zmask, r.phase) for r in rows)
    return CliffordAction(gs.n, *zip(*masks))


def cycle_unitary(gs: GammaSet, spec: CycleSpec) -> tuple[np.ndarray, CliffordAction]:
    """Dense unitary whose conjugation cycles each group of generators, and
    its exact action cycle_action(gs, spec), for callers to hand on.

    U is the paper's quarter-rotation product, phase included: each group's
    rotations R(j -> k) = (I + P)/sqrt(2), P = G_k G_j, in position order
    with alternating direction, after the parity fixes F for even L. Each
    rotation is one apply of the monomial P, so no dense rotation is formed.
    The action of every factor on X_q and Z_q is composed exactly alongside
    (R a R^H is P a where a anticommutes with P, a elsewhere) and must be
    cycle_action(gs, spec); otherwise ConstructionError names the first
    row that differs.
    """
    if spec.n != gs.n:
        raise ValueError(f"spec built for n={spec.n}, generators for n={gs.n}")
    n, L, last = gs.n, spec.cycle_length, 2 * gs.n
    if L % 2 == 0 and any(last in g for g in spec.groups):
        # determinant obstruction: an even cycle through G_{2n} cannot close
        # with all plus signs
        raise ValueError(f"even-length cycle may not contain G_{last}")
    U = np.eye(2**n, dtype=complex)
    # U X_q U^H, then U Z_q U^H, exactly
    rows = [PauliTerm(n, 1 << q, 0, 0) for q in range(n)]
    rows += [PauliTerm(n, 0, 1 << q, 0) for q in range(n)]
    if L % 2 == 0:
        # each group's fix G_{2n} G_{g_{L-1}} flips its wrap-around sign and
        # commutes with the other groups' rotations, so their product F is
        # the rightmost factor; F a F^H = -a where a anticommutes with F
        F = identity(n)
        for g in spec.groups:
            F = multiply(multiply(gs[last], gs[g[-1]]), F)
        U = to_dense(F)
        minus = PauliTerm(n, 0, 0, 2)
        rows = [a if commutes(F, a) else multiply(minus, a) for a in rows]
    for g in spec.groups:
        for t in range(1, L):
            j, k = (g[0], g[t]) if t % 2 == 1 else (g[t], g[0])
            P = multiply(gs[k], gs[j])
            U = (U + apply(P, U)) / np.sqrt(2)
            rows = [a if commutes(P, a) else multiply(P, a) for a in rows]
    action = cycle_action(gs, spec)
    wanted = map(PauliTerm, [n] * 2 * n, action.x, action.z, action.phase)
    for k, (term, want) in enumerate(zip(rows, wanted)):
        if term != want:
            name = f"{'XZ'[k // n]}_{k % n}"
            raise ConstructionError(f"{name} maps onto {term}, wanted {want}")
    return U, action


def conjugate_term(U: np.ndarray, a: PauliTerm) -> tuple[PauliTerm, float]:
    """Resolve U a U^H as a monomial, its sign in the phase, and the
    residual: the max-abs deviation of the dense U a U^H from that
    monomial. Raises if no monomial matches.
    """
    d = 2**a.n
    if U.shape != (d, d):
        raise ValueError(f"unitary is {U.shape}, term lives in dimension {d}")
    img = U @ apply(a, U.conj().T)
    # A signed monomial has one nonzero entry per column, at row c ^ rx where
    # rx is the X mask in integer-index bit order (qubit j <-> bit n-1-j).
    col0 = img[:, 0]
    r = int(np.argmax(np.abs(col0)))
    val = col0[r]
    if abs(abs(val) - 1.0) > MONOMIAL_TOL:
        raise NotAMonomialError(f"leading entry magnitude {abs(val):.6f} != 1")
    rx = r
    rz = 0
    for bit in range(a.n):
        c = 1 << bit
        ratio = img[c ^ rx, c] / val
        if abs(ratio + 1) < abs(ratio - 1):
            rz |= c
    phase = int(np.argmin([abs(val - p) for p in (1, 1j, -1, -1j)]))
    guess = PauliTerm(a.n, row_mask(rx, a.n), row_mask(rz, a.n), phase)
    residual = np.max(np.abs(img - apply(guess, np.eye(d))))
    if residual > MONOMIAL_TOL:
        raise NotAMonomialError(
            f"conjugation residual {residual:.3e} exceeds {MONOMIAL_TOL}"
        )
    return guess, float(residual)
