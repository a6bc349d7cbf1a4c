"""Unitaries that cyclically permute generator sets by conjugation.

The elementary move is a quarter rotation in the plane of two generators,

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
flips G_{2n}. All other generators outside the cycled groups are required to
stay fixed exactly; any other sign flip is treated as a construction bug.

Since U permutes the generators up to sign, it maps every monomial to a
signed monomial, and that image is exact bit-mask arithmetic: the images of
the single-qubit X_q and Z_q follow from the generator images, and a whole
array of monomials is mapped by folding in those images bit by bit
(CliffordAction). Dense matrices enter only where U itself is built and
where its action on the 2n+1 generators is read off and checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .pauli import (
    GammaSet,
    PauliTerm,
    apply,
    canonical,
    gamma_indices,
    gamma_product,
    multiply,
    parity,
    row_mask,
    to_dense,
)

UNITARITY_TOL = 1e-10
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
    """Conjugation a -> U a U^H on monomials, exactly.

    images[i] is U G_i U^H with its sign folded into the phase. Conjugation
    is an algebra automorphism, so i^k G_i1 ... G_im maps to
    i^k images[i1] ... images[im]. The map is applied as a stabilizer
    tableau (Aaronson and Gottesman, PRA 70, 052328): the images of X_q and
    Z_q are read once from the generator images, and i^p X^x Z^z maps to
    i^p times the product of the images of its bits, x bits first.
    """

    gs: GammaSet
    images: tuple[PauliTerm, ...]
    # worst dense residual of the read that gave images (0: derived exactly)
    residual: float = field(default=0.0, compare=False)

    @cached_property
    def tableau(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, z, phase) of the images of X_0 .. X_{n-1}, Z_0 .. Z_{n-1}."""
        n = self.gs.n
        rows = []
        for x, z in [(1 << q, 0) for q in range(n)] + [(0, 1 << q) for q in range(n)]:
            idx = gamma_indices(self.gs, PauliTerm(n, x, z, 0))
            out = PauliTerm(n, 0, 0, -gamma_product(self.gs, idx).phase % 4)
            for i in idx:
                out = multiply(out, self.images[i])
            rows.append((out.xmask, out.zmask, out.phase))
        return tuple(np.array(col, dtype=np.int64) for col in zip(*rows))

    def conjugate_masks(self, x, z, phase):
        """U a U^H for every a = i^phase X^x Z^z of the mask arrays, as
        (x', z', phase', sign) with phase' in {0, 1} (canonical) and sign
        +-1. Each set bit k multiplies in image k on the right, adding
        p_k + 2 parity(z & x_k) to the phase (pauli.multiply)."""
        tx, tz, tp = self.tableau
        n = self.gs.n
        x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        ox, oz = np.zeros_like(x), np.zeros_like(z)
        ph = np.array(phase, dtype=np.int64)
        for k in range(2 * n):
            on = (x >> k if k < n else z >> k - n) & 1
            ph += on * (tp[k] + 2 * parity(oz & tx[k]))
            ox ^= -on & tx[k]
            oz ^= -on & tz[k]
        ph %= 4
        return ox, oz, ph & 1, 1 - (ph & 2)


def clifford_action(gs: GammaSet, U: np.ndarray) -> CliffordAction:
    """Read U's action off its 2n+1 generator images (dense, checked),
    keeping the worst monomial residual of the read."""
    images, residuals = zip(*(conjugate_term(U, g) for g in gs.gammas))
    return CliffordAction(gs, images, max(residuals))


def cycle_action(gs: GammaSet, spec: CycleSpec) -> CliffordAction:
    """The action every cycle unitary for spec has, derived from spec alone.

    G_i -> G_shift(i) with sign +1 for the 2n ladder generators; the image of
    G_2n = i^(n mod 2) G_0 ... G_{2n-1} is the same product of their images,
    which carries the determinant sign.
    """
    if spec.n != gs.n:
        raise ValueError(f"spec built for n={spec.n}, generators for n={gs.n}")
    images = [gs[spec.shift(i)] for i in range(2 * gs.n)]
    last = PauliTerm(gs.n, 0, 0, gs.n % 2)
    for g in images:
        last = multiply(last, g)
    return CliffordAction(gs, (*images, last))


def assert_unitary(U: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    d = U.shape[0]
    err = np.linalg.norm(U.conj().T @ U - np.eye(d))
    if err > tol:
        raise ConstructionError(f"matrix is not unitary, |U^H U - I|_F = {err:.3e}")


def rotation_unitary(gs: GammaSet, j: int, k: int) -> np.ndarray:
    """Quarter rotation sending G_j to G_k (and G_k to -G_j)."""
    if j == k:
        raise ValueError("rotation needs two distinct generators")
    m = 2 * gs.n + 1
    if not (0 <= j < m and 0 <= k < m):
        raise IndexError(f"generator index out of range: ({j}, {k}) for n={gs.n}")
    gj, gk = to_dense(gs[j]), to_dense(gs[k])
    return gk @ (gj + gk) / np.sqrt(2)


def cycle_unitary(gs: GammaSet, spec: CycleSpec) -> tuple[np.ndarray, CliffordAction]:
    """Dense unitary whose conjugation cycles each group of generators, and
    its action read once by clifford_action, for callers to hand on.

    The postcondition is verified before returning: U's action on the
    generators is cycle_action(gs, spec) exactly. So every group index maps
    one step forward with sign +1, every untouched generator except G_{2n}
    maps to itself, and G_{2n} maps to itself times the forced determinant
    sign. Violations raise ConstructionError.
    """
    if spec.n != gs.n:
        raise ValueError(f"spec built for n={spec.n}, generators for n={gs.n}")
    d = 2**gs.n
    L = spec.cycle_length
    last = 2 * gs.n
    if L % 2 == 0 and any(last in g for g in spec.groups):
        # determinant obstruction: an even cycle through G_{2n} cannot close
        # with all plus signs
        raise ValueError(f"even-length cycle may not contain G_{last}")
    U = np.eye(d, dtype=complex)
    for g in spec.groups:
        Ug = np.eye(d, dtype=complex)
        if L % 2 == 0:
            # F flips the wrap-around sign; applied first (rightmost factor)
            Ug = to_dense(multiply(gs[last], gs[g[-1]]))
        for t in range(1, L):
            if t % 2 == 1:
                R = rotation_unitary(gs, g[0], g[t])
            else:
                R = rotation_unitary(gs, g[t], g[0])
            Ug = R @ Ug
        U = Ug @ U
    assert_unitary(U)

    action = clifford_action(gs, U)
    for i, (term, want) in enumerate(zip(action.images, cycle_action(gs, spec).images)):
        if canonical(term)[0] != canonical(want)[0]:
            raise ConstructionError(f"G{i} maps onto {term}, wanted {want}")
        if term != want:
            raise ConstructionError(f"G{i} maps onto {term}, wanted the sign of {want}")
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
