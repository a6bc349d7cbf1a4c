"""Symbolic Pauli monomials and the anticommuting generator set on n qubits.

A monomial is encoded by two n-bit masks and a quarter-phase:

    term = i^phase * (X^xmask) * (Z^zmask)

where bit j of a mask addresses qubit j, X^x is the tensor product of X on
every qubit whose bit is set (likewise Z^z), and phase is an integer mod 4.
Y on qubit j corresponds to both bits set and one unit of phase (Y = i X Z).

Dense matrices place tensor factor 0 as the most significant index, i.e.
qubit 0 is the leftmost factor in the Kronecker product. With that ordering
the integer row index carries qubit j in bit position n-1-j.

The generator set consists of 2n+1 Hermitian involutions that pairwise
anticommute. The first 2n come from the Jordan-Wigner ladder

    G_{2k}   = Y^k (x) X (x) I^(n-k-1)
    G_{2k+1} = Y^k (x) Z (x) I^(n-k-1),      k = 0 .. n-1,

and the last one is the Hermitian multiple of the full product,
G_{2n} = i^(n mod 2) * G_0 G_1 ... G_{2n-1}, so that G_{2n}^2 = +I holds
for every n (a bare factor i only works for odd n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from typing import Sequence

import numpy as np

_PAULI_1Q = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X Z = -iY
}

_PHASES = (1, 1j, -1, -1j)


class DimensionMismatchError(ValueError):
    """Raised when two terms act on different qubit counts."""


@dataclass(frozen=True, slots=True)
class PauliTerm:
    """One monomial i^phase * X^xmask * Z^zmask on n qubits."""

    n: int
    xmask: int
    zmask: int
    phase: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        top = 1 << self.n
        if not (0 <= self.xmask < top and 0 <= self.zmask < top):
            raise ValueError("mask has bits at positions >= n")
        if not 0 <= self.phase < 4:
            raise ValueError(f"phase must be in 0..3, got {self.phase}")

    def __str__(self) -> str:
        return term_to_text(self)


def identity(n: int) -> PauliTerm:
    return PauliTerm(n, 0, 0, 0)


def is_hermitian(a: PauliTerm) -> bool:
    """Hermitian iff the stored phase matches the XZ overlap parity."""
    return (a.phase - (a.xmask & a.zmask).bit_count()) % 2 == 0


def canonical(a: PauliTerm) -> tuple[PauliTerm, int]:
    """Split a Hermitian term into (representative with phase in {0,1}, sign).

    Two terms that differ only by an overall sign share a representative.
    """
    if a.phase < 2:
        return a, 1
    return PauliTerm(a.n, a.xmask, a.zmask, a.phase - 2), -1


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Exact symbolic product a*b with the phase tracked mod 4."""
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} != {b.n}")
    # Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1
    swap = (a.zmask & b.xmask).bit_count()
    return PauliTerm(
        a.n,
        a.xmask ^ b.xmask,
        a.zmask ^ b.zmask,
        (a.phase + b.phase + 2 * swap) % 4,
    )


def commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """Symplectic-form parity test, no dense work."""
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} != {b.n}")
    overlap = (a.xmask & b.zmask).bit_count() + (a.zmask & b.xmask).bit_count()
    return overlap % 2 == 0


def to_dense(a: PauliTerm) -> np.ndarray:
    """Dense 2^n x 2^n matrix, qubit 0 as the most significant tensor factor."""
    factors = [
        _PAULI_1Q[(a.xmask >> j & 1, a.zmask >> j & 1)] for j in range(a.n)
    ]
    return _PHASES[a.phase] * reduce(np.kron, factors)


@cache
def _row_masks(n: int) -> np.ndarray:
    """row_mask of every n-bit mask, built once per n and read-only."""
    m = np.arange(1 << n)
    out = np.zeros_like(m)
    for j in range(n):
        out |= (m >> j & 1) << (n - 1 - j)
    out.flags.writeable = False
    return out


def row_mask(mask, n: int):
    """A qubit mask in row-index bit order: bit j moves to bit n-1-j. An int
    gives an int, an integer array an array, both read from one table per n."""
    out = _row_masks(n)[mask]
    return int(out) if np.ndim(out) == 0 else out


def parity(v) -> np.ndarray:
    """Parity of the number of set bits of every entry of an array of
    non-negative integers, by a fixed XOR fold: each step folds the upper
    half of the remaining width onto the lower half, so bit 0 ends up as
    the XOR of all bits."""
    v = np.array(v)
    shift = v.dtype.itemsize * 4
    while shift:
        v ^= v >> shift
        shift //= 2
    return v & 1


def apply(a: "PauliTerm | Sequence[PauliTerm]", V: np.ndarray) -> np.ndarray:
    """to_dense(a) @ V without forming the matrix; for a sequence of terms,
    their products stacked on a new first axis.

    With x', z' the masks in row-index bit order,
    X^x Z^z |c> = (-1)^|z' & c| |c ^ x'>, so row c ^ x' of the product is
    row c of V scaled by i^phase (-1)^|z' & c|. Every entry is one exact
    product, as in the dense matrix product. V has 2^n rows.
    """
    terms = [a] if isinstance(a, PauliTerm) else a
    n = terms[0].n
    V = np.asarray(V)
    if V.shape[:1] != (1 << n,) or any(t.n != n for t in terms):
        raise DimensionMismatchError(f"{n}-qubit term applied to shape {V.shape}")
    x, z, p = np.array([(t.xmask, t.zmask, t.phase) for t in terms]).T
    src = np.arange(1 << n) ^ row_mask(x, n)[:, None]  # [term, row]
    coeff = np.array(_PHASES)[p, None] * (1 - 2 * parity(src & row_mask(z, n)[:, None]))
    out = coeff.reshape(coeff.shape + (1,) * (V.ndim - 1)) * V[src]
    return out[0] if isinstance(a, PauliTerm) else out


def build_gamma_generators(n: int) -> "GammaSet":
    """The 2n+1 anticommuting Hermitian involutions on n qubits.

    Ordering: G_0, G_1, ..., G_{2n-1} from the Jordan-Wigner ladder (see the
    module docstring), then G_{2n} proportional to the full product.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gammas = []
    for k in range(n):
        ybits = (1 << k) - 1
        gammas.append(PauliTerm(n, ybits | (1 << k), ybits, k % 4))  # Y^k X
        gammas.append(PauliTerm(n, ybits, ybits | (1 << k), k % 4))  # Y^k Z
    last = PauliTerm(n, 0, 0, n % 2)
    for g in gammas:
        last = multiply(last, g)
    gammas.append(last)
    return GammaSet(n, tuple(gammas))


@dataclass(frozen=True, slots=True)
class GammaSet:
    """Ordered generators G_0 .. G_{2n} produced by build_gamma_generators."""

    n: int
    gammas: tuple[PauliTerm, ...]
    # GF(2) elimination of G_0 .. G_{2n-1}, made once for gamma_indices
    pivots: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "pivots", _eliminate(self.n, self.gammas))

    def __len__(self) -> int:
        return len(self.gammas)

    def __getitem__(self, i: int) -> PauliTerm:
        return self.gammas[i]


def gamma_product(gs: GammaSet, indices: Sequence[int], extra_phase: int = 0) -> PauliTerm:
    """Product of the listed generators, in order, times i^extra_phase."""
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate generator index in {indices}")
    out = PauliTerm(gs.n, 0, 0, extra_phase % 4)
    for i in indices:
        if not 0 <= i < len(gs.gammas):
            raise IndexError(f"generator index {i} out of range for n={gs.n}")
        out = multiply(out, gs.gammas[i])
    return out


def gamma_indices(gs: GammaSet, a: PauliTerm) -> tuple[int, ...]:
    """Decompose a monomial as a product of generators, shortest form.

    The generators G_0 .. G_{2n-1} are linearly independent over GF(2), so the
    decomposition restricted to them is unique. Because the product of all
    2n+1 generators is a phase times the identity, a set S and its complement
    in {0..2n} name the same monomial up to phase; the shorter one (at most n
    indices) is returned.
    """
    if a.n != gs.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} != {gs.n}")
    target = a.xmask | a.zmask << gs.n
    sel = 0
    for bit, pr, pc in gs.pivots:
        if target >> bit & 1:
            target ^= pr
            sel ^= pc
    if target:
        raise ValueError("monomial is not a generator product (bad masks)")
    m = 2 * gs.n
    indices = [i for i in range(m) if sel >> i & 1]
    if len(indices) > gs.n:
        indices = [i for i in range(m + 1) if i not in indices]
    return tuple(indices)


def _eliminate(n: int, gammas: Sequence[PauliTerm]) -> tuple[tuple[int, int, int], ...]:
    """Pivot rows (bit, row, combo) of G_0 .. G_{2n-1} over GF(2), highest
    bit first. A row encodes (xmask | zmask << n); combo records which
    generators were added up to build it."""
    rows = [(g.xmask | g.zmask << n) for g in gammas[: 2 * n]]
    pivots: dict[int, tuple[int, int]] = {}
    for i, r in enumerate(rows):
        c = 1 << i
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = (r, c)
                break
            pr, pc = pivots[top]
            r ^= pr
            c ^= pc
    return tuple((bit, r, c) for bit, (r, c) in sorted(pivots.items(), reverse=True))


def term_to_text(a: PauliTerm) -> str:
    """Compact text form used in JSON files: 'i^p X:<hex> Z:<hex> n:<int>'."""
    return f"i^{a.phase} X:{a.xmask:#x} Z:{a.zmask:#x} n:{a.n}"
