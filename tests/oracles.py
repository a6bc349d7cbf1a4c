"""Reference definitions the tests check mubforge against.

Each is a direct or independent route to something the package computes, or
a reading of its output files; no command runs them, so they live here and
not in mubforge. scipy, which mubforge does not need, is imported here only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from mubforge.classes import CommutingClass, Partition
from mubforge.entropy import (
    DEFAULT_BUDGET,
    SWEEP_CHUNK,
    _checked_matrices,
    _eigmax_chunks,
    _sweep_size,
    hermitian_eigmax,
)
from mubforge.mub import MubSet, basis_matrices, fix_phase
from mubforge.pauli import PauliTerm, build_gamma_generators, gamma_indices
from mubforge.transform import CycleSpec
from mubforge.wigner import GF, PhasePointOperator, point_operator

# ----------------------------------------------------------------- pauli


def term_from_text(text: str) -> PauliTerm:
    """The monomial of pauli.term_to_text's 'i^p X:<hex> Z:<hex> n:<int>'."""
    parts = text.split()
    if len(parts) != 4 or not parts[0].startswith("i^"):
        raise ValueError(f"malformed term text: {text!r}")
    fields = {}
    fields["phase"] = int(parts[0][2:])
    for p in parts[1:]:
        key, _, val = p.partition(":")
        fields[key] = val
    return PauliTerm(
        n=int(fields["n"]),
        xmask=int(fields["X"], 16),
        zmask=int(fields["Z"], 16),
        phase=fields["phase"],
    )


# --------------------------------------------------------------- classes


def _as_indices(a) -> tuple[int, ...]:
    if isinstance(a, PauliTerm):
        gs = build_gamma_generators(a.n)
        return gamma_indices(gs, a)
    return tuple(a)


def spacing(a: "PauliTerm | Sequence[int]", p: int) -> int:
    """(j - i) mod p for a two-generator monomial G_i G_j (i < j)."""
    idx = _as_indices(a)
    if len(idx) != 2:
        raise ValueError(f"spacing needs a length-2 monomial, got length {len(idx)}")
    i, j = idx
    if not (i < p and j < p):
        raise ValueError(f"indices {idx} not below cycle length {p}")
    return (j - i) % p


def index_sum(a: "PauliTerm | Sequence[int]", p: int) -> int:
    """Sum of constituent generator indices mod p."""
    return sum(_as_indices(a)) % p


def partition_from_json(text: str) -> Partition:
    """The Partition that classes.partition_to_json wrote."""
    doc = json.loads(text)
    spec = doc["spec"]  # null for a partition without a cycle, as a spread
    spec = spec and CycleSpec(spec["n"], tuple(tuple(g) for g in spec["groups"]))
    classes = tuple(
        CommutingClass(
            tuple(term_from_text(t) for t in c["members"]),
            c["singleton"],
        )
        for c in doc["classes"]
    )
    return Partition(doc["n"], doc["L"], spec, classes)


# ------------------------------------------------------------------- mub


def invariant_states(ms: MubSet) -> list[tuple[np.ndarray, complex]]:
    """All unit eigenvectors of the cycling unitary with their eigenphases.

    U is normal, so the complex Schur form is diagonal and its columns are an
    orthonormal eigenbasis; this is stable even for degenerate phases.
    """
    T, Zm = scipy.linalg.schur(ms.U, output="complex")
    return [(fix_phase(Zm[:, i]), complex(T[i, i])) for i in range(ms.d)]


def symmetrize(rho: np.ndarray, U: np.ndarray, L: int) -> np.ndarray:
    """Average rho over conjugations by U^j, j = 0..L-1."""
    rho = np.asarray(rho, dtype=complex)
    if abs(np.trace(rho) - 1) > 1e-8:
        raise ValueError(f"trace is {np.trace(rho):.6g}, want 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w.min() < -1e-8:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    out = np.zeros_like(rho)
    Uj = np.eye(rho.shape[0], dtype=complex)
    for _ in range(L):
        out += Uj.conj().T @ rho @ Uj
        Uj = U @ Uj
    return out / L


# --------------------------------------------------------------- entropy


def iter_sweep_rows(ms, budget: int = DEFAULT_BUDGET, chunk: int = SWEEP_CHUNK):
    """Yield (b, lambda_max) for every string in lexicographic order, with
    no reduction."""
    mats = _checked_matrices(ms)
    total = _sweep_size(mats, budget)
    for digits, lam, _ in _eigmax_chunks(np.stack(mats), range(total), chunk):
        yield from zip(map(tuple, digits.tolist()), lam.tolist())


# ---------------------------------------------------------------- wigner

VERTICAL = "inf"


@dataclass(frozen=True)
class Line:
    slope: "int | str"
    intercept: int
    points: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Striation:
    slope: "int | str"
    lines: tuple[Line, ...]


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


def all_point_operators(bases) -> list[PhasePointOperator]:
    """The d^2 dense point operators, x-major."""
    d = basis_matrices(bases)[0].shape[0]
    return [point_operator(bases, divmod(i, d)) for i in range(d * d)]


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


def relabeled(bases, assignment) -> list[np.ndarray]:
    """The matrices of bases with the columns of basis j in the order
    assignment[j]: the net that matches line c of striation j with element
    assignment[j][c] instead of c."""
    return [B[:, list(a)] for B, a in zip(basis_matrices(bases), assignment)]
