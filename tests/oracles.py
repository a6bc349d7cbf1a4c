"""Reference definitions the tests check mubforge against.

Each is a direct or independent route to something the package computes, or
a reading of its output files; no command runs them, so they live here and
not in mubforge. scipy, which mubforge does not need, is imported here only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.linalg

from mubforge.classes import CommutingClass, Partition
from mubforge.entropy import (
    DEFAULT_BUDGET,
    _checked_matrices,
    _eigmax_chunks,
    _sweep_size,
    hermitian_eigmax,
)
from mubforge.mub import (
    Basis,
    MubSet,
    PauliLabels,
    _pair_deviations,
    basis_matrices,
    cycle_coherent_family,
    fix_phase,
)
from mubforge.pauli import (
    DimensionMismatchError,
    GammaSet,
    PauliTerm,
    build_gamma_generators,
    multiply,
    to_dense,
)
from mubforge.transform import (
    CliffordAction,
    CycleSpec,
    NotAMonomialError,
    conjugate_term,
)
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


def canonical(a: PauliTerm) -> tuple[PauliTerm, int]:
    """Split a Hermitian term into (representative with phase in {0,1}, sign).

    Two terms that differ only by an overall sign share a representative.
    """
    if a.phase < 2:
        return a, 1
    return PauliTerm(a.n, a.xmask, a.zmask, a.phase - 2), -1


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
    for bit, pr, pc in _eliminate(gs):
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


@lru_cache(maxsize=None)
def _eliminate(gs: GammaSet) -> tuple[tuple[int, int, int], ...]:
    """Pivot rows (bit, row, combo) of G_0 .. G_{2n-1} over GF(2), highest
    bit first. A row encodes (xmask | zmask << n); combo records which
    generators were added up to build it."""
    n = gs.n
    pivots: dict[int, tuple[int, int]] = {}
    for i, g in enumerate(gs.gammas[: 2 * n]):
        r, c = g.xmask | g.zmask << n, 1 << i
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = (r, c)
                break
            pr, pc = pivots[top]
            r ^= pr
            c ^= pc
    return tuple((bit, r, c) for bit, (r, c) in sorted(pivots.items(), reverse=True))


# ------------------------------------------------------------- transform


def rotation_unitary(gs: GammaSet, j: int, k: int) -> np.ndarray:
    """Quarter rotation R(j -> k) = G_k (G_j + G_k) / sqrt(2), dense: it
    sends G_j to G_k, G_k to -G_j and fixes every other generator."""
    if j == k:
        raise ValueError("rotation needs two distinct generators")
    m = 2 * gs.n + 1
    if not (0 <= j < m and 0 <= k < m):
        raise IndexError(f"generator index out of range: ({j}, {k}) for n={gs.n}")
    gj, gk = to_dense(gs[j]), to_dense(gs[k])
    return gk @ (gj + gk) / np.sqrt(2)


def rotation_product(gs: GammaSet, spec: CycleSpec) -> np.ndarray:
    """The cycle unitary of spec as the dense product of quarter rotations,
    which transform.cycle_unitary applies monomial by monomial: per group,
    the parity fix G_{2n} G_{g_{L-1}} first for even L, then R(g_0 -> g_t)
    for odd t and R(g_t -> g_0) for even t, t = 1..L-1."""
    d, L, last = 2**gs.n, spec.cycle_length, 2 * gs.n
    U = np.eye(d, dtype=complex)
    for g in spec.groups:
        Ug = np.eye(d, dtype=complex)
        if L % 2 == 0:
            Ug = to_dense(multiply(gs[last], gs[g[-1]]))
        for t in range(1, L):
            j, k = (g[0], g[t]) if t % 2 == 1 else (g[t], g[0])
            Ug = rotation_unitary(gs, j, k) @ Ug
        U = Ug @ U
    return U


def clifford_action(U: np.ndarray) -> CliffordAction:
    """U's tableau read densely, one conjugate_term each of the images of
    X_q and Z_q; raises NotAMonomialError unless U is Clifford."""
    n = U.shape[0].bit_length() - 1
    units = [(1 << q, 0) for q in range(n)] + [(0, 1 << q) for q in range(n)]
    rows = [conjugate_term(U, PauliTerm(n, x, z, 0))[0] for x, z in units]
    return CliffordAction(
        n,
        tuple(r.xmask for r in rows),
        tuple(r.zmask for r in rows),
        tuple(r.phase for r in rows),
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


EIGEN_TOL = 1e-8  # |eigenvalue| - 1 allowed to a dense eigensolver


def carried_by(pauli_labels: PauliLabels, pi: np.ndarray) -> bool:
    """Whether the label maps pi (MubSet.cycle_permutations) carry every
    Pauli to one Pauli: pi_j(W.b) = W'.pi_j(b) on every basis j, with one
    W' for each W. Then a map with these label maps sends Pauli orbits of
    strings onto Pauli orbits."""
    tau, pauli_of = pauli_labels.tau, pauli_labels.pauli_of
    L, d = pi.shape
    j, nxt = np.arange(L)[:, None], np.roll(np.arange(L), -1)
    moved = pi[j, np.arange(d) ^ tau.T[:, :, None]] ^ pi  # [W, j, b]
    # W' from the labels it must flip in bases 0 (j = L-1) and 1 (j = 0)
    image = pauli_of[moved[:, -1, 0], moved[:, 0, 0]]
    return bool(np.all(moved == tau[nxt][:, image].T[:, :, None]))


def set_by_hand(bases, U: np.ndarray, provenance: Partition) -> MubSet:
    """A MubSet of these bases and U, with U's action read densely by
    clifford_action, or None (no label maps) when U is not Clifford, and
    the unbiasedness deviation of the bases."""
    try:
        action = clifford_action(U)
    except NotAMonomialError:
        action = None
    bases = tuple(bases)
    return MubSet(bases, U, provenance, raw_unbiasedness_deviation(bases), action)


def raw_unbiasedness_deviation(bases) -> float:
    """max over cross-basis pairs of | |<a|b>|^2 - 1/d | for bases that are
    not a built MubSet (which keeps the value of its build)."""
    worst = 0.0
    for _, _, dev, _, _ in _pair_deviations(basis_matrices(bases)):
        worst = max(worst, dev)
    return worst


def sign_patterns(members: Sequence[PauliTerm], basis: Basis) -> tuple:
    """The sign of every member on every column, column by column, read
    densely as the real part of <v|M|v>."""
    mats = [to_dense(M) for M in members]
    V = basis.vectors
    signs = [np.rint(np.einsum("ij,ik,kj->j", V.conj(), M, V).real) for M in mats]
    return tuple(map(tuple, np.array(signs, dtype=int).T.tolist()))


def phase_ramp_states(ms: MubSet, coefficients) -> list[np.ndarray]:
    """Normalized sums sum_j c_j U^j |b^(0)> over all b; near-null sums are
    dropped. With c_j = exp(i pi j / 4) and a cycle satisfying U^4 = -I these
    reproduce the bound-attaining invariant superpositions in dimension 4."""
    out = []
    for b in range(ms.d):
        psi = cycle_coherent_family(ms, b) @ np.asarray(coefficients, dtype=complex)
        nrm = np.linalg.norm(psi)
        if nrm > 1e-8:
            out.append(fix_phase(psi / nrm))
    return out


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


def digit_orbit_step(ms):
    """mub.orbit_maps's f on (m, L) digit rows, step by step: U.b from the
    label maps, rolled into place, then its Pauli representative."""
    pi = ms.cycle_permutations
    if pi is None or not carried_by(ms.pauli_labels, pi):
        return lambda strings: strings
    reps, j = ms.pauli_labels.representatives, np.arange(ms.L)
    return lambda strings: reps(np.roll(pi[j, strings], 1, axis=1))


def dense_conjugation(ms) -> np.ndarray:
    """kappa[j, a]: the element of basis j proportional to the complex
    conjugate of element a, read densely: |B_j^T B_j|[c, a] is the overlap
    of column c with conj(column a), 1 at the one c and 0 elsewhere."""
    overlaps = [np.abs(B.vectors.T @ B.vectors) for B in ms.bases]
    return np.array([np.argmax(o, axis=0) for o in overlaps])


def digit_conjugation_step(ms):
    """mub.orbit_maps's k on (m, L) digit rows: every digit moved by
    dense_conjugation, then the Pauli representative."""
    kappa, j = dense_conjugation(ms), np.arange(ms.L)
    return lambda strings: ms.pauli_labels.representatives(kappa[j, strings])


def digit_orbit_minima(ms, digits: np.ndarray, conjugate: bool = True):
    """The digit rows that are the smallest of their orbit under the group
    digit_orbit_step and, if conjugate, digit_conjugation_step generate,
    each with d^2 times its orbit's size. Every row's orbit under the step
    is walked in full, each member encoded again, and joined with each
    member's conjugate: the two commute, so that is the whole orbit."""
    d, L = ms.d, ms.L
    step, powers = digit_orbit_step(ms), d ** np.arange(L - 1, -1, -1)
    conj = digit_conjugation_step(ms) if conjugate else (lambda strings: strings)
    start = digits @ powers
    members, cur, back = [], digits, np.zeros(len(digits), dtype=bool)
    while not back.all():  # a row that is back walks its orbit again
        members += [cur @ powers, conj(cur) @ powers]
        cur = step(cur)
        back |= cur @ powers == start
    orbit = np.sort(np.column_stack(members), axis=1)
    size = 1 + np.count_nonzero(np.diff(orbit, axis=1), axis=1)
    keep = orbit[:, 0] == start
    return digits[keep], d * d * size[keep]


def iter_sweep_rows(ms, budget: int = DEFAULT_BUDGET):
    """Yield (b, lambda_max) for every string in lexicographic order, with
    no reduction."""
    mats = _checked_matrices(ms)
    total = _sweep_size(mats, budget)
    for digits, lam in _eigmax_chunks(np.stack(mats), range(total)):
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
