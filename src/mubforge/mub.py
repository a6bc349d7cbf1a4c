"""Joint eigenbases of commuting classes, unbiasedness and cycling checks.

Each class of d-1 commuting involutions, together with the identity, spans a
maximal abelian algebra, so its joint eigenspaces are one dimensional. The
basis extraction splits the full space by the +1/-1 eigenspaces of one member
at a time. Once every block is one dimensional, the remaining members only
have their signs read off, and the vectors stay as they are. Pauli members
act through pauli.apply, never as dense matrices. Vectors are labeled by
their sign pattern (member 0 most significant, +1 before -1) and each
vector's global phase is fixed by making its largest-magnitude component
real positive, ties broken by lowest index.

build_mub_set is the one path from a Partition to a checked MubSet, for the
cycled partitions of classes.py and the symplectic spread of wigner.py
alike; a spread has no cycle spec, so its set has U = None.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classes import CommutingClass, Partition
from .pauli import PauliTerm, apply, build_gamma_generators, is_hermitian
from .transform import cycle_unitary

EIGEN_TOL = 1e-8
UNBIAS_TOL = 1e-8
MATCH_TOL = 1e-6


class DiagonalizationError(RuntimeError):
    """Input operators are not simultaneously diagonalizable."""


class UnbiasednessError(RuntimeError):
    """A constructed pair of bases is not mutually unbiased."""


@dataclass(frozen=True)
class Basis:
    """d orthonormal columns; column order follows the sign-pattern labels."""

    vectors: np.ndarray
    label: int
    sign_patterns: tuple[tuple[int, ...], ...] = ()

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    def projector(self, b: int) -> np.ndarray:
        v = self.vectors[:, b]
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class MubSet:
    bases: tuple[Basis, ...]
    U: np.ndarray | None  # None when the partition has no cycle spec
    provenance: Partition

    @property
    def L(self) -> int:
        return len(self.bases)

    @property
    def d(self) -> int:
        return self.bases[0].d


@dataclass(frozen=True)
class CycleReport:
    worst_residual: float
    permutations: tuple[tuple[int, ...], ...]


def fix_phase(v: np.ndarray) -> np.ndarray:
    mags = np.abs(v)
    i = int(np.argmax(mags > mags.max() - 1e-12))
    ph = v[i] / abs(v[i])
    return v / ph


def common_eigenbasis(cc: CommutingClass, label: int = 0) -> Basis:
    """Joint eigenbasis of one commuting class, canonically ordered."""
    return basis_from_involutions(list(cc.members), label)


def _apply(M: "PauliTerm | np.ndarray", V: np.ndarray) -> np.ndarray:
    return apply(M, V) if isinstance(M, PauliTerm) else M @ V


def _check_signs(w: np.ndarray) -> None:
    if np.any(np.abs(np.abs(w) - 1) > EIGEN_TOL):
        raise DiagonalizationError(
            "restricted eigenvalues are not within tolerance of +-1; "
            "the input operators do not commute or are not involutions"
        )


def _restricted(M: "PauliTerm | np.ndarray", B: np.ndarray) -> np.ndarray:
    """(B_i^H M) B_i for every block B_i of a stack B of shape (m, d, k)."""
    if isinstance(M, PauliTerm):
        # B^H M = (M B)^H exactly for a Hermitian monomial, and + 0.0 turns
        # its -0.0 entries into the +0.0 a matrix product gives, so the
        # result matches the dense route bit for bit.
        BhM = apply(M, B.transpose(1, 0, 2)).transpose(1, 2, 0).conj() + 0.0
    else:
        BhM = B.conj().transpose(0, 2, 1) @ M
    return BhM @ B


def _by_width(blocks):
    """Stack blocks of equal width together: [(B (m, d, k), patterns)]."""
    widths: dict[int, list] = {}
    for B, patterns in blocks:
        widths.setdefault(B.shape[2], []).append((B, patterns))
    return [
        (np.concatenate([B for B, _ in group]), [p for _, ps in group for p in ps])
        for group in widths.values()
    ]


def basis_from_involutions(
    mats: "list[PauliTerm | np.ndarray]", label: int = 0
) -> Basis:
    """Joint eigenbasis of commuting Hermitian involutions (M^2 = I), given
    as Hermitian Pauli monomials or as dense matrices.

    Blocks of equal width are split together: one stacked eigh per width and
    member. Each block's vectors carry the same bits as when it is split on
    its own.
    """
    for M in mats:
        if isinstance(M, PauliTerm) and not is_hermitian(M):
            raise DiagonalizationError(f"member {M} is not Hermitian")
    M0 = mats[0]
    d = 2**M0.n if isinstance(M0, PauliTerm) else M0.shape[0]
    stacks = [(np.eye(d, dtype=complex)[None], [()])]
    split_by = 0
    for M in mats:
        if all(B.shape[2] == 1 for B, _ in stacks):
            break
        split_by += 1
        levels, split = [], []
        for B, patterns in stacks:
            w, V = np.linalg.eigh(_restricted(M, B))
            levels.append(w.ravel())
            k = B.shape[2]
            n_plus = np.count_nonzero(w > 0, axis=1)
            for p in sorted(set(n_plus.tolist())):
                sel = np.flatnonzero(n_plus == p)
                # eigh sorts ascending: the -1 columns first, the +1 ones last
                if p:
                    plus = [patterns[i] + (1,) for i in sel]
                    split.append((B[sel] @ V[sel, :, k - p :], plus))
                if p < k:
                    minus = [patterns[i] + (-1,) for i in sel]
                    split.append((B[sel] @ V[sel, :, : k - p], minus))
        _check_signs(np.concatenate(levels))
        stacks = _by_width(split)
    widths = [B.shape[2] for B, patterns in stacks for _ in patterns]
    if any(k != 1 for k in widths) or len(widths) != d:
        raise DiagonalizationError(
            f"joint eigenspaces are not all one dimensional "
            f"({widths}); class is not maximal"
        )
    cols = np.concatenate([B[:, :, 0] for B, _ in stacks]).T
    # the members left over are diagonal on these vectors: read their signs
    rest = np.array(
        [np.real(np.sum(cols.conj() * _apply(M, cols), axis=0)) for M in mats[split_by:]]
    ).reshape(-1, d)
    _check_signs(rest)
    signs = np.where(rest > 0, 1, -1).T.tolist()
    found = [p for _, patterns in stacks for p in patterns]
    found = [p + tuple(s) for p, s in zip(found, signs)]
    # canonical order: member 0's sign most significant, +1 before -1
    order = sorted(range(d), key=lambda i: tuple(-s for s in found[i]))
    vectors = np.column_stack([fix_phase(cols[:, i]) for i in order])
    patterns = tuple(found[i] for i in order)
    if len(set(patterns)) != d:
        raise DiagonalizationError("sign patterns are not distinct")
    for M in mats:
        MV = _apply(M, vectors)
        res = np.linalg.norm(MV - vectors * np.sum(vectors.conj() * MV, axis=0), axis=0)
        if np.max(res) > EIGEN_TOL:
            raise DiagonalizationError(f"joint eigenvector residual {np.max(res):.3e}")
    return Basis(vectors, label, patterns)


def basis_matrices(bases) -> list[np.ndarray]:
    """The vector matrices of a MubSet or of a sequence of Basis or arrays."""
    if isinstance(bases, MubSet):
        bases = bases.bases
    return [b.vectors if isinstance(b, Basis) else np.asarray(b) for b in bases]


def complex_lists(M: np.ndarray) -> list:
    """M as nested lists with a [real, imag] pair for each entry, for JSON."""
    return np.stack([M.real, M.imag], -1).tolist()


def unbiasedness_deviation(bases) -> float:
    """max over cross-basis pairs of | |<a|b>|^2 - 1/d |."""
    mats = basis_matrices(bases)
    d = mats[0].shape[0]
    worst = 0.0
    for j, k in combinations(range(len(mats)), 2):
        ov = np.abs(mats[j].conj().T @ mats[k]) ** 2
        worst = max(worst, float(np.max(np.abs(ov - 1.0 / d))))
    return worst


def build_mub_set(part: Partition, U: np.ndarray | None = None) -> MubSet:
    """Extract all joint eigenbases and verify mutual unbiasedness. U defaults
    to the cycle unitary of part.spec, and to None without a spec."""
    if U is None and part.spec is not None:
        U = cycle_unitary(build_gamma_generators(part.n), part.spec)
    bases = tuple(common_eigenbasis(c, label=i) for i, c in enumerate(part.classes))
    for j, k in combinations(range(len(bases)), 2):
        ov = np.abs(bases[j].vectors.conj().T @ bases[k].vectors) ** 2
        bad = np.unravel_index(np.argmax(np.abs(ov - 1 / part.d)), ov.shape)
        if abs(ov[bad] - 1 / part.d) > UNBIAS_TOL:
            raise UnbiasednessError(
                f"unbiasedness violated at bases ({j},{k}), elements {bad}, "
                f"|overlap|^2 = {ov[bad]:.6g}"
            )
    return MubSet(bases, U, part)


def _cycle_unitary(ms: MubSet) -> np.ndarray:
    if ms.U is None:
        raise ValueError("set has no cycle unitary: its partition has no cycle spec")
    return ms.U


def _cycle_match(ms: MubSet, j: int, b: int) -> tuple[np.ndarray, int, float]:
    """U|b^(j)>, the element of basis j+1 (cyclically) nearest to it, and
    their squared overlap; a match needs the overlap above 1 - MATCH_TOL."""
    v = _cycle_unitary(ms) @ ms.bases[j].vectors[:, b]
    ov = np.abs(ms.bases[(j + 1) % ms.L].vectors.conj().T @ v) ** 2
    m = int(np.argmax(ov))
    return v, m, float(ov[m])


def verify_cycle(ms: MubSet) -> CycleReport:
    """Match U-conjugated projectors of basis j against basis j+1.

    Returns the worst Frobenius residual and the induced index permutations.
    Raises if some projector has no counterpart with squared overlap above
    1 - MATCH_TOL.
    """
    worst = 0.0
    perms = []
    for j in range(ms.L):
        Bk = ms.bases[(j + 1) % ms.L].vectors
        perm = []
        for b in range(ms.d):
            v, m, ov = _cycle_match(ms, j, b)
            if ov < 1 - MATCH_TOL:
                raise RuntimeError(
                    f"no projector match above {1 - MATCH_TOL} overlap for "
                    f"basis {j} element {b} (best {ov:.6f})"
                )
            perm.append(m)
            P_img = np.outer(v, v.conj())
            P_tgt = np.outer(Bk[:, m], Bk[:, m].conj())
            worst = max(worst, float(np.linalg.norm(P_img - P_tgt)))
        if sorted(perm) != list(range(ms.d)):
            raise RuntimeError(f"induced map at basis {j} is not a permutation")
        perms.append(tuple(perm))
    return CycleReport(worst, tuple(perms))


def _cycle_strings(ms: MubSet) -> np.ndarray:
    """Strings b that the cycle unitary maps to themselves.

    U|b_j^(j)> equals |b_{j+1}^(j+1)> up to phase for every j, cyclically,
    so the selector P_b commutes with U. Empty if U does not cycle the bases
    or is None.
    """
    if ms.U is None:
        return np.empty((0, ms.L), dtype=np.int64)
    rows = []
    for b0 in range(ms.d):
        b = [b0]
        for j in range(ms.L):
            _, m, ov = _cycle_match(ms, j, b[-1])
            if ov < 1 - MATCH_TOL:
                break
            b.append(m)
        else:
            if b[-1] == b0:
                rows.append(b[:-1])
    return np.array(rows, dtype=np.int64).reshape(-1, ms.L)


def invariant_states(ms: MubSet) -> list[tuple[np.ndarray, complex]]:
    """All unit eigenvectors of the cycling unitary with their eigenphases.

    U is normal, so the complex Schur form is diagonal and its columns are an
    orthonormal eigenbasis; this is stable even for degenerate phases.
    """
    import scipy.linalg  # only here: importing scipy costs the CLI ~0.3 s

    T, Zm = scipy.linalg.schur(_cycle_unitary(ms), output="complex")
    out = []
    for i in range(ms.d):
        v = fix_phase(Zm[:, i])
        out.append((v, complex(T[i, i])))
    return out


def cycle_coherent_family(ms: MubSet, b: int) -> np.ndarray:
    """Columns U^j |b^(0)>, j = 0..L-1: the orbit of one basis-0 vector."""
    U = _cycle_unitary(ms)
    cols = [ms.bases[0].vectors[:, b]]
    for _ in range(ms.L - 1):
        cols.append(U @ cols[-1])
    return np.column_stack(cols)


def phase_ramp_states(ms: MubSet, coefficients: np.ndarray) -> list[np.ndarray]:
    """Normalized sums sum_j c_j U^j |b^(0)> over all b; near-null sums are
    dropped. With c_j = exp(i pi j / 4) and a cycle satisfying U^4 = -I these
    reproduce the bound-attaining invariant superpositions in dimension 4."""
    out = []
    for b in range(ms.d):
        fam = cycle_coherent_family(ms, b)
        psi = fam @ np.asarray(coefficients, dtype=complex)
        nrm = np.linalg.norm(psi)
        if nrm > 1e-8:
            out.append(fix_phase(psi / nrm))
    return out


def eigenvector_residual(U: np.ndarray, v: np.ndarray) -> float:
    lam = v.conj() @ U @ v
    return float(np.linalg.norm(U @ v - lam * v))


def invariant_superposition_family(ms: MubSet) -> list[np.ndarray]:
    """Eigenvector superpositions sum_j exp(-i j (theta + 2 pi k)/L) U^j |b^(0)>.

    theta is the phase of the scalar U^L; ramp index k runs over 0..L-1 and b
    over the basis-0 elements, so every returned state is an eigenvector of
    U. Near-null combinations are dropped, duplicates are not.
    """
    UL = np.linalg.matrix_power(_cycle_unitary(ms), ms.L)
    theta = float(np.angle(UL[0, 0]))
    out = []
    for k in range(ms.L):
        coeffs = np.exp(-1j * np.arange(ms.L) * (theta + 2 * np.pi * k) / ms.L)
        for v in phase_ramp_states(ms, coeffs):
            if eigenvector_residual(ms.U, v) < 1e-8:
                out.append(v)
    return out


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


def mub_set_to_json(ms: MubSet, cycle: CycleReport | None = None) -> str:
    from .classes import partition_to_json

    doc = {
        "d": ms.d,
        "L": ms.L,
        "bases": [
            {"label": b.label, "vectors": complex_lists(b.vectors.T)}
            for b in ms.bases
        ],
        "unbiasedness_deviation": unbiasedness_deviation(ms.bases),
        "provenance": json.loads(partition_to_json(ms.provenance)),
    }
    if cycle is not None:
        doc["cycle"] = {
            "worst_residual": cycle.worst_residual,
            "permutations": [list(p) for p in cycle.permutations],
        }
    return json.dumps(doc)
