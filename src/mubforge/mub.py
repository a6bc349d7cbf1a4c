"""Joint eigenbases of commuting classes, unbiasedness and cycling checks.

Each class of d-1 commuting Hermitian Pauli monomials, together with the
identity, spans a maximal abelian algebra, so its joint eigenvectors are
stabilizer states with closed forms (Aaronson and Gottesman, PRA 70,
052328). basis_from_involutions builds them exactly from the Pauli masks:
a GF(2) elimination picks n independent generators, each generator-sign
code t gives the projector P_t as a sum over the generated group, and the
vector is a column of P_t with entries 0, +-a or +-i a. No eigensolver and
no tolerance is involved; every member is checked exactly to map every
vector to its sign times itself. Vectors are labeled by their sign pattern
(member 0 most significant, +1 before -1), and each vector's global phase
makes its first nonzero component real positive, the fix_phase convention
for vectors whose nonzero components share one magnitude.

build_mub_set is the one path from a Partition to a checked MubSet, for the
cycled partitions of classes.py and the symplectic spread of wigner.py
alike; a spread has no cycle spec, so its set has U = None.

The symmetries of a set act on strings of labels (one element per basis).
A Pauli operator W permutes the labels of basis j through their codes as
t -> t ^ tau_j(W) (PauliLabels, built once per set), and the cycle unitary
sends element b of basis j to element pi_j(b) of basis j+1, cyclically
(cycle_permutations, matched densely as in verify_cycle). orbit_step
composes them into the map the selector sweep walks its orbits with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .classes import CommutingClass, Partition
from .pauli import (
    PauliTerm,
    build_gamma_generators,
    commutes,
    is_hermitian,
    parity,
    row_mask,
)
from .transform import cycle_unitary

EIGEN_TOL = 1e-8  # |eigenvalue| - 1 allowed to a dense eigensolver (the test oracle)
UNBIAS_TOL = 1e-8
MATCH_TOL = 1e-6


class DiagonalizationError(RuntimeError):
    """Input operators are not simultaneously diagonalizable."""


class UnbiasednessError(RuntimeError):
    """A constructed pair of bases is not mutually unbiased."""


class CycleMatchError(RuntimeError):
    """The cycle unitary does not map a basis onto the next one."""


@dataclass(frozen=True)
class Basis:
    """d orthonormal columns; column order follows the sign-pattern labels.

    generators are the class members g_0.. that basis_from_involutions chose;
    codes[b] has bit i set when column b has sign -1 under g_i.
    """

    vectors: np.ndarray
    label: int
    sign_patterns: tuple[tuple[int, ...], ...] = ()
    generators: tuple[PauliTerm, ...] = ()
    codes: tuple[int, ...] = ()

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
    deviation: float | None = None  # unbiasedness_deviation, from build_mub_set

    @property
    def L(self) -> int:
        return len(self.bases)

    @property
    def d(self) -> int:
        return self.bases[0].d

    @cached_property
    def pauli_labels(self) -> "PauliLabels":
        """How the Paulis permute the labels of every basis; built on first
        use and kept."""
        return PauliLabels.of(self)


@dataclass(frozen=True)
class PauliLabels:
    """The action of the d^2 Paulis W = x | z << n on the labels of a MubSet.

    W sends the label with code t in basis j (Basis.codes) to the label with
    code t ^ tau[j, W], bit i of tau[j, W] being 1 when W anticommutes with
    generator i of basis j; labels[j, t] is the label with code t. Only the
    identity commutes with two disjoint maximal classes, so the Paulis act
    freely on the pairs of codes of bases 0 and 1: pauli_of[t0, t1] is the
    one W with tau[0, W] = t0 and tau[1, W] = t1. The set keeps the tables,
    so codes are stored in the smallest unsigned type that holds d - 1.
    """

    codes: np.ndarray  # (L, d)
    labels: np.ndarray  # (L, d)
    tau: np.ndarray  # (L, d^2)
    pauli_of: np.ndarray  # (d, d)

    @staticmethod
    def of(ms: "MubSet") -> "PauliLabels":
        d, L = ms.d, ms.L
        code = np.min_scalar_type(d - 1)
        w = np.arange(d * d)
        wx, wz = w % d, w // d
        tau = np.array(
            [
                sum(
                    parity((wx & g.zmask) ^ (wz & g.xmask)) << i
                    for i, g in enumerate(B.generators)
                )
                for B in ms.bases
            ],
            dtype=code,
        )
        codes = np.array([B.codes for B in ms.bases], dtype=code)
        labels = np.empty_like(codes)
        labels[np.arange(L)[:, None], codes] = np.arange(d)
        pauli_of = np.full((d, d), -1)
        pauli_of[tau[0], tau[1]] = w
        if np.any(pauli_of < 0):
            raise RuntimeError(
                "Paulis do not act freely on the labels of bases 0 and 1"
            )
        return PauliLabels(codes, labels, tau, pauli_of)

    def representatives(self, strings: np.ndarray) -> np.ndarray:
        """Each string moved by the one Pauli that sends its (b_0, b_1) to
        (0, 0); P_{W.b} = W P_b W^dag has the spectrum of P_b."""
        c, j = self.codes, np.arange(len(self.codes))
        W = self.pauli_of[
            c[0, strings[:, 0]] ^ c[0, 0], c[1, strings[:, 1]] ^ c[1, 0]
        ]
        return self.labels[j, c[j, strings] ^ self.tau[j, W[:, None]]]

    def carried_by(self, pi: np.ndarray) -> bool:
        """Whether the label maps pi (cycle_permutations) carry every Pauli
        to one Pauli: pi_j(W.b) = W'.pi_j(b) on every basis j, with one W'
        for each W. Then a map with these label maps sends Pauli orbits of
        strings onto Pauli orbits."""
        L, d = self.codes.shape
        j, nxt = np.arange(L), np.roll(np.arange(L), -1)
        # sigma[j, t]: the code in basis j+1 of pi_j of the label with code t
        sigma = self.codes[nxt[:, None], pi[j[:, None], self.labels]]
        t = np.arange(d)
        moved = sigma[j[:, None], t ^ self.tau.T[:, :, None]] ^ sigma  # [W, j, t]
        # W' from the codes it must flip in bases 0 (j = L-1) and 1 (j = 0)
        image = self.pauli_of[moved[:, -1, 0], moved[:, 0, 0]]
        return bool(np.all(moved == self.tau[nxt][:, image].T[:, :, None]))


def pauli_representatives(ms: MubSet, strings: np.ndarray) -> np.ndarray:
    """Each string moved by the one Pauli W that sends its (b_0, b_1) to (0, 0),
    from the set's tables (PauliLabels.representatives)."""
    return ms.pauli_labels.representatives(strings)


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


def _generators(members: "Sequence[PauliTerm]") -> tuple[list[PauliTerm], list[int]]:
    """Independent members g_0.., picked in member order, and each member's
    subset of them as a bit mask: its (x, z) masks are the XOR of the
    subset's, so a commuting Hermitian member is +-(their product)."""
    n = members[0].n
    gens: list[PauliTerm] = []
    span = {0: 0}  # (x | z << n) of every product of generators -> its subset
    combos = []
    for M in members:
        row = M.xmask | M.zmask << n
        if row not in span:
            if not all(commutes(M, g) for g in gens):
                raise DiagonalizationError(f"member {M} anticommutes within the class")
            bit = 1 << len(gens)
            span.update({r ^ row: c | bit for r, c in list(span.items())})
            gens.append(M)
        combos.append(span[row])
    return gens, combos


def basis_from_involutions(members: "Sequence[PauliTerm]", label: int = 0) -> Basis:
    """Joint eigenbasis of commuting Hermitian Pauli monomials, exactly.

    Code t (bit i: sign -1 under generator g_i) names the joint eigenvector
    P_t e_j0 / sqrt(<j0|P_t|j0>), P_t = prod_i (I + (-1)^t_i g_i)/2 =
    (1/d) sum_S (-1)^|S & t| g_S over the products g_S of generator subsets
    S, and j0 the first index with <j0|P_t|j0> > 0. Its entries are exact:
    0, +-a or +-i a with a = 1/sqrt(support size), entry j0 real positive.
    """
    for M in members:
        if not is_hermitian(M):
            raise DiagonalizationError(f"member {M} is not Hermitian")
    n = members[0].n
    d = 1 << n
    gens, combos = _generators(members)
    if len(gens) != n:
        raise DiagonalizationError(
            f"{len(gens)} independent members, want {n}: joint eigenspaces are "
            "not all one dimensional; class is not maximal"
        )
    t = np.arange(d)  # the codes, and the row indices alike
    # g_S for every subset S, in row-index bit order (pauli.apply)
    xs, zs, ps = np.zeros(1, int), np.zeros(1, int), np.zeros(1, int)
    for g in gens:
        gx, gz = row_mask(g.xmask, n), row_mask(g.zmask, n)
        xs, zs, ps = (
            np.concatenate([xs, xs ^ gx]),
            np.concatenate([zs, zs ^ gz]),
            np.concatenate([ps, ps + g.phase + 2 * parity(zs & gx)]),
        )
    flip = parity(t[:, None] & t)  # [t, S]: parity of |S & t|
    # d <j|P_t|j>, a sum over the diagonal subgroup K: |K| on the support of
    # code t, 0 off it
    K = xs == 0
    diag = (1 - 2 * flip[:, K]) * (1 - ps[K] % 4) @ (1 - 2 * parity(zs[K, None] & t))
    j0 = np.argmax(diag > 0, axis=1)
    rows = j0 ^ xs[:, None]  # [S, t]
    expo = (2 * flip.T + ps[:, None] + 2 * parity(zs[:, None] & j0)) % 4
    support = np.zeros((d, d), dtype=bool)
    phase = np.zeros((d, d), dtype=np.int8)  # i^phase on the support
    support[rows, t], phase[rows, t] = True, expo
    # member m is i^(phase_m - ps[combo_m]) g_combo_m, with that power of i
    # 1 or -1 as both are Hermitian; its sign on code t carries (-1)^|combo_m & t|
    combos = np.array(combos)
    lead = 1 - (np.array([M.phase for M in members]) - ps[combos]) % 4
    signs = lead[:, None] * (1 - 2 * parity(combos[:, None] & t))
    _check_eigenvectors(members, support, phase, signs)
    # canonical order: member 0's sign most significant, +1 before -1
    order = np.lexsort(-signs[::-1])
    patterns = tuple(map(tuple, signs.T[order].tolist()))
    if len(set(patterns)) != d:
        raise DiagonalizationError("sign patterns are not distinct")
    a = math.sqrt(np.count_nonzero(K) / d)  # 1 / sqrt(support size)
    amp = np.array([complex(a, 0), complex(0, a), complex(-a, 0), complex(0, -a)])
    vectors = np.where(support, amp[phase], 0)[:, order]
    codes = tuple(order.tolist())
    return Basis(np.ascontiguousarray(vectors), label, patterns, tuple(gens), codes)


def _check_eigenvectors(members, support, phase, signs) -> None:
    """Every member maps every column to its sign times itself, exactly: on
    the masks, i^p (-1)^|z & r| v[r] lands on row r ^ x (pauli.apply)."""
    n = members[0].n
    r = np.arange(1 << n)
    x = np.array([row_mask(M.xmask, n) for M in members])
    z = np.array([row_mask(M.zmask, n) for M in members])
    p = np.array([M.phase for M in members])
    moved = r ^ x[:, None]  # [m, r]
    lhs = (p[:, None] + 2 * parity(z[:, None] & r)).astype(np.int8)[:, :, None] + phase
    rhs = phase[moved] + (1 - signs).astype(np.int8)[:, None, :]
    same = (support[moved] == support) & (~support | ((lhs - rhs) % 4 == 0))
    if not same.all():
        raise DiagonalizationError("a member does not map the basis to its signs")


def basis_matrices(bases) -> list[np.ndarray]:
    """The vector matrices of a MubSet or of a sequence of Basis or arrays."""
    if isinstance(bases, MubSet):
        bases = bases.bases
    return [b.vectors if isinstance(b, Basis) else np.asarray(b) for b in bases]


def complex_json(M: np.ndarray, indent: int | None = None, level: int = 0) -> str:
    """json.dumps(M as nested lists with a [real, imag] pair for each entry,
    indent=indent), written as if nested level deep in a document.

    json.dumps runs once per distinct entry, entries grouped by their bit
    pattern (so -0.0 and 0.0 stay apart), and the tokens are joined.
    """
    M = np.ascontiguousarray(M, dtype=complex)
    values, inverse = np.unique(
        M.reshape(-1).view(np.dtype((np.void, M.itemsize))), return_inverse=True
    )
    values = values.view(complex)
    pairs = np.stack([values.real, values.imag], -1).tolist()
    tokens = [json.dumps(pair, indent=indent) for pair in pairs]
    if indent is not None:
        pad = "\n" + " " * (indent * (level + M.ndim))
        tokens = [t.replace("\n", pad) for t in tokens]
    items = np.array(tokens, dtype=object)[inverse.reshape(M.shape)].tolist()

    def join(rows, depth):
        if indent is None:
            head, sep, tail = "[", ", ", "]"
        else:
            head = "[\n" + " " * (indent * (level + depth + 1))
            sep, tail = "," + head[1:], "\n" + " " * (indent * (level + depth)) + "]"
        if depth < M.ndim - 1:
            rows = [join(r, depth + 1) for r in rows]
        return head + sep.join(rows) + tail

    return join(items, 0)


def unbiasedness_deviation(bases) -> float:
    """max over cross-basis pairs of | |<a|b>|^2 - 1/d |; for a MubSet, the
    value build_mub_set found, when it was built there."""
    if isinstance(bases, MubSet) and bases.deviation is not None:
        return bases.deviation
    mats = basis_matrices(bases)
    d = mats[0].shape[0]
    worst = 0.0
    for j, k in combinations(range(len(mats)), 2):
        ov = np.abs(mats[j].conj().T @ mats[k]) ** 2
        worst = max(worst, float(np.max(np.abs(ov - 1.0 / d))))
    return worst


def build_mub_set(part: Partition, U: np.ndarray | None = None) -> MubSet:
    """Extract all joint eigenbases and verify mutual unbiasedness, keeping
    the worst deviation. U defaults to the cycle unitary of part.spec, and
    to None without a spec."""
    if U is None and part.spec is not None:
        U = cycle_unitary(build_gamma_generators(part.n), part.spec)
    bases = tuple(common_eigenbasis(c, label=i) for i, c in enumerate(part.classes))
    worst = 0.0
    for j, k in combinations(range(len(bases)), 2):
        ov = np.abs(bases[j].vectors.conj().T @ bases[k].vectors) ** 2
        dev = np.abs(ov - 1.0 / part.d)
        bad = np.unravel_index(np.argmax(dev), ov.shape)
        if dev[bad] > UNBIAS_TOL:
            raise UnbiasednessError(
                f"unbiasedness violated at bases ({j},{k}), elements "
                f"{tuple(map(int, bad))}, "
                f"|overlap|^2 = {ov[bad]:.6g}"
            )
        worst = max(worst, float(dev[bad]))
    return MubSet(bases, U, part, worst)


def _cycle_unitary(ms: MubSet) -> np.ndarray:
    if ms.U is None:
        raise ValueError("set has no cycle unitary: its partition has no cycle spec")
    return ms.U


def _cycle_match(ms: MubSet, j: int) -> tuple[np.ndarray, np.ndarray]:
    """For every element b of basis j, the element m[b] of basis j+1
    (cyclically) nearest to U|b^(j)> and their squared overlap ov[b], from
    one product |B_{j+1}^H U B_j|^2; a match needs ov above 1 - MATCH_TOL."""
    Bk = ms.bases[(j + 1) % ms.L].vectors
    ov = np.abs(Bk.conj().T @ (_cycle_unitary(ms) @ ms.bases[j].vectors)) ** 2
    m = np.argmax(ov, axis=0)
    return m, ov[m, np.arange(ms.d)]


def verify_cycle(ms: MubSet) -> CycleReport:
    """Match U-conjugated projectors of basis j against basis j+1.

    Returns the worst Frobenius residual and the induced index permutations.
    Raises CycleMatchError if some projector has no counterpart with squared
    overlap above 1 - MATCH_TOL, or the matches of a basis are no
    permutation. Each residual uses its own matrix-vector product U|b^(j)>:
    the columns of one matrix product U B_j round differently.
    """
    U = _cycle_unitary(ms)
    worst = 0.0
    perms = []
    P_img, P_tgt = np.empty((2, ms.d, ms.d), dtype=complex)  # reused per column
    for j in range(ms.L):
        perm, ov = _cycle_match(ms, j)
        bad = np.flatnonzero(ov < 1 - MATCH_TOL)
        if bad.size:
            b = bad[0]
            raise CycleMatchError(
                f"no projector match above {1 - MATCH_TOL} overlap for "
                f"basis {j} element {b} (best {ov[b]:.6f})"
            )
        perm = perm.tolist()
        if sorted(perm) != list(range(ms.d)):
            raise CycleMatchError(f"induced map at basis {j} is not a permutation")
        Bj, Bk = ms.bases[j].vectors, ms.bases[(j + 1) % ms.L].vectors
        for b, m in enumerate(perm):
            v, w = U @ Bj[:, b], Bk[:, m]
            np.outer(v, v.conj(), out=P_img)
            np.outer(w, w.conj(), out=P_tgt)
            res = np.linalg.norm(np.subtract(P_img, P_tgt, out=P_img))
            worst = max(worst, float(res))
        perms.append(tuple(perm))
    return CycleReport(worst, tuple(perms))


def cycle_permutations(ms: MubSet) -> np.ndarray | None:
    """pi[j, b]: the element of basis j+1 (cyclically) that U maps element b
    of basis j onto, matched as in verify_cycle; None if U is None or some
    element has no match (U does not cycle the bases)."""
    if ms.U is None:
        return None
    pi = np.empty((ms.L, ms.d), dtype=np.int64)
    for j in range(ms.L):
        pi[j], ov = _cycle_match(ms, j)
        if np.any(ov < 1 - MATCH_TOL):
            return None
    return pi


def _cycle_strings(ms: MubSet) -> np.ndarray:
    """Strings b that the cycle unitary maps to themselves.

    U|b_j^(j)> equals |b_{j+1}^(j+1)> up to phase for every j, cyclically,
    so the selector P_b commutes with U. Empty if U does not cycle the bases
    or is None.
    """
    pi = cycle_permutations(ms)
    if pi is None:
        return np.empty((0, ms.L), dtype=np.int64)
    rows = np.empty((ms.d, ms.L), dtype=np.int64)
    rows[:, 0] = np.arange(ms.d)
    for j in range(1, ms.L):
        rows[:, j] = pi[j - 1, rows[:, j - 1]]
    return rows[pi[-1, rows[:, -1]] == rows[:, 0]]


def orbit_step(ms: MubSet):
    """The map f on strings with prefix (0, 0) whose orbits the sweep walks.

    f(b) is the Pauli representative of U.b, (U.b)_{j+1} = pi_j(b_j): P_{U.b}
    = U P_b U^dag, so f keeps the spectrum. When the label maps carry Paulis
    to Paulis (PauliLabels.carried_by), f permutes the strings with prefix
    (0, 0) and each of its orbits stands for d^2 |orbit| strings. f is the
    identity when U is None, does not cycle the bases or fails that check.
    """
    pi = cycle_permutations(ms)
    if pi is None or not ms.pauli_labels.carried_by(pi):
        return lambda strings: strings
    reps, j = ms.pauli_labels.representatives, np.arange(ms.L)
    return lambda strings: reps(np.roll(pi[j, strings], 1, axis=1))


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
    """The set as JSON: the text of json.dumps(doc) with each basis's
    vectors written by complex_json."""
    from .classes import partition_to_json

    doc = {
        "d": ms.d,
        "L": ms.L,
        "bases": None,
        "unbiasedness_deviation": unbiasedness_deviation(ms),
        "provenance": json.loads(partition_to_json(ms.provenance)),
    }
    if cycle is not None:
        doc["cycle"] = {
            "worst_residual": cycle.worst_residual,
            "permutations": [list(p) for p in cycle.permutations],
        }
    bases = ", ".join(
        f'{{"label": {b.label}, "vectors": {complex_json(b.vectors.T)}}}'
        for b in ms.bases
    )
    # "bases" is the third key, after two numbers, so this is its null
    return json.dumps(doc).replace('"bases": null', f'"bases": [{bases}]', 1)
