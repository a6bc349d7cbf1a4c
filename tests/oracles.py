"""Reference definitions the tests check mubforge against.

Each is a direct or independent route to something the package computes, or
a reading of its output files; no command runs them, so they live here and
not in mubforge. scipy, which mubforge does not need, is imported here only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np
import scipy.linalg

from mubforge.classes import CommutingClass, Partition
from mubforge.entropy import (
    DEFAULT_BUDGET,
    LOG2,
    _checked_matrices,
    _eigmax_chunks,
    _sweep_size,
    hermitian_eigmax,
)
from mubforge.mub import (
    Basis,
    DiagonalizationError,
    MubSet,
    PauliLabels,
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
    parity,
    row_mask,
    to_dense,
)
from mubforge.transform import (
    CliffordAction,
    CycleSpec,
    NotAMonomialError,
    conjugate_term,
    cycle_action,
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
    clifford_action, or None (no label maps) when U is not Clifford."""
    try:
        action = clifford_action(U)
    except NotAMonomialError:
        action = None
    return MubSet(tuple(bases), U, provenance, action)


def pair_deviations(bases) -> dict[tuple[int, int], float]:
    """The largest | |<a|b>|^2 - 1/d | of every pair j < k of bases, in
    (j, k) order, from one dense product B_j^H B_k per pair: the per-pair
    loop that MubSet.deviation stacks."""
    mats = basis_matrices(bases)
    d = mats[0].shape[0]
    out = {}
    for j, k in combinations(range(len(mats)), 2):
        ov = np.abs(mats[j].conj().T @ mats[k]) ** 2
        out[j, k] = float(np.max(np.abs(ov - 1.0 / d)))
    return out


def raw_unbiasedness_deviation(bases) -> float:
    """max over cross-basis pairs of | |<a|b>|^2 - 1/d |, pair by pair."""
    return max(pair_deviations(bases).values(), default=0.0)


def sign_patterns(members: Sequence[PauliTerm], basis: Basis) -> tuple:
    """The sign of every member on every column, column by column, read
    densely as the real part of <v|M|v>."""
    mats = [to_dense(M) for M in members]
    V = basis.vectors
    signs = [np.rint(np.einsum("ij,ik,kj->j", V.conj(), M, V).real) for M in mats]
    return tuple(map(tuple, np.array(signs, dtype=int).T.tolist()))


def member_check(members: Sequence[PauliTerm], support, phase, signs) -> None:
    """The per-member check that mub._check_eigenvectors replaced (the slow
    route): every column has the form basis_from_involutions builds, and
    every member maps it to its sign signs[m, t] times itself, exactly, on
    [member, row, code] arrays, so O(d^3). Columns are codes, as there.

    The form: 1/a^2 support rows, as many as the x masks of the group the
    members generate, phase 0 at the first of them and off the support. The
    map: on the masks, i^p (-1)^|z & r| v[r] lands on row r ^ x (apply)."""
    n = members[0].n
    r = np.arange(1 << n)
    span = {0}  # the x masks of the group the members generate
    for M in members:
        if M.xmask not in span:
            span |= {s ^ M.xmask for s in span}
    sizes = np.count_nonzero(support, axis=0)
    if (
        (sizes != len(span)).any()
        or phase[support.argmax(axis=0), r].any()
        or np.where(support, 0, phase).any()
    ):
        raise DiagonalizationError("a column is not a normalized stabilizer vector")
    x = row_mask(np.array([M.xmask for M in members]), n)
    z = row_mask(np.array([M.zmask for M in members]), n)
    p = np.array([M.phase for M in members])
    moved = r ^ x[:, None]  # [m, r]
    turn = p[:, None] + 2 * parity(z[:, None] & r)  # [m, r]
    # [m, r, t]: the image's phase minus the phase it must have, mod 4
    diff = phase[moved] - phase - turn[:, :, None] - (1 - np.asarray(signs))[:, None, :]
    wrong = (diff % 4 != 0) & support
    if wrong.any() or not (support[moved] == support).all():
        raise DiagonalizationError("a member does not map the basis to its signs")


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


def dense_label_map(ms, action):
    """(sigma, pi) of a Clifford action on the bases of ms, read densely:
    the action sends element b of basis j to element pi[j, b] of basis
    sigma[j]; None if it carries some basis off the set. Each generator
    g_i of basis j has its image from conjugate_masks made dense with
    to_dense; element b has sign -1 under g_i where bit n-1-i of b is set
    (mub.Basis), so its image is the one column of one basis that every
    image generator fixes with b's signs."""
    n, d = ms.d.bit_length() - 1, ms.d
    V = np.stack([B.vectors for B in ms.bases])  # (L, d, d)
    bits = 1 << np.arange(n - 1, -1, -1)
    sigma, pi = [], []
    for B in ms.bases:
        masks = np.array([(g.xmask, g.zmask, g.phase) for g in B.generators]).T
        x, z, p, sign = (a.tolist() for a in action.conjugate_masks(*masks))
        M = np.stack([s * to_dense(PauliTerm(n, *t)) for *t, s in zip(x, z, p, sign)])
        MV = M[:, None] @ V  # (n, L, d, d): image i on every column of every basis
        plus = np.abs(MV - V).max(axis=2) < EIGEN_TOL  # [i, k, column]
        minus = np.abs(MV + V).max(axis=2) < EIGEN_TOL
        fixed = np.flatnonzero((plus | minus).all(axis=(0, 2)))
        if len(fixed) != 1:
            return None
        (k,) = fixed
        label = bits @ minus[:, k]  # the label whose signs column c has
        if sorted(label.tolist()) != list(range(d)):
            return None
        sigma.append(k)
        pi.append(np.argsort(label))
    return np.array(sigma), np.array(pi)


def declared_actions(ms):
    """The exact actions of the symmetries ms's provenance declares."""
    gs = build_gamma_generators(ms.provenance.n)
    return [cycle_action(gs, spec) for spec in ms.provenance.symmetries]


def digit_action_step(ms, sigma, pi):
    """The key map of the action (sigma, pi) on (m, L) digit rows: row b
    goes to g.b, (g.b)_{sigma(j)} = pi_j(b_j), then its Pauli
    representative."""
    j = np.arange(ms.L)

    def step(strings):
        out = np.empty_like(strings)
        out[:, sigma] = pi[j, strings]
        return ms.pauli_labels.representatives(out)

    return step


def digit_orbit_step(ms):
    """orbits.orbit_maps's f on (m, L) digit rows, step by step: U.b from the
    label maps, rolled into place, then its Pauli representative."""
    pi = ms.cycle_permutations
    if pi is None or not carried_by(ms.pauli_labels, pi):
        return lambda strings: strings
    return digit_action_step(ms, (np.arange(ms.L) + 1) % ms.L, pi)


def dense_conjugation(ms) -> np.ndarray:
    """kappa[j, a]: the element of basis j proportional to the complex
    conjugate of element a, read densely: |B_j^T B_j|[c, a] is the overlap
    of column c with conj(column a), 1 at the one c and 0 elsewhere."""
    overlaps = [np.abs(B.vectors.T @ B.vectors) for B in ms.bases]
    return np.array([np.argmax(o, axis=0) for o in overlaps])


def digit_conjugation_step(ms):
    """orbits.orbit_maps's k on (m, L) digit rows: every digit moved by
    dense_conjugation, then the Pauli representative."""
    kappa, j = dense_conjugation(ms), np.arange(ms.L)
    return lambda strings: ms.pauli_labels.representatives(kappa[j, strings])


def bfs_orbit_minima(maps, count):
    """The smallest key and size of every orbit under the group the
    permutations maps generate, each orbit walked breadth-first."""
    label = [-1] * count
    kept, sizes = [], []
    for start in range(count):
        if label[start] >= 0:
            continue
        label[start], todo, size = start, [start], 1
        while todo:
            key = todo.pop()
            for p in maps:
                image = int(p[key])
                if label[image] < 0:
                    label[image] = start
                    todo.append(image)
                    size += 1
        kept.append(start)
        sizes.append(size)
    return kept, sizes


def digit_orbit_minima(ms, conjugate: bool = True, symmetries: bool = True):
    """The reduced digit rows (prefix (0, 0), in key order) that are the
    smallest of their orbit under the group that digit_orbit_step, if
    symmetries a digit_action_step for each of ms.symmetry_permutations,
    and if conjugate digit_conjugation_step generate, each with d^2 times
    its orbit's size. Each step moves every row, the images are encoded
    again, and the orbits are walked breadth-first."""
    d, L = ms.d, ms.L
    powers = d ** np.arange(L - 1, -1, -1)
    digits = (np.arange(d ** (L - 2))[:, None] // powers) % d
    steps = [digit_orbit_step(ms)]
    if symmetries:
        steps += [digit_action_step(ms, *perm) for perm in ms.symmetry_permutations]
    if conjugate:
        steps.append(digit_conjugation_step(ms))
    maps = [step(digits) @ powers for step in steps]
    kept, sizes = bfs_orbit_minima(maps, len(digits))
    return digits[kept], d * d * np.array(sizes)


def iter_sweep_rows(ms, budget: int = DEFAULT_BUDGET):
    """Yield (b, lambda_max) for every string in lexicographic order, with
    no reduction."""
    mats = _checked_matrices(ms)
    total = _sweep_size(mats, budget)
    for digits, lam in _eigmax_chunks(np.stack(mats), range(total)):
        yield from zip(map(tuple, digits.tolist()), lam.tolist())


def slow_avg_entropy_and_grad(mats, psi, alpha):
    """Average order-alpha entropy of the unit vector psi and its Wirtinger
    gradient d/d(psi*), one basis at a time: a matrix-vector product per
    basis and math.log2 per term, the terms summed in basis order."""
    L = len(mats)
    d = psi.shape[0]
    f = 0.0
    g = np.zeros(d, dtype=complex)
    for B in mats:
        c = B.conj().T @ psi
        p = np.maximum(np.abs(c) ** 2, 1e-300)
        if math.isinf(alpha):
            b = int(np.argmax(p))
            f += -math.log2(p[b])
            w = np.zeros(d)
            w[b] = -1.0 / (p[b] * LOG2)
        elif alpha == 1:
            f += float(-np.sum(p * np.log2(p)))
            w = -(np.log2(p) + 1 / LOG2)
        else:
            S = float(np.sum(p**alpha))
            f += math.log2(S) / (1 - alpha)
            w = alpha * p ** (alpha - 1) / ((1 - alpha) * S * LOG2)
        g += B @ (w * c)
    return f / L, g / L


def decimal_avg_entropy_and_grad(mats, psi, alpha):
    """slow_avg_entropy_and_grad for a finite order alpha != 1, with sum
    p^alpha, its log and the weights in 40-digit decimal arithmetic, whose
    exponent range holds p^alpha where a float underflows."""
    L = len(mats)
    f = Decimal(0)
    g = np.zeros(psi.shape[0], dtype=complex)
    with localcontext() as ctx:
        ctx.prec = 40
        a, ln2 = Decimal(alpha), Decimal(2).ln()
        for B in mats:
            c = B.conj().T @ psi
            P = [Decimal(x) for x in np.maximum(np.abs(c) ** 2, 1e-300).tolist()]
            S = sum(x**a for x in P)
            f += S.ln() / ln2 / (1 - a)
            w = [float(a * x ** (a - 1) / ((1 - a) * S * ln2)) for x in P]
            g += B @ (np.array(w) * c)
    return float(f / L), g / L


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
