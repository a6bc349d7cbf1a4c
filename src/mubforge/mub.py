"""Joint eigenbases of commuting classes, unbiasedness and cycling checks.

Each class of d-1 commuting Hermitian Pauli monomials, together with the
identity, spans a maximal abelian algebra, so its joint eigenvectors are
stabilizer states with closed forms (Aaronson and Gottesman, PRA 70,
052328). basis_from_involutions builds them exactly from the Pauli masks:
a GF(2) elimination picks n independent generators, each generator-sign
code t gives the projector P_t as a sum over the generated group, and the
vector is a column of P_t with entries 0, +-a or +-i a. Every parity of two
n-bit masks it needs is read from one table per n. No eigensolver and no
tolerance is involved; every member is checked exactly to map every vector
to its sign times itself. Vectors are ordered by their sign pattern (member
0 most significant, +1 before -1), and each vector's global phase makes its
first nonzero component real positive, the fix_phase convention for
vectors whose nonzero components share one magnitude.

build_mub_set is the one path from a Partition to a checked MubSet, for the
cycled partitions of classes.py and the symplectic spread of wigner.py
alike; a spread has no cycle spec, so its set has U = None and no action.

The symmetries of a set act on strings of labels (one element per basis).
A label is its own sign code: label b of basis j has sign -1 under
generator g_i exactly when bit n-1-i of b is set. So a Pauli operator W
acts on the labels of basis j as b -> b ^ tau_j(W) (PauliLabels, built once
per set), and complex conjugation as b -> b ^ y_j, y_j holding the bits of
the imaginary generators, read off their masks. The cycle unitary sends
element b of basis j to element pi_j(b) of basis j+1, cyclically
(MubSet.cycle_permutations). pi is read exactly off the set's Clifford
action, the tableau cycle_unitary checks U against: each generator image
is found by its masks in the next basis's table of subset products
(_group), whose signs on every column are one table read, so no dense
matrix is touched. orbit_maps composes them into permutations
of the integer string keys whose orbits the selector sweep labels: a table
map for the cycle, and one XOR mask for conjugation. verify_cycle checks U
against pi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from . import transform
from .classes import CommutingClass, Partition
from .pauli import (
    PauliTerm,
    build_gamma_generators,
    commutes,
    is_hermitian,
    parity,
    row_mask,
)

UNBIAS_TOL = 1e-8
# about the most one block of unbiasedness products, of selectors in
# selector._eigmax_chunks, or of histogram rows waiting for a merge in
# entropy._summarize, holds: 1 MB blocks ran faster than 4 MB ones in the
# unbiasedness check at d = 32 and d = 64, on a core with 2 MB of L2
BLOCK_BYTES = 1 << 20
DEFAULT_BUDGET = 2**28  # strings a sweep may cover; entropy and the CLI read it


class DiagonalizationError(RuntimeError):
    """Input operators are not simultaneously diagonalizable."""


class UnbiasednessError(RuntimeError):
    """A constructed pair of bases is not mutually unbiased."""


class CycleMatchError(RuntimeError):
    """The cycle unitary does not map a basis onto the next one."""


class BudgetExceededError(RuntimeError):
    """Sweep size is over the configured budget; sample or raise the budget."""


@dataclass(frozen=True)
class Basis:
    """d orthonormal columns, ordered by their signs under the class members.

    generators are the class members g_0.. that basis_from_involutions chose.
    Column b is its own sign code: it has sign -1 under g_i exactly when bit
    n-1-i of b is set. bases.json names each basis by its place in the set.
    """

    vectors: np.ndarray
    generators: tuple[PauliTerm, ...]

    @property
    def d(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class MubSet:
    """Bases built from the classes of provenance, checked unbiased.

    U and action are cycle_unitary's pair for the partition's cycle spec,
    U checked against the exact action, both None without a spec; the label maps
    come from action alone, so a set without it has none. deviation is the
    largest | |<a|b>|^2 - 1/d | over cross-basis pairs, found when the set
    was built.
    """

    bases: tuple[Basis, ...]
    U: np.ndarray | None
    provenance: Partition
    deviation: float
    action: transform.CliffordAction | None

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

    @property
    def cycle_permutations(self) -> np.ndarray | None:
        """pi[j, b]: the element of basis j+1 (cyclically) that U carries
        element b of basis j onto, derived once from the set's action; None
        without an action or unless U cycles the bases."""
        return self._cycle[0]

    @cached_property
    def _cycle(self) -> tuple[np.ndarray | None, str]:
        """(pi, "") with pi as in cycle_permutations, or (None, why). The set's
        action maps all L n basis generators at once. Each image U g_i U^H of
        a generator of basis j must be +-g_S, a product of generators of
        basis j+1 (its _group table), which has sign (-1)^|S & t| on the
        column of code t. So the image's sign on a column, read as a label of
        basis j, is exact, and it is the label that lands on the column."""
        if self.action is None:
            return None, "no projector match: set has no Clifford action of U"
        gens = [g for B in self.bases for g in B.generators]
        n, L, d = gens[0].n, self.L, self.d
        masks = np.array([(g.xmask, g.zmask, g.phase) for g in gens]).T
        x, z, p, s = self.action.conjugate_masks(*masks)
        key = (row_mask(x, n) | row_mask(z, n) << n).reshape(L, n)
        p = (p + 1 - s).reshape(L, n)  # the sign folded into the phase
        flip = _sign_tables(n)[0][:, row_mask(np.arange(d), n)]  # [S, column]
        bit = 1 << np.arange(n - 1, -1, -1)  # g_i's sign is bit n-1-i
        pi = np.full((L, d), -1)
        for j in range(L):
            nxt = (j + 1) % L
            xs, zs, ps = _group(self.bases[nxt].generators)
            table = xs | zs << n
            order = np.argsort(table)
            S = order[np.searchsorted(table, key[j], sorter=order).clip(max=d - 1)]
            lead = (p[j] - ps[S]) % 4  # 0 or 2 where the image is +-g_S
            minus = (lead == 2)[:, None] ^ flip[S]  # [i, column]
            pi[j, bit @ minus] = np.arange(d)
            if (table[S] != key[j]).any() or (lead % 2).any() or (pi[j] < 0).any():
                return None, f"no projector match: U maps basis {j} off basis {nxt}"
        return pi, ""


@dataclass(frozen=True)
class PauliLabels:
    """The action of the d^2 Paulis W = x | z << n on the labels of a MubSet.

    W sends label b of basis j to label b ^ tau[j, W]: bit n-1-i of
    tau[j, W] is 1 when W anticommutes with generator g_i of basis j, as a
    label is its sign code (Basis). Only the identity commutes with two
    disjoint maximal classes, so the Paulis act freely on the pairs of
    labels of bases 0 and 1: pauli_of[t0, t1] is the one W with
    tau[0, W] = t0 and tau[1, W] = t1. The set keeps the tables, so tau is
    stored in the smallest unsigned type that holds d - 1.
    """

    tau: np.ndarray  # (L, d^2)
    pauli_of: np.ndarray  # (d, d)

    @staticmethod
    def of(ms: "MubSet") -> "PauliLabels":
        d, L = ms.d, ms.L
        w = np.arange(d * d)
        g = np.array([[(q.xmask, q.zmask) for q in B.generators] for B in ms.bases])
        # W = x | z << n flips bit n-1-i of basis j's labels when
        # parity(x & g_i.z) ^ parity(z & g_i.x) is 1; the two halves are
        # tabled apart over the d values of x and of z, then XORed
        bit = 1 << np.arange(g.shape[1] - 1, -1, -1)[:, None]
        t = np.arange(d)
        tx = (parity(t & g[..., 1, None]) * bit).sum(axis=1)  # [j, x]
        tz = (parity(t & g[..., 0, None]) * bit).sum(axis=1)  # [j, z]
        tau = (tz[:, :, None] ^ tx[:, None, :]).reshape(L, -1)
        tau = tau.astype(np.min_scalar_type(d - 1))
        pauli_of = np.full((d, d), -1)
        pauli_of[tau[0], tau[1]] = w
        if np.any(pauli_of < 0):
            raise RuntimeError(
                "Paulis do not act freely on the labels of bases 0 and 1"
            )
        return PauliLabels(tau, pauli_of)

    def representatives(self, strings: np.ndarray) -> np.ndarray:
        """Each string moved by the one Pauli that sends its (b_0, b_1) to
        (0, 0); P_{W.b} = W P_b W^dag has the spectrum of P_b."""
        W = self.pauli_of[strings[:, 0], strings[:, 1]]
        return strings ^ self.tau[:, W].T


@dataclass(frozen=True)
class CycleReport:
    worst_residual: float
    permutations: tuple[tuple[int, ...], ...]


def fix_phase(v: np.ndarray) -> np.ndarray:
    mags = np.abs(v)
    i = int(np.argmax(mags > mags.max() - 1e-12))
    ph = v[i] / abs(v[i])
    return v / ph


def common_eigenbasis(cc: CommutingClass) -> Basis:
    """Joint eigenbasis of one commuting class, canonically ordered."""
    return basis_from_involutions(list(cc.members))


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


@cache
def _sign_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """flip[a, b] = parity of |a & b| for all a, b < 2^n, and 1 - 2 flip,
    both int8, built once per n and read-only: every parity the basis
    construction needs is of two n-bit masks, so it is one table read."""
    t = np.arange(1 << n)
    flip = parity(t[:, None] & t).astype(np.int8)
    sign = 1 - 2 * flip
    flip.flags.writeable = sign.flags.writeable = False
    return flip, sign


def _group(gens: "Sequence[PauliTerm]") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, zs, ps): g_S = i^ps[S] X^xs[S] Z^zs[S] for every subset S of
    the generators (bit i of S for g_i), the masks in row-index bit order
    (pauli.apply) and ps not reduced mod 4."""
    n = gens[0].n
    flip = _sign_tables(n)[0]
    xs, zs, ps = np.zeros(1, int), np.zeros(1, int), np.zeros(1, int)
    for g in gens:
        gx, gz = row_mask(g.xmask, n), row_mask(g.zmask, n)
        xs, zs, ps = (
            np.concatenate([xs, xs ^ gx]),
            np.concatenate([zs, zs ^ gz]),
            np.concatenate([ps, ps + g.phase + 2 * flip[zs, gx]]),
        )
    return xs, zs, ps


def basis_from_involutions(members: "Sequence[PauliTerm]") -> Basis:
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
    flip, sign = _sign_tables(n)  # [t, S]: parity of |S & t|, and (-1)^that
    xs, zs, ps = _group(gens)
    # d <j|P_t|j>, a sum over the diagonal subgroup K: |K| on the support of
    # code t, 0 off it
    K = xs == 0
    diag = sign[:, K] * (1 - ps[K] % 4) @ sign[zs[K]]
    j0 = np.argmax(diag > 0, axis=1)
    rows = j0 ^ xs[:, None]  # [S, t]
    expo = (2 * flip.T + ps[:, None] + 2 * flip[zs[:, None], j0]) % 4
    support = np.zeros((d, d), dtype=bool)
    phase = np.zeros((d, d), dtype=np.int8)  # i^phase on the support
    support[rows, t], phase[rows, t] = True, expo
    # member m is i^(phase_m - ps[combo_m]) g_combo_m, with that power of i
    # 1 or -1 as both are Hermitian; its sign on code t carries (-1)^|combo_m & t|
    combos = np.array(combos)
    lead = 1 - (np.array([M.phase for M in members]) - ps[combos]) % 4
    signs = lead[:, None] * sign[combos]
    _check_eigenvectors(members, support, phase, signs)
    # canonical order: member 0's sign most significant, +1 before -1. Up to
    # ties a member's sign is first decided by a generator, so this sorts the
    # codes by their generator bits, g_0's most significant: column k has
    # code row_mask(k), and so sign -1 under g_i where bit n-1-i of k is set
    # (Basis). Checked: each column's pattern precedes the next's
    order = row_mask(t, n)
    ordered = signs[:, order].T  # [k, m]
    changed = ordered[1:] != ordered[:-1]
    first = changed.argmax(axis=1)  # the member deciding k vs k + 1
    if not (changed.any(axis=1).all() and (ordered[t[:-1], first] == 1).all()):
        raise DiagonalizationError("sign patterns are not distinct")
    a = math.sqrt(np.count_nonzero(K) / d)  # 1 / sqrt(support size)
    amp = np.array([complex(a, 0), complex(0, a), complex(-a, 0), complex(0, -a)])
    vectors = np.where(support, amp[phase], 0)[:, order]
    return Basis(np.ascontiguousarray(vectors), tuple(gens))


def _check_eigenvectors(members, support, phase, signs) -> None:
    """Every column is a vector of the form basis_from_involutions builds,
    and every member maps it to its sign times itself, exactly.

    The form: 1/a^2 support rows, as many as the x masks of the group the
    members generate, phase 0 at the first of them and off the support. So
    no column is zero, and a column with one support row (a Z class) has
    its phase fixed. The map: on the masks, i^p (-1)^|z & r| v[r] lands on
    row r ^ x (pauli.apply)."""
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
    turn = (p[:, None] + 2 * _sign_tables(n)[0][z]).astype(np.int8)  # [m, r]
    # [m, r, t]: the image's phase minus the phase it must have, mod 4
    diff = phase[moved]
    diff -= phase
    diff -= turn[:, :, None] + (1 - signs).astype(np.int8)[:, None, :]
    diff &= 3
    wrong = diff != 0
    wrong &= support
    if wrong.any() or not (support[moved] == support).all():
        raise DiagonalizationError("a member does not map the basis to its signs")


def basis_matrices(bases) -> list[np.ndarray]:
    """The vector matrices of a MubSet or of a sequence of Basis or arrays."""
    if isinstance(bases, MubSet):
        bases = bases.bases
    return [b.vectors if isinstance(b, Basis) else np.asarray(b) for b in bases]


def complex_json(M: np.ndarray) -> str:
    """json.dumps(M as nested lists with a [real, imag] pair for each entry).

    json.dumps runs once per distinct entry, entries grouped by their bit
    pattern (so -0.0 and 0.0 stay apart), and the tokens are joined.
    """
    M = np.ascontiguousarray(M, dtype=complex)
    values, inverse = np.unique(
        M.reshape(-1).view(np.dtype((np.void, M.itemsize))), return_inverse=True
    )
    values = values.view(complex)
    pairs = np.stack([values.real, values.imag], -1).tolist()
    tokens = [json.dumps(pair) for pair in pairs]
    items = np.array(tokens, dtype=object)[inverse.reshape(M.shape)].tolist()

    def join(rows, depth):
        if depth < M.ndim - 1:
            rows = [join(r, depth + 1) for r in rows]
        return "[" + ", ".join(rows) + "]"

    return join(items, 0)


def _pair_deviations(mats):
    """(j, k, dev, (a, b), ov) for every pair j < k of bases, in (j, k)
    order: dev the largest | |<a|b>|^2 - 1/d | of the pair, (a, b) the
    first element pair attaining it and ov that |<a|b>|^2. Each basis j is
    paired with the ones after it in stacked products, each product the one
    B_j^H B_k gemm of a single pair, with at most about BLOCK_BYTES of
    temporaries at a time."""
    B = np.stack(mats)
    L, d = B.shape[:2]
    step = max(1, BLOCK_BYTES // (64 * d * d))
    for j in range(L - 1):
        BH = B[j].conj().T
        for k0 in range(j + 1, L, step):
            ov = np.abs(BH @ B[k0 : k0 + step]).reshape(-1, d * d)
            ov **= 2
            dev = ov - 1.0 / d
            np.abs(dev, out=dev)
            at = dev.argmax(axis=1)
            rows = np.arange(len(at))
            top, hit = dev[rows, at].tolist(), ov[rows, at].tolist()
            for i, a in enumerate(at.tolist()):
                yield j, k0 + i, top[i], divmod(a, d), hit[i]


def build_mub_set(part: Partition) -> MubSet:
    """Extract all joint eigenbases and verify mutual unbiasedness, keeping
    the worst deviation. U and its action are cycle_unitary's for
    part.spec; without a spec, both are None."""
    U, action = None, None
    if part.spec is not None:
        U, action = transform.cycle_unitary(build_gamma_generators(part.n), part.spec)
    bases = tuple(common_eigenbasis(c) for c in part.classes)
    worst = 0.0
    for j, k, dev, bad, ov in _pair_deviations([b.vectors for b in bases]):
        if dev > UNBIAS_TOL:
            raise UnbiasednessError(
                f"unbiasedness violated at bases ({j},{k}), elements "
                f"{bad}, |overlap|^2 = {ov:.6g}"
            )
        worst = max(worst, dev)
    return MubSet(bases, U, part, worst, action)


def _cycle_unitary(ms: MubSet) -> np.ndarray:
    if ms.U is None:
        raise ValueError("set has no cycle unitary: its partition has no cycle spec")
    return ms.U


def verify_cycle(ms: MubSet) -> CycleReport:
    """Check U-conjugated projectors of basis j against basis j+1.

    Returns the worst Frobenius residual of U|b^(j)> against element pi_j(b)
    of basis j+1, and the maps pi_j (MubSet.cycle_permutations); raises
    CycleMatchError, naming the first basis U carries off the next, if there
    are none. The vectors U|b^(j)> of basis j come from one product U B_j.
    """
    U = _cycle_unitary(ms)
    pi, why = ms._cycle
    if pi is None:
        raise CycleMatchError(why)
    worst = 0.0
    for j in range(ms.L):
        W = ms.bases[(j + 1) % ms.L].vectors[:, pi[j]]
        worst = max(worst, float(_projector_distances(U @ ms.bases[j].vectors, W).max()))
    return CycleReport(worst, tuple(map(tuple, pi.tolist())))


def _projector_distances(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """|v v^H - w w^H|_F for each pair of columns v, w of V and W, without
    forming either projector. With phi = arg <w, v> and e = e^(-i phi) v - w,
    v v^H - w w^H = [w e] C [w e]^H for C = [[0, 1], [1, 1]], so its squared
    norm is tr((C G)^2), G the 2 x 2 Gram matrix of (w, e). The O(1) parts
    of the two projectors never meet, so nothing cancels."""
    Wc = W.conj()
    E = V * np.exp(-1j * np.angle(np.einsum("ij,ij->j", Wc, V))) - W
    ww = np.einsum("ij,ij->j", Wc, W).real
    ee = np.einsum("ij,ij->j", E.conj(), E).real
    we = np.einsum("ij,ij->j", Wc, E)
    # C G = [[ew, ee], [ww + ew, we + ee]] with ew = conj(we)
    sq = (we.conj() ** 2 + 2 * ee * (ww + we.conj()) + (we + ee) ** 2).real
    return np.sqrt(np.maximum(sq, 0))


def _cycle_strings(ms: MubSet) -> np.ndarray:
    """Strings b that the cycle unitary maps to themselves.

    U|b_j^(j)> equals |b_{j+1}^(j+1)> up to phase for every j, cyclically,
    so the selector P_b commutes with U. Empty if U does not cycle the bases
    or is None.
    """
    pi = ms.cycle_permutations
    if pi is None:
        return np.empty((0, ms.L), dtype=np.int64)
    rows = np.empty((ms.d, ms.L), dtype=np.int64)
    rows[:, 0] = np.arange(ms.d)
    for j in range(1, ms.L):
        rows[:, j] = pi[j - 1, rows[:, j - 1]]
    return rows[pi[-1, rows[:, -1]] == rows[:, 0]]


def orbit_maps(ms: MubSet) -> list[np.ndarray]:
    """The int32 key permutations of the strings with prefix (0, 0) whose
    orbits the sweep labels: f, when U cycles the bases, and k, when it
    moves some key. A string's key is its index: with d = 2^n, digit j fills
    bits n (L-1-j) to n (L-j) - 1. Both keep the spectrum, and both map
    Pauli orbits onto Pauli orbits, so each stands for one generator of the
    group of the Paulis, U and complex conjugation K. Entry b of a map is
    the key b goes to.

    f(b) is the Pauli representative of U.b, (U.b)_{j+1} = pi_j(b_j): P_{U.b}
    = U P_b U^dag. f is left out when U is None or does not cycle the bases.
    U is Clifford, so U W U^dag is one Pauli W' for every Pauli W, and pi,
    read exactly off U's action, has U.(W.b) = W'.(U.b). With b_0 = b_1 = 0,
    (U.b)_1 = pi_0(0) is fixed, so the one Pauli that brings U.b back to
    prefix (0, 0) depends on b_{L-1} alone: digit j of f(b) is
    T_j[b_{j-1}, b_{L-1}], read with shifts, masks and gathers.

    k(b) is the Pauli representative of K.b, P_{K.b} = conj(P_b). A
    Hermitian generator i^p X^x Z^z has p = |x & z| mod 2 and conjugates to
    (-1)^p times itself, so K flips the bits of a label of basis j that
    name its generators with odd |x & z|, and the Pauli that brings K.b back
    to prefix (0, 0) flips more: digit j of k(b) is b_j ^ m_j
    (_conjugation_labels), read off the generator masks with no dense read.
    So k is the XOR of the key with one mask, left out when the mask is 0.

    Each map holds d^(L-2) int32 keys, so the caller keeps that below 2^31.
    """
    if ms.L < 3:
        return []
    n, L, d = ms.d.bit_length() - 1, ms.L, ms.d
    mask = d - 1
    shift = [n * (L - 1 - j) for j in range(L)]  # digit j's field starts here
    keys = np.arange(d ** (L - 2), dtype=np.int32)
    maps = []
    pi = ms.cycle_permutations
    if pi is not None:
        # T[j - 2, x, y]: digit j of f(b) for b_{j-1} = x and b_{L-1} = y (f
        # reads row 0 of T_2, as b_1 = 0). The Pauli W for each b_{L-1}
        # takes (U.b)_0 = pi_{L-1}(b_{L-1}) to label 0 of basis 0 and
        # (U.b)_1 = pi_0(0) to label 0 of basis 1
        pl = ms.pauli_labels
        W = pl.pauli_of[pi[-1], pi[0, 0]]
        digit, x = np.arange(2, L)[:, None, None], np.arange(d)[:, None]
        T = (pi[digit - 1, x] ^ pl.tau[digit, W]).astype(np.int32)
        last = keys & mask
        f = T[0, 0, last] << shift[2]  # b_1 = 0
        for j in range(3, L):
            f |= T[j - 2, (keys >> shift[j - 1]) & mask, last] << shift[j]
        maps.append(f)
    flips = sum(int(m) << s for m, s in zip(_conjugation_labels(ms), shift))
    if flips:
        maps.append(keys ^ flips)
    return maps


def _conjugation_labels(ms: MubSet) -> np.ndarray:
    """m[j]: the bits k flips in digit j, those complex conjugation flips
    (y_j) and then those the Pauli W = pauli_of[y_0, y_1] flips:
    m_j = y_j ^ tau[j, W], so m_0 = m_1 = 0."""
    pl, n = ms.pauli_labels, ms.d.bit_length() - 1
    xz = np.array([[g.xmask & g.zmask for g in B.generators] for B in ms.bases])
    y = (parity(xz) << np.arange(n - 1, -1, -1)).sum(axis=1)  # [j]: bits K flips
    return y ^ pl.tau[:, pl.pauli_of[y[0], y[1]]]


def cycle_coherent_family(ms: MubSet, b: int) -> np.ndarray:
    """Columns U^j |b^(0)>, j = 0..L-1: the orbit of one basis-0 vector."""
    U = _cycle_unitary(ms)
    cols = [ms.bases[0].vectors[:, b]]
    for _ in range(ms.L - 1):
        cols.append(U @ cols[-1])
    return np.column_stack(cols)


def eigenvector_residual(U: np.ndarray, v: np.ndarray) -> float:
    lam = v.conj() @ U @ v
    return float(np.linalg.norm(U @ v - lam * v))


def invariant_superposition_family(ms: MubSet) -> list[np.ndarray]:
    """Eigenvector superpositions sum_j exp(-i j (theta + 2 pi k)/L) U^j |b^(0)>.

    theta is the phase of the scalar U^L; ramp index k runs over 0..L-1 and b
    over the basis-0 elements, so every returned state is an eigenvector of
    U. Near-null combinations are dropped, duplicates are not. The family
    U^j |b^(0)> of each b (cycle_coherent_family) is built once and serves
    all L ramps.
    """
    UL = np.linalg.matrix_power(_cycle_unitary(ms), ms.L)
    theta = float(np.angle(UL[0, 0]))
    fams = [cycle_coherent_family(ms, b) for b in range(ms.d)]
    out = []
    for k in range(ms.L):
        coeffs = np.exp(-1j * np.arange(ms.L) * (theta + 2 * np.pi * k) / ms.L)
        for fam in fams:
            psi = fam @ coeffs
            nrm = np.linalg.norm(psi)
            if nrm > 1e-8:
                v = fix_phase(psi / nrm)
                if eigenvector_residual(ms.U, v) < 1e-8:
                    out.append(v)
    return out


def mub_set_json_parts(ms: MubSet, cycle: CycleReport | None = None):
    """The text of mub_set_to_json as an iterator of pieces, one per basis
    between the head and the tail, so a writer never holds the whole
    document. The head and the tail are built before this returns."""
    from .classes import partition_to_json

    doc = {
        "d": ms.d,
        "L": ms.L,
        "bases": None,
        "unbiasedness_deviation": ms.deviation,
        "provenance": json.loads(partition_to_json(ms.provenance)),
    }
    if cycle is not None:
        doc["cycle"] = {
            "worst_residual": cycle.worst_residual,
            "permutations": [list(p) for p in cycle.permutations],
        }
    # "bases" is the third key, after two numbers, so this is its null
    head, _, tail = json.dumps(doc).partition('"bases": null')
    bases = (
        f'{", " if i else ""}{{"label": {i}, '
        f'"vectors": {complex_json(b.vectors.T)}}}'
        for i, b in enumerate(ms.bases)
    )
    return chain([head + '"bases": ['], bases, ["]" + tail])


def mub_set_to_json(ms: MubSet, cycle: CycleReport | None = None) -> str:
    """The set as JSON: the text of json.dumps(doc) with each basis's
    vectors written by complex_json."""
    return "".join(mub_set_json_parts(ms, cycle))
