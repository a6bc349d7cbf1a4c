"""Joint eigenbases of commuting classes, unbiasedness and cycling checks.

Each class of d-1 commuting Hermitian Pauli monomials, together with the
identity, spans a maximal abelian algebra, so its joint eigenvectors are
stabilizer states with closed forms (Aaronson and Gottesman, PRA 70,
052328). basis_from_involutions builds them exactly from the Pauli masks:
a GF(2) elimination picks n independent generators, each generator-sign
code t gives the projector P_t as a sum over the generated group, and the
vector is a column of P_t with entries 0, +-a or +-i a. Every parity of two
n-bit masks it needs is read from one table per n. No eigensolver and no
tolerance is involved; every generator is checked exactly to map every
vector to its sign times itself, so every member does. Vectors are ordered
by their sign pattern (member 0 most significant, +1 before -1), and each
vector's global phase makes its first nonzero component real positive, the
fix_phase convention for vectors whose nonzero components share one magnitude.

build_mub_set is the one path from a Partition to a checked MubSet, for the
cycled partitions of classes.py and the symplectic spread of wigner.py
alike; a spread has no cycle spec, so its set has U = None and no action.
It checks unbiasedness exactly, on the masks (_check_unbiased), so the
float deviation (MubSet.deviation) is a rounding, measured only when read.

The symmetries of a set act on strings of labels (one element per basis).
A label is its own sign code: label b of basis j has sign -1 under
generator g_i exactly when bit n-1-i of b is set. So a Pauli operator W
acts on the labels of basis j as b -> b ^ tau_j(W) (PauliLabels, built once
per set), and complex conjugation as b -> b ^ y_j, y_j holding the bits of
the imaginary generators, read off their masks. A Clifford action that
permutes the bases sends element b of basis j to element pi_j(b) of basis
sigma(j): the cycle unitary with sigma(j) = j+1, cyclically
(MubSet.cycle_permutations), and each symmetry the partition declares,
as the multiplier of an (n, 2n+1) set with sigma(j) = g j mod L
(MubSet.symmetry_permutations). sigma and pi are read exactly off the
action, for U the tableau cycle_unitary checks U against: each generator
image is found by its masks in the bases' tables of subset products
(_group, built once per set), whose signs on every column are one table
read, so no dense matrix is touched. orbits.orbit_maps composes them into
permutations of the integer string keys whose orbits the selector sweep
labels. verify_cycle checks U against pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from . import transform
from .classes import CommutingClass, Partition, repeats
from .pauli import (
    PauliTerm,
    build_gamma_generators,
    commutes,
    is_hermitian,
    parity,
    row_mask,
)

# about the most one block of overlap products in MubSet.deviation, of
# selectors in selector._eigmax_chunks, or of histogram rows waiting for a
# merge in entropy._summarize, holds: 1 MB blocks ran faster than 4 MB ones
# in the overlap products at d = 32 and d = 64, on a core with 2 MB of L2
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
    The exact form is kept: vectors is _amplitudes(codes)[codes] bit for bit
    (code k for i^k a, 4 off the support), and group is _group(generators).
    """

    vectors: np.ndarray
    generators: tuple[PauliTerm, ...]
    codes: np.ndarray
    group: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def d(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class MubSet:
    """Bases built from the classes of provenance, checked unbiased.

    U and action are cycle_unitary's pair for the partition's cycle spec,
    U checked against the exact action, both None without a spec; the label maps
    come from action alone, so a set without it has none.
    """

    bases: tuple[Basis, ...]
    U: np.ndarray | None
    provenance: Partition
    action: transform.CliffordAction | None

    @property
    def L(self) -> int:
        return len(self.bases)

    @property
    def d(self) -> int:
        return self.bases[0].d

    @cached_property
    def deviation(self) -> float:
        """max | |<a|b>|^2 - 1/d | over cross-basis pairs of the float vectors
        (their rounding), measured on first read: a block of about BLOCK_BYTES
        of bases k meets each j < k in one stacked product, a gemm per pair."""
        B, d, L = basis_matrices(self), self.d, self.L
        step, worst = max(1, BLOCK_BYTES // (64 * d * d)), 0.0
        for k0 in range(1, L, step):
            block = np.stack(B[k0 : k0 + step])
            for j in range(min(k0 + step, L) - 1):
                ov = np.abs(B[j].conj().T @ block[max(0, j + 1 - k0) :]) ** 2
                worst = max(worst, float(np.abs(ov - 1.0 / d).max()))
        return worst

    @cached_property
    def pauli_labels(self) -> "PauliLabels":
        """How the Paulis permute the labels of every basis; built on first
        use and kept."""
        return PauliLabels.of(self)

    @property
    def cycle_permutations(self) -> np.ndarray | None:
        """pi[j, b]: the element of basis j+1 (cyclically) that U carries
        element b of basis j onto, derived once from the set's action; None
        without an action or unless U cycles the bases. With the Paulis,
        complex conjugation and, for an (n, 2n+1) set, the multiplier
        (symmetry_permutations), U generates the group Paulis x AGL(1, L) x K
        whose orbits the sweep labels (orbit_maps)."""
        return self._cycle[0]

    @cached_property
    def _cycle(self) -> tuple[np.ndarray | None, str]:
        """(pi, "") with pi as in cycle_permutations, or (None, why)."""
        if self.action is None:
            return None, "no projector match: set has no Clifford action of U"
        perm, why = self._permutation(self.action, (np.arange(self.L) + 1) % self.L)
        return perm and perm[1], why

    @cached_property
    def symmetry_permutations(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(sigma, pi) of each symmetry the provenance declares (its exact
        cycle_action, Partition.symmetries) that permutes the bases, as in
        _permutation; one whose images leave the set is left out. For an
        (n, 2n+1) set this is the multiplier, sigma(j) = g j mod L, so with
        U, the Paulis and K the group is Paulis x AGL(1, L) x K."""
        gs = build_gamma_generators(self.provenance.n)
        actions = (transform.cycle_action(gs, s) for s in self.provenance.symmetries)
        perms = (self._permutation(a)[0] for a in actions)
        return tuple(p for p in perms if p is not None)

    @cached_property
    def _group_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, ps, order) over the subset products g_S of every basis
        (Basis.group), entry j d + S for basis j: the key x | z << n of the
        masks, the phase, and the order that sorts the keys. Built once per
        set, by the unbiasedness check, and shared by every action's maps."""
        xs, zs, ps = (np.concatenate(t) for t in zip(*(B.group for B in self.bases)))
        keys = xs | zs << self.bases[0].generators[0].n
        return keys, ps, np.argsort(keys)

    def _permutation(
        self, action: transform.CliffordAction, to: np.ndarray | None = None
    ) -> tuple[tuple[np.ndarray, np.ndarray] | None, str]:
        """((sigma, pi), "") when the action maps basis j onto basis
        sigma[j] (to[j], if given) and element b of basis j onto element
        pi[j, b] of that basis, for every j; else (None, why). The action
        maps all L n basis generators at once. Each image g g_i g^H must be
        +-g_S, a product of the generators of one basis (its _group table),
        the same basis for all n generators of basis j; +-g_S has sign
        (-1)^|S & t| on the column of code t. So the image's sign on a
        column, read as a label of basis j, is exact, and it is the label
        that lands on the column. An action is an automorphism, so no two
        bases land on one."""
        gens = [g for B in self.bases for g in B.generators]
        n, L, d = gens[0].n, self.L, self.d
        masks = np.array([(g.xmask, g.zmask, g.phase) for g in gens]).T
        x, z, p, s = action.conjugate_masks(*masks)
        key = row_mask(x, n) | row_mask(z, n) << n
        keys, ps, order = self._group_tables
        at = order[np.searchsorted(keys, key, sorter=order).clip(max=L * d - 1)]
        lead = (p + 1 - s - ps[at]) % 4  # 0 or 2 where the image is +-g_S
        sigma, S = (at // d).reshape(L, n), (at % d).reshape(L, n)
        want = sigma[:, :1] if to is None else to[:, None]
        bad = ((keys[at] != key) | (lead % 2 == 1)).reshape(L, n) | (sigma != want)
        bad = bad.any(axis=1)
        flip = _sign_tables(n)[0][:, row_mask(np.arange(d), n)]  # [S, column]
        minus = (lead.reshape(L, n) == 2)[:, :, None] ^ flip[S]  # [j, i, column]
        bit = 1 << np.arange(n - 1, -1, -1)  # g_i's sign is bit n-1-i
        pi = np.full((L, d), -1)
        pi[np.arange(L)[:, None], bit @ minus] = np.arange(d)
        bad |= (pi < 0).any(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            where = "the set" if to is None else f"basis {to[j]}"
            return None, f"no projector match: the action maps basis {j} off {where}"
        return (sigma[:, 0], pi), ""


@dataclass(frozen=True)
class PauliLabels:
    """The action of the d^2 Paulis W = x | z << n on the labels of a MubSet.

    W sends label b of basis j to label b ^ tau[j, W]: bit n-1-i of
    tau[j, W] is 1 when W anticommutes with generator g_i of basis j, as a
    label is its sign code (Basis). The groups of bases 0 and 1 share only
    +-I (build_mub_set), so the Paulis act freely on the pairs of
    labels of bases 0 and 1: pauli_of[t0, t1] is the one W with
    tau[0, W] = t0 and tau[1, W] = t1. The set keeps the tables, so tau is
    stored in the smallest unsigned type that holds d - 1.
    """

    tau: np.ndarray  # (L, d^2)
    pauli_of: np.ndarray  # (d, d)

    @staticmethod
    def of(ms: "MubSet") -> "PauliLabels":
        d, L = ms.d, ms.L
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
        pauli_of[tau[0], tau[1]] = np.arange(d * d)
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
    signs = _check_eigenvectors(members, np.array(combos), (xs, zs, ps), support, phase)
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
    codes = np.where(support, phase, np.int8(4)).take(order, axis=1)
    return Basis(_amplitudes(codes)[codes], tuple(gens), codes, (xs, zs, ps))


def _amplitudes(codes: np.ndarray) -> np.ndarray:
    """What codes index: i^k a at k < 4, a = 1/sqrt(support size), 0 at 4."""
    a = math.sqrt(1 / np.count_nonzero(codes[:, 0] < 4))
    return np.array([complex(a, 0), complex(0, a), complex(-a, 0), complex(0, -a), 0])


def _check_eigenvectors(members, combos, group, support, phase) -> np.ndarray:
    """Every column is a vector of the form basis_from_involutions builds,
    and every generator maps it to its sign times itself, exactly; returns
    the signs [member, code] that follow for the members.

    The form: 1/a^2 support rows, as many as the x masks of the group
    (xs, zs, ps) = _group(generators), phase 0 at the first of them and off
    the support. g_i is entry 2^i of the group: i^p (-1)^|z & r| v[r] lands
    on row r ^ x (pauli.apply), with sign (-1)^t_i on code t. Member m is
    i^(phase_m - ps[S]) g_S, S = combos[m]; that power of i must be +-1."""
    xs, zs, ps = group
    n, r = members[0].n, np.arange(len(xs))
    flip, sign = _sign_tables(n)
    if (
        (np.count_nonzero(support, axis=0) * np.count_nonzero(xs == 0) != len(r)).any()
        or phase[support.argmax(axis=0), r].any()
        or np.where(support, 0, phase).any()
    ):
        raise DiagonalizationError("a column is not a normalized stabilizer vector")
    g = 1 << np.arange(n)  # the subset of each generator alone
    moved = r ^ xs[g, None]  # [i, r]
    turn = (ps[g, None] + 2 * flip[zs[g]]).astype(np.int8)  # [i, r]
    # [i, r, t]: the image's phase minus the phase it must have, mod 4
    diff = phase[moved] - phase - turn[:, :, None] - 2 * flip[g][:, None, :]
    lead = (np.array([M.phase for M in members]) - ps[combos]) % 4  # 0 or 2
    if (
        (((diff & 3) != 0) & support).any()
        or (support[moved] != support).any()
        or (lead % 2).any()
    ):
        raise DiagonalizationError("a member does not map the basis to its signs")
    return (1 - lead)[:, None] * sign[combos]


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
    return _tokens_json(values.view(complex), inverse.reshape(M.shape))


def _tokens_json(values: np.ndarray, index: np.ndarray) -> str:
    """The nested JSON list of the [real, imag] pairs of values[index]."""
    import json

    tokens = [json.dumps([v.real, v.imag]) for v in values.tolist()]
    items = np.array(tokens, dtype=object)[index].tolist()

    def join(rows, depth):
        if depth < index.ndim - 1:
            rows = [join(r, depth + 1) for r in rows]
        return "[" + ", ".join(rows) + "]"

    return join(items, 0)


def _check_unbiased(ms: MubSet) -> None:
    """Raise UnbiasednessError if the groups of two bases share a Pauli
    besides +-I, naming the first such pair (j, k) in (j, k) order and the
    Pauli: read exactly off the keys of _group_tables, S = 0 (I) left out.
    Columns certified as the stabilizer states of their classes
    (_check_eigenvectors) are mutually unbiased exactly when no two groups
    share one (Bandyopadhyay et al., Algorithmica 34, 512)."""
    n, L, d = ms.bases[0].generators[0].n, ms.L, ms.d
    keys = ms._group_tables[0].reshape(L, d)[:, 1:].reshape(-1)  # g_S at j (d-1) + S-1
    shared = repeats(keys)  # the first pair of bases holding a key is adjacent
    if len(shared):
        j, k = shared.T // (d - 1)
        i = int(np.argmin(j * L + k))
        x, z = (row_mask((int(keys[shared[i, 0]]) >> s) % d, n) for s in (0, n))
        raise UnbiasednessError(
            f"unbiasedness violated at bases ({j[i]},{k[i]}): both stabilizer "
            f"groups hold X:{x:#x} Z:{z:#x} up to phase"
        )


def build_mub_set(part: Partition) -> MubSet:
    """Extract all joint eigenbases and check mutual unbiasedness exactly
    (_check_unbiased). U and its action are cycle_unitary's for part.spec;
    without a spec, both are None."""
    U, action = None, None
    if part.spec is not None:
        U, action = transform.cycle_unitary(build_gamma_generators(part.n), part.spec)
    ms = MubSet(tuple(common_eigenbasis(c) for c in part.classes), U, part, action)
    _check_unbiased(ms)
    return ms


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
    import json

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
        f'"vectors": {_tokens_json(_amplitudes(b.codes), b.codes.T)}}}'
        for i, b in enumerate(ms.bases)
    )
    return chain([head + '"bases": ['], bases, ["]" + tail])


def mub_set_to_json(ms: MubSet, cycle: CycleReport | None = None) -> str:
    """The set as JSON: the text of json.dumps(doc) with each basis's
    vectors written from its codes through five tokens (_amplitudes)."""
    return "".join(mub_set_json_parts(ms, cycle))
