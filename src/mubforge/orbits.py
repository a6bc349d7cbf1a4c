"""Key maps of the symmetries that the selector sweep quotients by.

A MubSet's strings of labels (one element per basis) are moved by the
Paulis (MubSet.pauli_labels), by each Clifford action that permutes the
bases, element b of basis j to element pi_j(b) of basis sigma(j) (the
cycle unitary, MubSet.cycle_permutations, and each symmetry the partition
declares, MubSet.symmetry_permutations), and by complex conjugation K. The
sweep solves strings with prefix (0, 0) only, one per Pauli orbit, and
their keys are their indices. orbit_maps gives each action and K as one
int32 permutation of those keys, whose orbits entropy._orbit_minima
labels: a broadcast table map for each action (_key_map) and one XOR mask
for conjugation. For an (n, 2n+1) set the group is Paulis x AGL(1, L) x K.
Only the sweep runs this module, so entropy loads it, and generate and
wigner compile none of it.
"""

from __future__ import annotations

import numpy as np

from .mub import MubSet
from .pauli import parity


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
    orbits the sweep labels: f, when U cycles the bases, one map for each
    declared symmetry that permutes them (MubSet.symmetry_permutations),
    and k, when it moves some key. A string's key is its index: with
    d = 2^n, digit j fills bits n (L-1-j) to n (L-j) - 1. Each keeps the
    spectrum and maps Pauli orbits onto Pauli orbits, so each stands for
    one generator of the group of the Paulis, U, the symmetries and complex
    conjugation K: Paulis x AGL(1, L) x K for an (n, 2n+1) set, whose
    multiplier sends basis j to basis g j mod L. Entry b of a map is the
    key b goes to.

    f and each symmetry map come from one builder (_key_map), f as the case
    sigma(j) = j + 1. f is left out when U is None or does not cycle the
    bases. Every action here is Clifford, so it carries each Pauli W to one
    Pauli W', and pi, read exactly off the action, has g.(W.b) = W'.(g.b).

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
    n, L = ms.d.bit_length() - 1, ms.L
    shift = [n * (L - 1 - j) for j in range(L)]  # digit j's field starts here
    perms = list(ms.symmetry_permutations)
    if ms.cycle_permutations is not None:
        perms.insert(0, ((np.arange(L) + 1) % L, ms.cycle_permutations))
    flips = sum(int(m) << s for m, s in zip(_conjugation_labels(ms), shift))
    # the maps are rows of one block, which the heap returns whole once the
    # caller drops them all
    maps = np.empty((len(perms) + bool(flips), ms.d ** (L - 2)), dtype=np.int32)
    for row, (sigma, pi) in zip(maps, perms):
        _key_map(ms, sigma, pi, shift, row.reshape((ms.d,) * (L - 2)))
    if flips:
        np.bitwise_xor(np.arange(maps.shape[1], dtype=np.int32), flips, out=maps[-1])
    return list(maps)


def _key_map(ms: MubSet, sigma, pi, shift, out: np.ndarray) -> None:
    """The key map of an action that sends element b of basis j to element
    pi[j, b] of basis sigma[j]: key b goes to the Pauli representative of
    g.b, (g.b)_{sigma(j)} = pi_j(b_j), as P_{g.b} = g P_b g^dag. With
    s = sigma^-1, the one Pauli W that brings g.b back to prefix (0, 0) is
    fixed by the labels landing at positions 0 and 1, pi_{s(0)}(b_{s(0)})
    and pi_{s(1)}(b_{s(1)}). So digit i of the image is
    pi_{s(i)}(b_{s(i)}) ^ tau[i, W], a function of the digits s(i), s(0)
    and s(1) that are free (not digit 0 or 1, which are 0): d^2 values for
    the cycle, where s(1) = 0, and for the multiplier, where s(0) = 0, at
    most d^3. out holds the keys as a grid with one axis for each of digits
    2..L-1, and each digit's int32 table lies along the axes it reads, so
    ORing the tables into out broadcasts them over all d^(L-2) keys with no
    key-sized temporary."""
    L, d, pl = ms.L, ms.d, ms.pauli_labels
    src = np.argsort(sigma)  # src[i]: the digit that lands at position i

    def labels(j):  # pi_j of digit j along its axis of the grid; b_j = 0 for j < 2
        b = np.arange(d) if j >= 2 else np.zeros(1, dtype=int)
        return pi[j, b].reshape([-1 if a == j else 1 for a in range(2, L)])

    W = pl.pauli_of[labels(src[0]), labels(src[1])]
    out.fill(0)
    for i in range(2, L):
        digit = (labels(src[i]) ^ pl.tau[i, W]).astype(np.int32)
        digit <<= shift[i]
        out |= digit


def _conjugation_labels(ms: MubSet) -> np.ndarray:
    """m[j]: the bits k flips in digit j, those complex conjugation flips
    (y_j) and then those the Pauli W = pauli_of[y_0, y_1] flips:
    m_j = y_j ^ tau[j, W], so m_0 = m_1 = 0."""
    pl, n = ms.pauli_labels, ms.d.bit_length() - 1
    xz = np.array([[g.xmask & g.zmask for g in B.generators] for B in ms.bases])
    y = (parity(xz) << np.arange(n - 1, -1, -1)).sum(axis=1)  # [j]: bits K flips
    return y ^ pl.tau[:, pl.pauli_of[y[0], y[1]]]
