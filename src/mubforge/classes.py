"""Partitions of Pauli monomials into commuting classes that a cycle permutes.

A class holds d-1 pairwise commuting Hermitian monomials, exactly one of
which is a single generator (the singleton). A partition is a list of L such
classes that are pairwise disjoint as monomials-up-to-sign (P2) and that the
cycle unitary permutes one step forward (P3).

Both generated families share one recipe: pick a singleton and n-1 disjoint
commuting generator pairs as units, take every product of a nonempty subset
of units as class 0, and push class 0 forward with the cycle's exact action
on monomials (transform.cycle_action), the action the cycle unitary is
checked to have; no dense matrix is involved. The unit choices differ:

  * full cycle over all 2n+1 generators (2n+1 prime): singleton G_0, pairs
    (a, 2n+1-a) for a = 1..n-1, so every pair's index sum is 0 mod 2n+1 and
    the pair spacings 2n-1, 2n-3, ..., 3 are all distinct;
  * L parallel cycles of the 2n ladder generators (L prime, L | n): the
    middle element G_{(L-1)/2} as singleton, mirrored pairs (a, L-a) inside
    each block of L consecutive generators, and the leftover block leaders
    paired across blocks;
  * L = 2 (pair swaps): singleton G_0 and the staggered pairs (2i-1, 2i),
    which straddle adjacent swap pairs so no unit maps to itself.

Disjointness of the generated classes is certified by validate_partition
rather than assumed, exactly on the mask arrays, under that same action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import transform
from .pauli import (
    GammaSet,
    PauliTerm,
    build_gamma_generators,
    gamma_product,
    identity,
    multiply,
    parity,
    term_to_text,
)


@dataclass(frozen=True)
class CommutingClass:
    members: tuple[PauliTerm, ...]
    singleton_index: int | None  # None in a partition without a cycle

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Partition:
    """L classes, the cycle spec whose unitary carries class j to class j+1,
    and symmetries: further generator permutations, as cycle specs, whose
    exact actions (transform.cycle_action) permute the classes. Only
    build_classes_2n1 declares one, its multiplier, so the sweep of an
    (n, 2n+1) set quotients by the Paulis x AGL(1, L) x K. They state a
    property of the classes rather than define them, so partition_to_json
    does not write them and equality does not compare them."""

    n: int
    L: int
    spec: transform.CycleSpec | None  # None: not cycled, as in a spread
    classes: tuple[CommutingClass, ...]
    symmetries: tuple[transform.CycleSpec, ...] = field(default=(), compare=False)

    @property
    def d(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class ValidationReport:
    p1: bool
    p2: bool
    p3: bool
    hermitian: bool
    singletons: bool
    p3_sign_flips: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.p1 and self.p2 and self.p3 and self.hermitian and self.singletons


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % k for k in range(2, int(m**0.5) + 1))


def primitive_root(p: int) -> int:
    """The least g whose powers mod the prime p run through all of 1..p-1."""
    for g in range(2, p):
        if len({pow(g, k, p) for k in range(1, p)}) == p - 1:
            return g
    return 1  # p = 2


def _subset_products(
    gs: GammaSet, singleton: int, pairs: Sequence[tuple[int, int]]
) -> tuple[PauliTerm, ...]:
    """All products of nonempty subsets of {G_s} u {i G_a G_b}."""
    units = [gs[singleton]]
    for a, b in pairs:
        units.append(gamma_product(gs, [a, b], 1))
    members = []
    for mask in range(1, 1 << len(units)):
        m = identity(gs.n)
        for i, u in enumerate(units):
            if mask >> i & 1:
                m = multiply(m, u)
        members.append(m)
    return tuple(members)


def _masks(members: Sequence[PauliTerm]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, phase) arrays of a sequence of monomials."""
    rows = [(m.xmask, m.zmask, m.phase) for m in members]
    x, z, p = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return x, z, p


def _push_classes(
    action: transform.CliffordAction,
    c0: tuple[PauliTerm, ...],
    singleton: int,
    L: int,
    spec: transform.CycleSpec,
) -> tuple[CommutingClass, ...]:
    """Generate classes 1..L-1 by repeated conjugation of class 0, one
    batched step per class; signs are dropped (canonical members)."""
    n = action.n
    classes = [CommutingClass(c0, singleton)]
    x, z, p = _masks(c0)
    cur_single = singleton
    for _ in range(L - 1):
        x, z, p, _ = action.conjugate_masks(x, z, p)
        cur_single = spec.shift(cur_single)
        cur = tuple(map(PauliTerm, [n] * len(x), x.tolist(), z.tolist(), p.tolist()))
        classes.append(CommutingClass(cur, cur_single))
    return tuple(classes)


def build_classes_2n1(n: int) -> Partition:
    """2n+1 classes cycled by the unitary that rotates all 2n+1 generators.

    Class 0 uses singleton G_0 and the mirrored pairs (1,2n), (2,2n-1), ...,
    (n-1,n+2); the middle pair (n,n+1) stays out so the count works out to
    d-1 members.

    The multiplier G_a -> +-G_{g a mod L}, g = primitive_root(L), sends
    class j onto class g j mod L. Class j is generated by G_j and the pair
    products G_{j+a} G_{j-a}, a = 1..n-1, whose images are G_{gj} and
    G_{gj+ga} G_{gj-ga}: n-1 of the n pairs (gj+c, gj-c), c = 1..n, and any
    n-1 of them generate class g j with G_{gj}, as the product of all 2n+1
    generators is a phase. It is declared as a symmetry: one cycle
    (g^0, g^1, .., g^(L-2)) mod L over G_1..G_2n that fixes G_0. That cycle
    is even and runs through G_2n, so it has an exact action but no
    cycle_unitary, and needs none.
    """
    L = 2 * n + 1
    if not is_prime(L):
        raise ValueError(f"2n+1 = {L} is not prime")
    gs = build_gamma_generators(n)
    spec = transform.CycleSpec(n, (tuple(range(L)),))
    pairs = [(a, L - a) for a in range(1, n)]
    c0 = _subset_products(gs, 0, pairs)
    classes = _push_classes(transform.cycle_action(gs, spec), c0, 0, L, spec)
    g = primitive_root(L)
    multiplier = transform.CycleSpec(n, (tuple(pow(g, k, L) for k in range(L - 1)),))
    return Partition(n, L, spec, classes, (multiplier,))


def build_classes_Ln(n: int, L: int) -> Partition:
    """L classes cycled by parallel L-cycles of the ladder generators."""
    if not is_prime(L):
        raise ValueError(f"L = {L} is not prime")
    if n % L:
        raise ValueError(f"L = {L} does not divide n = {n}")
    r = n // L
    gs = build_gamma_generators(n)
    groups = tuple(tuple(range(i * L, (i + 1) * L)) for i in range(2 * r))
    spec = transform.CycleSpec(n, groups)

    if L == 2:
        singleton = 0
        pairs = [(2 * i - 1, 2 * i) for i in range(1, n)]
    else:
        singleton = (L - 1) // 2
        pairs = [(a, L - a) for a in range(1, (L - 1) // 2)]
        for i in range(1, 2 * r):
            pairs += [(i * L + a, i * L + L - a) for a in range(1, (L + 1) // 2)]
        pairs += [((2 * i) * L, (2 * i + 1) * L) for i in range(r)]
    assert len(pairs) == n - 1
    c0 = _subset_products(gs, singleton, pairs)
    classes = _push_classes(transform.cycle_action(gs, spec), c0, singleton, L, spec)
    return Partition(n, L, spec, classes)


def fixture_d4(L: int) -> Partition:
    """The two hand-built partitions in dimension 4 (L = 3 or 4), verbatim."""
    if L not in (3, 4):
        raise ValueError(f"fixture exists only for L in {{3, 4}}, got {L}")
    gs = build_gamma_generators(2)

    def cls(singleton, pair1, pair2):
        members = (
            gs[singleton],
            gamma_product(gs, pair1, 1),
            gamma_product(gs, pair2, 1),
        )
        return CommutingClass(members, singleton)

    if L == 3:
        classes = (
            cls(0, [1, 4], [3, 2]),
            cls(1, [2, 4], [3, 0]),
            cls(2, [0, 4], [3, 1]),
        )
        spec = transform.CycleSpec(2, ((0, 1, 2),))
    else:
        classes = (
            cls(0, [1, 4], [2, 3]),
            cls(1, [2, 4], [3, 0]),
            cls(2, [3, 4], [0, 1]),
            cls(3, [0, 4], [1, 2]),
        )
        spec = transform.CycleSpec(2, ((0, 1, 2, 3),))
    return Partition(2, L, spec, classes)


def validate_partition(
    part: Partition, action: transform.CliffordAction | None = None
) -> ValidationReport:
    """Check P1 (commutation), P2 (disjointness) and P3 (cycling under
    action, by default cycle_action of part.spec, the exact action the cycle
    unitary is checked to have) plus Hermiticity and the one-singleton-per-class
    rule, exactly on the mask arrays. Failures land in the report, they do
    not raise; a partition with no cycle spec and no action given is a
    ValueError, as there is nothing to check P3 against.
    """
    gs = build_gamma_generators(part.n)
    if action is None:
        if part.spec is None:
            raise ValueError("partition has no cycle spec, so P3 needs an action")
        action = transform.cycle_action(gs, part.spec)
    n, d = part.n, part.d
    failures = []
    masks = [_masks(c.members) for c in part.classes]

    def key(x, z, p):  # the canonical monomial up to sign, as one integer
        return x | z << n | (p & 1) << 2 * n

    gen_keys = key(*_masks(gs.gammas))
    p1 = hermitian = singletons = True
    for ci, (c, (x, z, p)) in enumerate(zip(part.classes, masks)):
        if len(c.members) != d - 1:
            singletons = False
            failures.append(f"class {ci} has {len(c.members)} members, want {d - 1}")
        is_gen = key(x, z, p)[:, None] == gen_keys
        found = is_gen[is_gen.any(1)].argmax(1).tolist()
        if found != [c.singleton_index]:
            singletons = False
            failures.append(
                f"class {ci}: generators {found} found, declared {c.singleton_index}"
            )
        # a Hermitian monomial squares to +I, so both fail on the same members
        odd = (p + parity(x & z)) % 2 == 1
        anti = np.triu(parity(x[:, None] & z ^ z[:, None] & x), 1)
        for i in np.flatnonzero(odd | anti.any(1)).tolist():
            if odd[i]:
                hermitian = False
                failures.append(f"class {ci} member {i} is not Hermitian")
                failures.append(f"class {ci} member {i} does not square to +I")
            if anti[i].any():
                p1 = False
                pairs = int(anti[i].sum())
                failures += [f"class {ci}: non-commuting pair found"] * pairs

    # P2: each repeat of a member names the class it was last seen in
    keys = np.concatenate([key(*m) for m in masks])
    sizes = [len(c.members) for c in part.classes]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    shared = owner[repeats(keys)].tolist()
    failures += [f"member shared by classes {j} and {k}" for j, k in shared]
    p2 = not shared

    x, z, p = (np.concatenate(col) for col in zip(*masks))
    gx, gz, gp, sign = action.conjugate_masks(x, z, p)
    flips = int(np.count_nonzero(sign * (1 - (p & 2)) != 1))
    got = np.split(key(gx, gz, gp), np.cumsum(sizes)[:-1])
    p3 = True
    for ci in range(part.L):
        nxt = (ci + 1) % part.L
        if not np.array_equal(_key_set(got[ci]), _key_set(keys[owner == nxt])):
            p3 = False
            failures.append(f"class {ci} does not map onto class {nxt}")

    return ValidationReport(
        p1=p1,
        p2=p2,
        p3=p3,
        hermitian=hermitian,
        singletons=singletons,
        p3_sign_flips=flips,
        failures=tuple(failures),
    )


def repeats(keys: np.ndarray) -> np.ndarray:
    """(earlier, later) rows, ordered by later: each occurrence of a key
    after its first with the one before it, adjacent in one stable sort."""
    order = np.argsort(keys, kind="stable")
    rep = np.flatnonzero(keys[order][1:] == keys[order][:-1])
    pairs = np.stack([order[rep], order[rep + 1]], axis=1)
    return pairs[np.argsort(pairs[:, 1])]


def _key_set(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted. np.unique would do, but without index
    outputs numpy 2 has it import numpy.ma."""
    return np.sort(np.delete(keys, repeats(keys)[:, 1]))


def partition_to_json(part: Partition) -> str:
    import json

    spec = part.spec
    doc = {
        "n": part.n,
        "L": part.L,
        "spec": spec and {"n": spec.n, "groups": [list(g) for g in spec.groups]},
        "classes": [
            {
                "singleton": c.singleton_index,
                "members": [term_to_text(m) for m in c.members],
            }
            for c in part.classes
        ],
    }
    return json.dumps(doc, indent=1)
