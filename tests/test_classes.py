import json
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubforge.classes import (
    CommutingClass,
    Partition,
    build_classes_2n1,
    build_classes_Ln,
    fixture_d4,
    is_prime,
    partition_to_json,
    primitive_root,
    repeats,
    validate_partition,
)
from mubforge.pauli import (
    PauliTerm,
    build_gamma_generators,
    commutes,
    gamma_product,
    is_hermitian,
    multiply,
)
from mubforge.transform import CycleSpec, cycle_action, cycle_unitary
from oracles import canonical, index_sum, partition_from_json, spacing
from test_transform import _batched


def test_fixture_d4_l3_verbatim():
    part = fixture_d4(3)
    gs = build_gamma_generators(2)
    assert part.L == 3 and part.n == 2
    c2 = part.classes[2]
    assert c2.members[0] == gs[2]
    assert c2.members[1] == gamma_product(gs, [0, 4], 1)
    assert c2.members[2] == gamma_product(gs, [3, 1], 1)


def test_fixture_d4_l4_verbatim():
    part = fixture_d4(4)
    gs = build_gamma_generators(2)
    c3 = part.classes[3]
    assert c3.members[0] == gs[3]
    assert c3.members[1] == gamma_product(gs, [0, 4], 1)
    assert c3.members[2] == gamma_product(gs, [1, 2], 1)


def test_fixture_unsupported_L():
    with pytest.raises(ValueError):
        fixture_d4(5)


@pytest.mark.parametrize("L", [3, 4])
def test_fixtures_validate(L):
    part = fixture_d4(L)
    report = validate_partition(part)
    assert report.ok, report.failures


@pytest.mark.parametrize("L", [3, 4])
def test_fixture_members_dense_properties(L):
    import numpy as np
    from mubforge.pauli import to_dense

    for c in fixture_d4(L).classes:
        for m in c.members:
            M = to_dense(m)
            assert abs(np.trace(M)) < 1e-12
            assert np.max(np.abs(M - M.conj().T)) < 1e-12
            assert np.max(np.abs(M @ M - np.eye(4))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_build_2n1_validates(n):
    part = build_classes_2n1(n)
    assert part.L == 2 * n + 1
    assert all(len(c) == 2**n - 1 for c in part.classes)
    report = validate_partition(part)
    assert report.ok, report.failures


def test_build_2n1_rejects_composite():
    with pytest.raises(ValueError):
        build_classes_2n1(4)  # 2n+1 = 9


def test_build_2n1_n1_is_pauli_triple():
    part = build_classes_2n1(1)
    gs = build_gamma_generators(1)
    singles = [c.members[0] for c in part.classes]
    assert {canonical(m)[0] for m in singles} == {canonical(g)[0] for g in gs.gammas}


def _class_images(part, spec):
    """(keys, images): each class's members as the sorted keys x | z << n,
    signs dropped, and the same of their images under spec's exact action,
    all on the mask arrays."""

    def keys(x, z):
        return sorted((x | z << part.n).tolist())

    action = cycle_action(build_gamma_generators(part.n), spec)
    masks = [
        np.array([(m.xmask, m.zmask, m.phase) for m in c.members]).T
        for c in part.classes
    ]
    return (
        [keys(x, z) for x, z, _ in masks],
        [keys(*action.conjugate_masks(*m)[:2]) for m in masks],
    )


@pytest.mark.parametrize("n", [n for n in range(1, 10) if is_prime(2 * n + 1)])
def test_the_multiplier_maps_class_j_onto_class_g_j(n):
    # exactly, with no dense matrix: the declared cycle (g^0, .., g^(L-2))
    # over G_1..G_2n, g the least primitive root mod L, sends class j onto
    # class g j mod L
    part = build_classes_2n1(n)
    L = part.L
    (spec,) = part.symmetries
    g = primitive_root(L)
    assert spec.groups == (tuple(pow(g, k, L) for k in range(L - 1)),)
    assert sorted(spec.groups[0]) == list(range(1, L))
    assert all(len({pow(h, k, L) for k in range(L - 1)}) < L - 1 for h in range(2, g))
    keys, images = _class_images(part, spec)
    assert images == [keys[g * j % L] for j in range(L)]


def test_only_the_2n1_builder_declares_a_symmetry():
    # the Ln builder and the d = 4 fixtures declare none, and the naive
    # multiplier of L maps no class of (3, 3) or (5, 5) onto a class
    built = [build_classes_Ln(n, L) for n, L in [(2, 2), (3, 3), (5, 5)]]
    for part in [fixture_d4(3), fixture_d4(4), *built]:
        assert part.symmetries == ()
    for n, L in [(3, 3), (5, 5)]:
        g = primitive_root(L)
        naive = CycleSpec(n, (tuple(pow(g, k, L) for k in range(L - 1)),))
        keys, images = _class_images(build_classes_Ln(n, L), naive)
        assert not any(image in keys for image in images)


def test_symmetries_stay_out_of_the_json_and_of_equality():
    part = build_classes_2n1(3)
    assert "symmetr" not in partition_to_json(part)
    bare = replace(part, symmetries=())
    assert bare == part and partition_to_json(bare) == partition_to_json(part)


@pytest.mark.parametrize("n,L", [(2, 2), (3, 3), (4, 2), (5, 5)])
def test_build_Ln_validates(n, L):
    part = build_classes_Ln(n, L)
    assert part.L == L
    assert all(len(c) == 2**n - 1 for c in part.classes)
    report = validate_partition(part)
    assert report.ok, report.failures


def test_build_Ln_rejects_bad_args():
    with pytest.raises(ValueError):
        build_classes_Ln(4, 4)  # composite L
    with pytest.raises(ValueError):
        build_classes_Ln(4, 3)  # 3 does not divide 4


def test_cardinality_identity():
    # 2 * sum_i C(n-1, i) - 1 = 2^n - 1, realized by the generated class 0
    from math import comb

    for n in [1, 2, 3, 5]:
        total = 2 * sum(comb(n - 1, i) for i in range(n)) - 1
        assert total == 2**n - 1
        part = build_classes_2n1(n)
        assert len(part.classes[0]) == total


def test_spacing_values():
    gs = build_gamma_generators(2)
    a = gamma_product(gs, [1, 4], 1)
    assert spacing(a, 5) == 3
    assert spacing((1, 4), 5) == 3
    assert spacing((0, 3), 5) == 3
    with pytest.raises(ValueError):
        spacing((0, 1, 2), 5)


def test_spacing_shift_invariance():
    # spacing is invariant under the index shift the cycle induces
    p = 7
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            for k in range(p):
                shifted = sorted([(i + k) % p, (j + k) % p])
                orig = sorted([i, j])
                assert spacing(tuple(shifted), p) in (
                    spacing(tuple(orig), p),
                    (-spacing(tuple(orig), p)) % p,
                )
                # with orientation kept, the spacing is exactly invariant
                assert ((j + k) - (i + k)) % p == (j - i) % p


def test_l2_spacings_all_distinct():
    # the pair units of the full-cycle construction have spacings
    # {3, 5, ..., 2n-1}, all distinct, and each pair appears in class 0
    for n in [2, 3, 5]:
        L = 2 * n + 1
        part = build_classes_2n1(n)
        gs = build_gamma_generators(n)
        pairs = [(a, L - a) for a in range(1, n)]
        spacings = {spacing(p, L) for p in pairs}
        assert spacings == {2 * k + 1 for k in range(1, n)}
        assert len(spacings) == n - 1
        keys = {canonical(m)[0] for m in part.classes[0].members}
        for p in pairs:
            assert canonical(gamma_product(gs, list(p), 1))[0] in keys


def _built_index_sets(singleton, pairs):
    """Index sets of every subset product, mirroring the construction."""
    units = [(singleton,)] + [tuple(p) for p in pairs]
    out = []
    for mask in range(1, 1 << len(units)):
        idx = []
        for i, u in enumerate(units):
            if mask >> i & 1:
                idx += list(u)
        out.append(tuple(sorted(idx)))
    return out


def test_index_sums_2n1():
    # every even-length member of class 0 sums to 0 mod 2n+1, odd-length
    # members too (the singleton is G_0); class-k sums follow c + k*len
    for n in [2, 3]:
        L = 2 * n + 1
        part = build_classes_2n1(n)
        gs = build_gamma_generators(n)
        pairs = [(a, L - a) for a in range(1, n)]
        sets0 = _built_index_sets(0, pairs)
        masks0 = {(m.xmask, m.zmask) for m in part.classes[0].members}
        for idx in sets0:
            assert index_sum(idx, L) == 0
            ref = gamma_product(gs, list(idx))
            assert (ref.xmask, ref.zmask) in masks0
        for k in range(L):
            for idx in sets0:
                shifted = tuple(sorted((i + k) % L for i in idx))
                assert index_sum(shifted, L) == (k * len(idx)) % L


def test_index_sums_Ln_odd_members():
    # odd-length members of class 0 carry the singleton, so their in-block
    # position sums hit (L-1)/2 mod L; even-length members sum to 0
    n, L = 3, 3
    singleton = (L - 1) // 2
    pairs = [(L + a, L + L - a) for a in range(1, (L + 1) // 2)]
    pairs += [(0, L)]
    for idx in _built_index_sets(singleton, pairs):
        positions = [i % L for i in idx]
        want = 0 if len(idx) % 2 == 0 else (L - 1) // 2
        assert sum(positions) % L == want


def test_same_sum_sets_hit_distinct_shift_offsets():
    # for prime p and length ell <= p-1, the p shifts of an index set have p
    # distinct sums (k*ell runs over all residues), so an index set can sit
    # in at most one class of a shift-generated partition
    from itertools import combinations

    for p in [3, 5, 7]:
        for ell in range(2, min(p, 5)):
            for comb_ in combinations(range(p), ell):
                sums = {
                    sum((i + k) % p for i in comb_) % p for k in range(p)
                }
                assert len(sums) == p, (p, ell, comb_)


def test_validator_flags_moved_member():
    part = fixture_d4(4)
    c0, c1 = part.classes[0], part.classes[1]
    bad0 = CommutingClass((c0.members[0], c0.members[1], c1.members[1]), 0)
    bad = Partition(part.n, part.L, part.spec, (bad0,) + part.classes[1:])
    report = validate_partition(bad)
    assert not report.p2
    assert not report.ok


def test_validator_flags_noncommuting():
    gs = build_gamma_generators(2)
    part = fixture_d4(3)
    bad0 = CommutingClass((gs[0], gs[1], gamma_product(gs, [3, 2], 1)), 0)
    bad = Partition(part.n, part.L, part.spec, (bad0,) + part.classes[1:])
    report = validate_partition(bad)
    assert not report.p1


def test_json_roundtrip():
    for part in (fixture_d4(3), fixture_d4(4), build_classes_2n1(2), build_classes_Ln(2, 2)):
        text = partition_to_json(part)
        back = partition_from_json(text)
        assert back == part
        assert partition_to_json(back) == text


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_json_roundtrip_without_a_cycle_spec(n):
    from mubforge.wigner import spread_partition

    part = spread_partition(n)
    text = partition_to_json(part)
    assert json.loads(text)["spec"] is None
    back = partition_from_json(text)
    assert back == part
    assert partition_to_json(back) == text


def test_is_prime():
    assert [m for m in range(14) if is_prime(m)] == [2, 3, 5, 7, 11, 13]


def test_validator_flags_a_unitary_that_does_not_cycle():
    part = fixture_d4(3)
    _, action = cycle_unitary(build_gamma_generators(2), CycleSpec(2, ((0, 2, 1),)))
    report = validate_partition(part, action)
    assert not report.p3 and not report.ok


def test_validator_needs_a_cycle_spec_or_an_action():
    # a spread has no cycle spec: P3 is checked under a given action only
    from mubforge.wigner import spread_partition

    part = spread_partition(2)
    with pytest.raises(ValueError, match="no cycle spec"):
        validate_partition(part)
    action = cycle_action(build_gamma_generators(2), CycleSpec(2, ((0, 1, 2, 3, 4),)))
    assert validate_partition(part, action).p1


def _constructible_partitions():
    from mubforge.cli import build_partition, constructible
    from mubforge.wigner import spread_partition

    parts = [
        build_partition(n, L)
        for n in range(1, 7)
        for L in range(2, 2 * n + 2)
        if constructible(n, L)
    ]
    return parts + [spread_partition(n) for n in range(1, 6)]


@pytest.mark.parametrize(
    "part",
    _constructible_partitions(),
    ids=lambda p: f"n{p.n}L{p.L}{'' if p.spec else 'spread'}",
)
def test_json_roundtrip_of_every_constructible_partition(part):
    text = partition_to_json(part)
    back = partition_from_json(text)
    assert back == part
    assert partition_to_json(back) == text


@st.composite
def partitions(draw):
    """Arbitrary partitions: random monomials, singletons and cycle specs."""
    n = draw(st.integers(1, 4))
    mask = st.integers(0, 2**n - 1)
    term = st.builds(PauliTerm, st.just(n), mask, mask, st.integers(0, 3))
    cls = st.builds(
        CommutingClass,
        st.lists(term, min_size=1, max_size=6).map(tuple),
        st.none() | st.integers(0, 2 * n),
    )
    classes = tuple(draw(st.lists(cls, min_size=1, max_size=5)))
    order = draw(st.permutations(range(2 * n + 1)))
    length = draw(st.integers(2, 2 * n + 1))
    spec = draw(st.none() | st.just(CycleSpec(n, (tuple(order[:length]),))))
    return Partition(n, len(classes), spec, classes)


@settings(max_examples=100, deadline=None)
@given(partitions())
def test_json_roundtrip_of_arbitrary_partitions(part):
    text = partition_to_json(part)
    back = partition_from_json(text)
    assert back == part
    assert partition_to_json(back) == text


def _check_by_loops(part, action):
    """The per-monomial loops validate_partition replaced, as its oracle."""
    gs = build_gamma_generators(part.n)
    d = part.d
    failures = []
    p1 = hermitian = singletons = True
    gen_keys = {canonical(g)[0]: i for i, g in enumerate(gs.gammas)}
    for ci, c in enumerate(part.classes):
        if len(c.members) != d - 1:
            singletons = False
            failures.append(f"class {ci} has {len(c.members)} members, want {d - 1}")
        found = [
            gen_keys[canonical(m)[0]] for m in c.members if canonical(m)[0] in gen_keys
        ]
        if found != [c.singleton_index]:
            singletons = False
            failures.append(
                f"class {ci}: generators {found} found, declared {c.singleton_index}"
            )
        for i, a in enumerate(c.members):
            if not is_hermitian(a):
                hermitian = False
                failures.append(f"class {ci} member {i} is not Hermitian")
            sq = multiply(a, a)
            if sq.xmask or sq.zmask or sq.phase:
                hermitian = False
                failures.append(f"class {ci} member {i} does not square to +I")
            for b in c.members[i + 1 :]:
                if not commutes(a, b):
                    p1 = False
                    failures.append(f"class {ci}: non-commuting pair found")
    p2 = True
    seen = {}
    for ci, c in enumerate(part.classes):
        for m in c.members:
            key = canonical(m)[0]
            if key in seen:
                p2 = False
                failures.append(f"member shared by classes {seen[key]} and {ci}")
            seen[key] = ci
    p3 = True
    flips = 0
    for ci, c in enumerate(part.classes):
        target = {canonical(m)[0] for m in part.classes[(ci + 1) % part.L].members}
        got = set()
        for m in c.members:
            term, sign = _batched(action, [m])[0]
            got.add(term)
            if sign * canonical(m)[1] != 1:
                flips += 1
        if got != target:
            p3 = False
            failures.append(f"class {ci} does not map onto class {(ci + 1) % part.L}")
    return (p1, p2, p3, hermitian, singletons, flips, tuple(failures))


@settings(max_examples=150, deadline=None)
@given(part=partitions(), data=st.data())
def test_array_checks_match_the_loops_on_arbitrary_partitions(part, data):
    n = part.n
    order = data.draw(st.permutations(range(2 * n + 1)))
    length = data.draw(st.integers(2, 2 * n + 1))
    action = cycle_action(
        build_gamma_generators(n), part.spec or CycleSpec(n, (tuple(order[:length]),))
    )
    assert astuple(validate_partition(part, action)) == _check_by_loops(part, action)


@pytest.mark.parametrize(
    "part",
    [p for p in _constructible_partitions() if p.spec],
    ids=lambda p: f"n{p.n}L{p.L}",
)
def test_array_checks_match_the_loops_on_constructible_partitions(part):
    action = cycle_action(build_gamma_generators(part.n), part.spec)
    assert astuple(validate_partition(part, action)) == _check_by_loops(part, action)


@pytest.mark.parametrize(
    "build",
    [fixture_d4(4), build_classes_2n1(2), build_classes_Ln(3, 3)],
    ids=["fixture4", "n2L5", "n3L3"],
)
def test_p3_compares_each_class_with_the_next_as_a_set(build):
    # members of the odd classes reversed: a class's images reach the next
    # class in another member order, and P3 must still hold
    classes = tuple(
        replace(c, members=c.members[::-1]) if i % 2 else c
        for i, c in enumerate(build.classes)
    )
    part = replace(build, classes=classes)
    action = cycle_action(build_gamma_generators(part.n), part.spec)
    report = validate_partition(part, action)
    assert report.p3 and report.ok
    assert astuple(report) == _check_by_loops(part, action)


# the build_classes_Ln P2 defect (ROADMAP: "Fix build_classes_Ln for n/L >= 2"):
# these classes repeat a cycle-invariant product
P2_REPEATS = {(6, 3): 2, (9, 3): 6, (10, 5): 4}


def _symbolic_cases():
    from mubforge.cli import constructible

    for n in range(1, 11):
        for L in range(2, 2 * n + 2):
            if constructible(n, L):
                marks = ()
                if (n, L) in P2_REPEATS:
                    marks = pytest.mark.xfail(
                        strict=True,
                        reason="build_classes_Ln P2 defect: classes share members",
                    )
                yield pytest.param(n, L, marks=marks, id=f"n{n}L{L}")


@pytest.mark.parametrize("n, L", _symbolic_cases())
def test_every_constructible_partition_checks_exactly_up_to_n10(n, L):
    # P1/P2/P3 through the exact action, with no dense unitary
    from mubforge.cli import build_partition

    part = build_partition(n, L)
    report = validate_partition(part, cycle_action(build_gamma_generators(n), part.spec))
    assert report.ok, report.failures


@pytest.mark.parametrize("n, L", sorted(P2_REPEATS))
def test_known_p2_failures_fail_only_p2(n, L):
    from mubforge.cli import build_partition

    part = build_partition(n, L)
    report = validate_partition(part, cycle_action(build_gamma_generators(n), part.spec))
    assert report.p1 and report.p3 and report.hermitian and report.singletons
    assert not report.p2 and len(report.failures) == P2_REPEATS[n, L]
    assert all(f.startswith("member shared by classes") for f in report.failures)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=30))
def test_repeats_pair_each_occurrence_with_the_one_before(keys):
    # oracle: a loop remembering where each key was last seen
    last, want = {}, []
    for i, key in enumerate(keys):
        if key in last:
            want.append([last[key], i])
        last[key] = i
    got = repeats(np.array(keys, dtype=np.int64))
    assert got.shape == (len(want), 2)
    assert got.tolist() == want
