"""Output checks for the benchmark workloads.

Every check is made against a property the method must have or against a
computation made here, apart from the program: the analytic bounds from their
formulas, dense Pauli matrices and joint eigenbases built with this file's
own code, and GF(2^n) arithmetic of its own. No check compares against a
stored copy of an earlier output. A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np

FIG_COLUMNS = [
    "L", "d", "small_L", "large_L", "best",
    "sweep_bits", "sweep_mode", "numeric_min", "invariant_min",
]
PRINT_TOL = 1e-9  # figure CSVs print 9 decimals, so rounding stays below 5e-10
UNIT_TOL = 1e-8
EXACT_SWEEP_MAX = 4096  # strings; larger sweeps are checked by a seeded sample
SAMPLE_STRINGS = 4096
WIGNER_POINTS = 8

# Irreducible polynomials over GF(2), the same fields the Wigner analysis uses.
GF_POLY = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


class CheckError(AssertionError):
    """A workload output violates a property it must have."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------- analytic


def analytic_bounds(L: int, d: int) -> tuple[float, float, float]:
    """(small_L, large_L, best) lower bounds on the average min-entropy."""
    small = -math.log2((1 + (L - 1) / math.sqrt(d)) / L)
    large = -math.log2((1 + (d - 1) / math.sqrt(L)) / d)
    return small, large, max(small, large)


def has_construction(n: int, L: int) -> bool:
    """(n, L) pairs the paper constructs: L prime with L | n or L = 2n+1,
    plus the two hand-built sets L in {3, 4} in d = 4."""
    if n == 2 and L in (3, 4):
        return True
    prime = L >= 2 and all(L % k for k in range(2, int(L**0.5) + 1))
    return prime and (n % L == 0 or L == 2 * n + 1)


# ------------------------------------------------------------ Pauli algebra


def _bitrev(v: int, n: int) -> int:
    return int(f"{v:0{n}b}"[::-1], 2)


def apply_pauli(n: int, x: int, z: int, phase: int, V: np.ndarray) -> np.ndarray:
    """(i^phase X^x Z^z) @ V, qubit 0 the most significant tensor factor.

    Mask bit j addresses qubit j, which is bit n-1-j of a row index, so
    X^x Z^z |c> = (-1)^{|z' & c|} |c ^ x'> with x', z' the bit-reversed masks.
    """
    c = np.arange(2**n)
    zr, xr = _bitrev(z, n), _bitrev(x, n)
    parity = np.array([bin(zr & k).count("1") & 1 for k in range(2**n)])
    coeff = (1j**phase) * (1 - 2 * parity)
    out = np.empty_like(V, dtype=complex)
    out[c ^ xr] = coeff[:, None] * V
    return out


def commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Symplectic form on (xmask, zmask) pairs: even overlap means commuting."""
    return (bin(a[0] & b[1]).count("1") + bin(a[1] & b[0]).count("1")) % 2 == 0


def check_commuting_class(members, n: int, where: str) -> None:
    """d-1 distinct, Hermitian, pairwise commuting non-identity monomials."""
    d = 2**n
    masks = [(x, z) for x, z, _ in members]
    require(all(0 <= x < d and 0 <= z < d for x, z in masks), f"{where}: mask out of range")
    require(len(masks) == d - 1, f"{where}: {len(masks)} members, want {d - 1}")
    require(len(set(masks)) == d - 1, f"{where}: repeated monomial")
    require((0, 0) not in masks, f"{where}: identity is a member")
    for x, z, p in members:
        require((p - bin(x & z).count("1")) % 2 == 0, f"{where}: non-Hermitian member")
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            require(commute(a, b), f"{where}: members {a} and {b} anticommute")


def joint_eigenbasis(n: int, members, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Columns: joint eigenvectors of a commuting class; also their signs.

    A generic real combination of the members has a non-degenerate spectrum,
    so its eigenvectors are the joint ones. Returns (B, S) with S[k, c] the
    eigenvalue of member k on column c, checked to be +-1.
    """
    d = 2**n
    eye = np.eye(d, dtype=complex)
    mats = [apply_pauli(n, x, z, p, eye) for x, z, p in members]
    coeffs = np.random.default_rng(seed).normal(size=len(mats))
    H = sum(c * M for c, M in zip(coeffs, mats))
    _, B = np.linalg.eigh(H)
    S = np.array([np.real(np.sum(B.conj() * (M @ B), axis=0)) for M in mats])
    for M, s in zip(mats, S):
        require(np.allclose(np.abs(s), 1, atol=UNIT_TOL), "class member is not an involution")
        require(
            np.max(np.abs(M @ B - B * s)) < UNIT_TOL, "class members are not jointly diagonal"
        )
    return B, S


def check_mub(bases: list[np.ndarray], where: str) -> None:
    """Orthonormal bases with |<a|b>|^2 = 1/d across every pair."""
    d = bases[0].shape[0]
    for j, B in enumerate(bases):
        require(B.shape == (d, d), f"{where}: basis {j} has shape {B.shape}")
        err = np.max(np.abs(B.conj().T @ B - np.eye(d)))
        require(err < UNIT_TOL, f"{where}: basis {j} not orthonormal ({err:.2e})")
    for j in range(len(bases)):
        for k in range(j + 1, len(bases)):
            ov = np.abs(bases[j].conj().T @ bases[k]) ** 2
            err = np.max(np.abs(ov - 1 / d))
            require(err < UNIT_TOL, f"{where}: bases {j},{k} biased ({err:.2e})")


def selector_lambda(bases: list[np.ndarray], strings: np.ndarray) -> np.ndarray:
    """Top eigenvalue of the mean selector (1/L) sum_j |b_j><b_j| per string."""
    L = len(bases)
    P = 0
    for j, B in enumerate(bases):
        V = B[:, strings[:, j]].T  # (N, d)
        P = P + V[:, :, None] * V[:, None, :].conj()
    return np.linalg.eigvalsh(P / L)[:, -1]


# ------------------------------------------------------------ figure CSVs


def _parse_fig(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    require(reader.fieldnames == FIG_COLUMNS, f"figure header {reader.fieldnames}")
    return list(reader)


def _bits(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except ValueError:
        raise CheckError(f"L={row['L']}: {key} is {row[key]!r}, not a number") from None


def partition_bases(n: int, L: int) -> list[np.ndarray]:
    """Bases for the program's (n, L) partition, built and checked here.

    Only the symbolic class lists come from the program; commutation is
    checked on the masks and the bases are this file's own joint eigenbases.
    """
    from mubforge.cli import build_partition

    part = build_partition(n, L)
    bases = []
    for j, cls in enumerate(part.classes):
        members = [(m.xmask, m.zmask, m.phase) for m in cls.members]
        check_commuting_class(members, n, f"n={n} L={L} class {j}")
        bases.append(joint_eigenbasis(n, members)[0])
    check_mub(bases, f"n={n} L={L}")
    return bases


def check_figure(text: str, n: int, Ls: list[int], seed: int) -> dict:
    """Every row of a reproduce-fig CSV; returns a few checked values."""
    d = 2**n
    rows = _parse_fig(text)
    require([int(r["L"]) for r in rows] == Ls, f"rows for L = {[r['L'] for r in rows]}")
    checked = {}
    for r in rows:
        L = int(r["L"])
        require(int(r["d"]) == d, f"L={L}: d = {r['d']}, want {d}")
        for key, want in zip(("small_L", "large_L", "best"), analytic_bounds(L, d)):
            got = _bits(r, key)
            require(abs(got - want) < PRINT_TOL, f"L={L}: {key} {got} != {want:.12f}")
        if L == d:
            require(r["small_L"] == r["large_L"], f"L=d={d}: small_L != large_L")
        if not has_construction(n, L):
            require(
                not any(r[k] for k in FIG_COLUMNS[5:]),
                f"L={L}: values for a set without a construction",
            )
            continue
        require(r["sweep_mode"] == "full", f"L={L}: sweep mode {r['sweep_mode']!r}")
        sweep = _bits(r, "sweep_bits")
        require(sweep >= _bits(r, "best") - PRINT_TOL, f"L={L}: sweep {sweep} below bound")
        for key in ("numeric_min", "invariant_min"):
            val = _bits(r, key)
            require(val >= sweep - PRINT_TOL, f"L={L}: {key} {val} below sweep {sweep}")
        if L == 2:
            want = -math.log2((1 + 1 / math.sqrt(d)) / 2)
            require(abs(sweep - want) < PRINT_TOL, f"L=2: sweep {sweep} != {want:.12f}")
        if d == 4 and L in (3, 4):
            want = -math.log2({3: 2 / 3, 4: 5 / 8}[L])
            require(abs(sweep - want) < PRINT_TOL, f"d=4 L={L}: sweep {sweep} != {want:.12f}")
        bases = partition_bases(n, L)
        if d**L <= EXACT_SWEEP_MAX:
            strings = np.array(np.unravel_index(np.arange(d**L), (d,) * L)).T
            want = -math.log2(float(np.max(selector_lambda(bases, strings))))
            require(abs(sweep - want) < PRINT_TOL, f"L={L}: sweep {sweep} != exact {want:.12f}")
        else:
            rng = np.random.default_rng(seed)
            strings = rng.integers(0, d, size=(SAMPLE_STRINGS, L))
            best = -math.log2(float(np.max(selector_lambda(bases, strings))))
            require(best >= sweep - PRINT_TOL, f"L={L}: sampled string {best} beats sweep {sweep}")
        checked[L] = sweep
    return checked


# ------------------------------------------------------------- Wigner report


def gf_mul(a: int, b: int, n: int) -> int:
    """Carry-less product reduced modulo the field polynomial."""
    prod = 0
    for i in range(n):
        if b >> i & 1:
            prod ^= a << i
    for i in range(2 * n - 2, n - 1, -1):
        if prod >> i & 1:
            prod ^= GF_POLY[n] << (i - n)
    return prod


def gf_trace(a: int, n: int) -> int:
    t, e = 0, a
    for _ in range(n):
        t ^= e
        e = gf_mul(e, e, n)
    require(t in (0, 1), f"field trace {t} not in GF(2)")
    return t


def spread_classes(n: int) -> list[list[tuple[int, int, int]]]:
    """The complete set's classes: {(v, S_a v)} for a in GF(2^n), then all-Z.

    S_a is the symmetric matrix of the form (u, v) -> Tr(a u v) in the
    polynomial basis; members run over v = 1..d-1.
    """
    d = 2**n
    out = []
    for a in range(d):
        members = []
        for v in range(1, d):
            z = 0
            for i in range(n):
                if gf_trace(gf_mul(a, gf_mul(1 << i, v, n), n), n):
                    z |= 1 << i
            members.append((v, z, bin(v & z).count("1") % 4))
        out.append(members)
    out.append([(0, z, 0) for z in range(1, d)])
    return out


def ordered_spread_bases(n: int) -> list[np.ndarray]:
    """Complete-set bases, columns in sign-pattern order.

    Column c carries eigenvalue -1 on member v = 2^k exactly when bit n-1-k
    of c is set (member 0 most significant, +1 before -1); the other members
    are products of these, so their signs follow.
    """
    bases = []
    for j, members in enumerate(spread_classes(n)):
        check_commuting_class(members, n, f"spread class {j}")
        B, S = joint_eigenbasis(n, members)
        index = sum(((S[2**k - 1] < 0).astype(int)) << (n - 1 - k) for k in range(n))
        require(sorted(index) == list(range(2**n)), f"spread class {j}: patterns repeat")
        ordered = np.empty_like(B)
        ordered[:, index] = B
        bases.append(ordered)
    check_mub(bases, f"spread n={n}")
    return bases


def point_lambda(bases: list[np.ndarray], n: int, x: int, y: int) -> float:
    """Top eigenvalue of the point operator: one line through (x, y) per
    striation, slope m <-> basis m at intercept y + m x, vertical <-> x."""
    d = 2**n
    idx = [y ^ gf_mul(m, x, n) for m in range(d)] + [x]
    A = -np.eye(d, dtype=complex)
    for B, b in zip(bases, idx):
        A += np.outer(B[:, b], B[:, b].conj())
    return float(np.linalg.eigvalsh(A)[-1])


def wigner_points(d: int, seed: int) -> list[tuple[int, int]]:
    """The seeded phase-space points whose lambda is recomputed here."""
    pts = np.random.default_rng(seed).integers(0, d, size=(WIGNER_POINTS, 2))
    return [tuple(p) for p in pts.tolist()]


def check_wigner(csv_text: str, stdout: str, n: int, seed: int) -> dict:
    d = 2**n
    reader = csv.DictReader(io.StringIO(csv_text))
    require(
        reader.fieldnames == ["alpha_x", "alpha_y", "lambda_max", "W_max"],
        f"wigner header {reader.fieldnames}",
    )
    rows = {}
    for r in reader:
        point = (int(r["alpha_x"]), int(r["alpha_y"]))
        require(point not in rows, f"point {point} repeated")
        lam, w = float(r["lambda_max"]), float(r["W_max"])
        require(abs(w - lam / d) < 1e-11, f"point {point}: W_max {w} != lambda/d")
        rows[point] = lam
    require(
        sorted(rows) == [(x, y) for x in range(d) for y in range(d)],
        f"{len(rows)} phase-space rows, want the {d * d} points",
    )
    summary = [ln for ln in stdout.splitlines() if ln.startswith("W_max = ")]
    require(len(summary) == 1, "no W_max summary line")
    w_max, bound, selector = map(float, re.findall(r"-?\d+\.\d+", summary[0]))
    lam_max = max(rows.values())
    require(abs(w_max - lam_max / d) < PRINT_TOL, f"W_max {w_max} != max row {lam_max / d}")
    want = -math.log2((lam_max + 1) / (d + 1))
    require(abs(bound - want) < PRINT_TOL, f"bound {bound} != {want:.12f}")
    require(abs(selector - bound) < PRINT_TOL, f"selector route {selector} != {bound}")
    best = analytic_bounds(d + 1, d)[2]
    require(bound >= best - PRINT_TOL, f"bound {bound} below analytic {best:.12f}")
    bases = ordered_spread_bases(n)
    for x, y in wigner_points(d, seed):
        lam = point_lambda(bases, n, x, y)
        got = rows[(x, y)]
        require(abs(lam - got) < PRINT_TOL, f"point {(x, y)}: {got} != {lam:.12f}")
    return {"bound_bits": bound, "w_max": w_max}


# ----------------------------------------------------------- generate output


def _parse_term(text: str) -> tuple[int, int, int, int]:
    """'i^p X:0x.. Z:0x.. n:..' -> (n, x, z, p)."""
    parts = text.split()
    require(len(parts) == 4 and parts[0].startswith("i^"), f"bad term {text!r}")
    fields = dict(p.split(":", 1) for p in parts[1:])
    return int(fields["n"]), int(fields["X"], 16), int(fields["Z"], 16), int(parts[0][2:])


def _complex(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def check_generate(out: Path, n: int, L: int) -> dict:
    """bases.json, unitary.json and partition.json of one generate run."""
    d = 2**n
    doc = json.loads((out / "bases.json").read_text())
    require((doc["d"], doc["L"]) == (d, L), f"bases.json d={doc['d']} L={doc['L']}")
    require(len(doc["bases"]) == L, f"{len(doc['bases'])} bases, want {L}")
    bases = [_complex(b["vectors"]).T for b in doc["bases"]]  # columns = vectors
    check_mub(bases, "bases.json")

    U = _complex(json.loads((out / "unitary.json").read_text()))
    require(U.shape == (d, d), f"unitary shape {U.shape}")
    err = np.max(np.abs(U.conj().T @ U - np.eye(d)))
    require(err < UNIT_TOL, f"U not unitary ({err:.2e})")
    for j in range(L):
        ov = np.abs(bases[(j + 1) % L].conj().T @ U @ bases[j]) ** 2
        image = np.argmax(ov, axis=0)
        require(
            np.all(ov[image, np.arange(d)] > 1 - UNIT_TOL),
            f"U maps a basis-{j} projector onto no basis-{(j + 1) % L} projector",
        )
        require(sorted(image.tolist()) == list(range(d)), f"U on basis {j} is no permutation")

    part = json.loads((out / "partition.json").read_text())
    require((part["n"], part["L"]) == (n, L), f"partition n={part['n']} L={part['L']}")
    require(len(part["classes"]) == L, f"{len(part['classes'])} classes, want {L}")
    seen = set()
    for j, cls in enumerate(part["classes"]):
        terms = [_parse_term(t) for t in cls["members"]]
        require(all(t[0] == n for t in terms), f"class {j}: wrong qubit count")
        members = [t[1:] for t in terms]
        check_commuting_class(members, n, f"class {j}")
        masks = {(x, z) for x, z, _ in members}
        require(not masks & seen, f"class {j} shares a monomial with an earlier class")
        seen |= masks
        B = bases[j]
        for x, z, p in members:
            MB = apply_pauli(n, x, z, p, B)
            s = np.real(np.sum(B.conj() * MB, axis=0))
            require(
                np.max(np.abs(MB - B * s)) < UNIT_TOL and np.allclose(np.abs(s), 1),
                f"basis {j} is not the eigenbasis of class {j}",
            )
    return {"bases": L, "d": d}
