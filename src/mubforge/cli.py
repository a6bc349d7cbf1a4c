"""Command-line surface: construction, validation, bounds, sweeps, Wigner.

Commands
    generate       build a partition + MUB set for (n, L), write JSON files
    bounds         emit the analytic lower-bound grid as CSV
    sweep          exhaustive selector-operator sweep for one MUB set
    minimize       direct minimization of the average entropy
    reproduce-fig  per-L comparison data (bounds, sweep, minimizer, circles)
    wigner         phase-space report for the complete set in d = 2^n

Exit codes: 0 success, 2 validation failure (a failed check, or a set that
cannot be built: bases not unbiased or not diagonalizable, a unitary that
does not cycle them), 3 budget refusal, 4 bad arguments or an --out that
cannot be written. The environment variable MUBFORGE_MAX_N (default 5)
caps n.
Randomized commands echo their seed; every command echoes version + config.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, entropy, transform, wigner
from .classes import (
    Partition,
    build_classes_2n1,
    build_classes_Ln,
    fixture_d4,
    is_prime,
    partition_to_json,
    validate_partition,
)
from .mub import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CycleMatchError,
    DiagonalizationError,
    MubSet,
    UnbiasednessError,
    build_mub_set,
    complex_json,
    invariant_superposition_family,
    mub_set_json_parts,
    verify_cycle,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_BAD_ARGS = 4

FIG_SWEEP_GATE = 200_000  # strings; larger sweeps need --full
SAMPLE_SIZE = 20_000


def max_n() -> int:
    raw = os.environ.get("MUBFORGE_MAX_N", "5")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MUBFORGE_MAX_N={raw!r} is not an integer") from None


def constructible(n: int, L: int) -> bool:
    if n == 2 and L in (3, 4):
        return True
    return is_prime(L) and (n % L == 0 or L == 2 * n + 1)


def build_partition(n: int, L: int) -> Partition:
    if n == 2 and L in (3, 4):
        return fixture_d4(L)
    if L == 2 * n + 1:
        return build_classes_2n1(n)
    return build_classes_Ln(n, L)


def _write(path: Path, text: str) -> None:
    _write_parts(path, [text])


def _write_parts(path: Path, parts) -> None:
    """Write the strings of `parts` to `path` one after another."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.writelines(parts)
    print(f"wrote {path}")


def _echo_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"mubforge {__version__} :: {cfg}")


def cmd_generate(args) -> int:
    n, L = args.n, args.L
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    if not constructible(n, L):
        print(
            f"unsupported (n={n}, L={L}): need L prime with L | n or "
            f"L = 2n+1 (or the d=4 fixtures L in {{3,4}} at n=2)",
            file=sys.stderr,
        )
        return EXIT_BAD_ARGS
    import json  # only where JSON is written: ~2.5 ms to import

    part = build_partition(n, L)
    report = validate_partition(part)
    out = Path(args.out)
    _write(out / "partition.json", partition_to_json(part))
    validation = dataclasses.asdict(report)  # the fields, in their order
    if not report.ok:
        _write(out / "validation.json", json.dumps(validation, indent=1))
        print("partition validation FAILED", file=sys.stderr)
        return EXIT_VALIDATION
    ms = build_mub_set(part)
    cyc = verify_cycle(ms)
    validation.update(
        unbiasedness_deviation=ms.deviation,
        cycle_residual=cyc.worst_residual,
        cycle_permutations=[list(p) for p in cyc.permutations],
    )
    _write(out / "validation.json", json.dumps(validation, indent=1))
    _write_parts(out / "bases.json", mub_set_json_parts(ms, cyc))
    _write(out / "unitary.json", complex_json(ms.U))
    if ms.deviation > args.tol or cyc.worst_residual > args.tol:
        print("MUB validation FAILED", file=sys.stderr)
        return EXIT_VALIDATION
    print(
        f"n={n} L={L}: unbiasedness deviation {ms.deviation:.2e}, "
        f"cycle residual {cyc.worst_residual:.2e}"
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.dmax < 2 or args.Lmax < 1:
        raise ValueError("empty grid: need --dmax >= 2 and --Lmax >= 1")
    rows = ["L,d,small_L,large_L,best"]
    d = 2
    while d <= args.dmax:
        for L in range(1, args.Lmax + 1):
            bs = entropy.bounds(L, d)
            rows.append(
                f"{L},{d},{bs.small_L:.10f},{bs.large_L:.10f},{bs.best:.10f}"
            )
        d *= 2
    text = "\n".join(rows) + "\n"
    if args.out:
        _write(Path(args.out), text)
    else:
        print(text, end="")
    return EXIT_OK


def _check_at_least(args, **least) -> None:
    """Refuse an option below its least value before any set is built."""
    for name, low in least.items():
        if getattr(args, name) < low:
            raise ValueError(f"--{name} must be >= {low}, got {getattr(args, name)}")


def cmd_sweep(args) -> int:
    _check_at_least(args, threads=1, budget=1)
    if not constructible(args.n, args.L):
        print(f"unsupported (n={args.n}, L={args.L})", file=sys.stderr)
        return EXIT_BAD_ARGS
    ms = build_mub_set(build_partition(args.n, args.L))
    scale = args.L if args.normalization == "sum" else 1
    if args.out:
        res = _sweep_to_csv(ms, args, scale)
    else:
        res = entropy.sweep_max_eigen(ms, budget=args.budget, workers=args.threads)
    print(
        f"lambda* = {scale * res.lambda_star:.12f} ({args.normalization} form) "
        f"at b = {res.b_star}; min avg H_inf = {res.min_avg_entropy:.9f} bits "
        f"over {res.count} strings"
    )
    return EXIT_OK


def _sweep_to_csv(ms: MubSet, args, scale: int):
    """Unreduced sweep that writes every string's row to --out as its block
    is solved. The file is created at the first block, so a refused sweep
    leaves none. A block is formatted by one % over a flat tuple of its
    cells, a row's L digits then its two values: %0<width>d and %.12f give
    the text of the f-string specs {:0<width>d} and {:.12f}."""
    path = Path(args.out)
    fh = None
    width = len(str(ms.d - 1))  # fixed-width digits keep labels unambiguous
    row = f"%0{width}d" * ms.L + ",%.12f,%.12f\n"

    def write_rows(digits, lam):
        nonlocal fh
        if fh is None:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = path.open("w")
            fh.write("b_string,lambda_max,minus_log2\n")
        cells = np.empty((len(lam), ms.L + 2), dtype=object)
        cells[:, : ms.L] = digits
        cells[:, -2] = scale * lam
        cells[:, -1] = [-math.log2(x) for x in lam.tolist()]
        fh.write(row * len(lam) % tuple(cells.ravel().tolist()))

    try:
        res = entropy.sweep_max_eigen(
            ms, budget=args.budget, workers=args.threads, on_chunk=write_rows
        )
    finally:
        if fh is not None:
            fh.close()
    print(f"wrote {path}")
    return res


def cmd_minimize(args) -> int:
    _check_at_least(args, restarts=1, seed=0)
    try:
        alpha = math.inf if args.alpha in ("inf", "minentropy") else float(args.alpha)
    except ValueError:
        alpha = math.nan
    if not alpha > 0:
        raise ValueError(f"--alpha must be a number > 0 or inf, got {args.alpha}")
    if not constructible(args.n, args.L):
        print(f"unsupported (n={args.n}, L={args.L})", file=sys.stderr)
        return EXIT_BAD_ARGS
    ms = build_mub_set(build_partition(args.n, args.L))
    psi, val = entropy.minimize_avg_entropy(
        ms, alpha, restarts=args.restarts, seed=args.seed
    )
    bs = entropy.bounds(args.L, ms.d)
    print(
        f"min avg H_{args.alpha} ~= {val:.9f} bits over {args.restarts} restarts "
        f"(seed {args.seed}); min-entropy bound {bs.best:.9f}"
    )
    if args.out:
        import json

        doc = {
            "n": args.n,
            "L": args.L,
            "alpha": args.alpha,
            "seed": args.seed,
            "restarts": args.restarts,
            "value_bits": val,
            "state": np.stack([psi.real, psi.imag], -1).tolist(),
        }
        _write(Path(args.out), json.dumps(doc, indent=1))
    return EXIT_OK


def _figure_configs(which: int):
    if which == 1:
        return 2, 4, [2, 3, 4, 5]
    return 3, 8, list(range(2, 10))


def cmd_reproduce_fig(args) -> int:
    _check_at_least(args, restarts=1, seed=0, threads=1, budget=1)
    n, d, Ls = _figure_configs(args.which)
    rows = [
        "L,d,small_L,large_L,best,sweep_bits,sweep_mode,numeric_min,invariant_min"
    ]
    for L in Ls:
        bs = entropy.bounds(L, d)
        sweep_bits = sweep_mode = numeric = circle = ""
        if constructible(n, L):
            ms = build_mub_set(build_partition(n, L))
            total = d**L
            if total <= FIG_SWEEP_GATE or args.full:
                res = entropy.sweep_max_eigen(
                    ms, budget=args.budget, workers=args.threads
                )
                sweep_bits, sweep_mode = f"{res.min_avg_entropy:.9f}", "full"
            else:
                res = entropy.sample_max_eigen(ms, SAMPLE_SIZE, seed=args.seed)
                sweep_bits, sweep_mode = f"{res.min_avg_entropy:.9f}", "sampled"
            _, val = entropy.minimize_avg_entropy(
                ms, math.inf, restarts=args.restarts, seed=args.seed
            )
            numeric = f"{val:.9f}"
            fam = invariant_superposition_family(ms)
            if fam:  # every state scored at once, each as avg_entropy scores it
                stack = entropy._basis_stack(ms)
                h, _ = entropy._avg_entropy_values(stack, np.array(fam), math.inf)
                circle = f"{h.min():.9f}"
        rows.append(
            f"{L},{d},{bs.small_L:.9f},{bs.large_L:.9f},{bs.best:.9f},"
            f"{sweep_bits},{sweep_mode},{numeric},{circle}"
        )
    out = Path(args.out)
    _write(out / f"fig{args.which}.csv", "\n".join(rows) + "\n")
    _write(out / f"plot_fig{args.which}.py", _plot_script(args.which))
    print(f"figure {args.which} dataset done (seed {args.seed})")
    return EXIT_OK


def _plot_script(which: int) -> str:
    return f'''"""Plot the figure-{which} dataset (requires matplotlib)."""
import csv
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("fig{which}.csv")))
L = [int(r["L"]) for r in rows]
plt.plot(L, [float(r["small_L"]) for r in rows], label="small-L bound")
plt.plot(L, [float(r["large_L"]) for r in rows], label="large-L bound")
xs = [int(r["L"]) for r in rows if r["numeric_min"]]
ys = [float(r["numeric_min"]) for r in rows if r["numeric_min"]]
plt.scatter(xs, ys, marker="x", c="k", label="numeric minimum")
xo = [int(r["L"]) for r in rows if r["invariant_min"]]
yo = [float(r["invariant_min"]) for r in rows if r["invariant_min"]]
plt.scatter(xo, yo, facecolors="none", edgecolors="r", label="invariant states")
plt.xlabel("number of bases L")
plt.ylabel("average min-entropy (bits)")
plt.legend()
plt.savefig("fig{which}.png", dpi=150)
'''


def cmd_wigner(args) -> int:
    ms = wigner.complete_mub_bases(args.n)
    levels = wigner.point_levels(ms)
    text = wigner.phase_space_csv(levels)
    if args.out:
        _write(Path(args.out), text)
    else:
        print(text, end="")
    net = wigner.wigner_entropy_bound(ms, levels)
    # bench/test_bench.py reads the value after "bound "; see wigner's docstring
    print(
        f"W_max = {net['w_max']:.9f}; phase-point value of this net, an upper "
        f"bound {net['bits']:.9f} bits on the sweep bound (selector route "
        f"{net['selector_route_bits']:.9f})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mubforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="construct and validate a MUB set")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--L", type=int, required=True)
    g.add_argument("--out", default="out")
    g.add_argument("--tol", type=float, default=1e-8,
                   help="acceptance tolerance for unbiasedness/cycle residuals")
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("bounds", help="analytic lower-bound grid")
    b.add_argument("--dmax", type=int, default=32)
    b.add_argument("--Lmax", type=int, default=33)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("sweep", help="exhaustive selector sweep")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--normalization", choices=["mean", "sum"], default="mean")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    m = sub.add_parser("minimize", help="direct minimization of the average entropy")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--L", type=int, required=True)
    m.add_argument("--alpha", default="inf", help="entropy order (number or 'inf')")
    m.add_argument("--restarts", type=int, default=64)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_minimize)

    f = sub.add_parser("reproduce-fig", help="bound/minimum comparison data")
    f.add_argument("--which", type=int, choices=[1, 2], required=True)
    f.add_argument("--out", default="out")
    f.add_argument("--full", action="store_true")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--restarts", type=int, default=64)
    f.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    f.add_argument("--threads", type=int, default=1)
    f.set_defaults(func=cmd_reproduce_fig)

    w = sub.add_parser("wigner", help="phase-space report for the complete set")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_wigner)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_BAD_ARGS
    if getattr(args, "n", None) is not None:
        try:
            limit = max_n()
        except ValueError as exc:
            print(f"bad arguments: {exc}", file=sys.stderr)
            return EXIT_BAD_ARGS
        if args.n < 1 or args.n > limit:
            print(f"n={args.n} outside 1..{limit} (MUBFORGE_MAX_N)", file=sys.stderr)
            return EXIT_BAD_ARGS
    _echo_config(args)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        UnbiasednessError,
        DiagonalizationError,
        transform.ConstructionError,
        CycleMatchError,
    ) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
