import json
import math
from pathlib import Path

import numpy as np
import pytest

from mubforge.cli import main
from oracles import iter_sweep_rows, partition_from_json


def run(args):
    return main(args)


def test_generate_fixture(tmp_path, capsys):
    code = run(["generate", "--n", "2", "--L", "4", "--out", str(tmp_path)])
    assert code == 0
    part = partition_from_json((tmp_path / "partition.json").read_text())
    assert part.L == 4 and part.n == 2
    validation = json.loads((tmp_path / "validation.json").read_text())
    assert validation["p1"] and validation["p2"] and validation["p3"]
    assert validation["unbiasedness_deviation"] < 1e-8
    assert validation["cycle_residual"] < 1e-8
    bases = json.loads((tmp_path / "bases.json").read_text())
    assert bases["d"] == 4 and bases["L"] == 4
    U = json.loads((tmp_path / "unitary.json").read_text())
    M = np.array([[complex(re, im) for re, im in row] for row in U])
    assert np.linalg.norm(M.conj().T @ M - np.eye(4)) < 1e-10


def test_generate_complete_set(tmp_path):
    assert run(["generate", "--n", "2", "--L", "5", "--out", str(tmp_path)]) == 0
    part = partition_from_json((tmp_path / "partition.json").read_text())
    assert part.L == 5


def test_generate_fourier_pair(tmp_path):
    assert run(["generate", "--n", "4", "--L", "2", "--out", str(tmp_path)]) == 0


def test_generate_tolerance_override(tmp_path, capsys):
    # residuals are ~1e-16, so an absurd tolerance flips the exit code
    code = run(
        ["generate", "--n", "2", "--L", "4", "--out", str(tmp_path), "--tol", "1e-20"]
    )
    assert code == 2
    assert "FAILED" in capsys.readouterr().err


def test_generate_refuses_bad_combo(tmp_path, capsys):
    code = run(["generate", "--n", "2", "--L", "6", "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert "L prime" in err and "2n+1" in err


def test_generate_roundtrip_stable(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["generate", "--n", "3", "--L", "3", "--out", str(out1)]) == 0
    assert run(["generate", "--n", "3", "--L", "3", "--out", str(out2)]) == 0
    for name in ("partition.json", "bases.json", "unitary.json", "validation.json"):
        assert (out1 / name).read_text() == (out2 / name).read_text()
    # generate -> load -> validate round trip
    from mubforge.classes import validate_partition

    part = partition_from_json((out1 / "partition.json").read_text())
    assert validate_partition(part).ok


def test_minimize_command(capsys):
    code = run(
        ["minimize", "--n", "2", "--L", "4", "--alpha", "inf", "--restarts", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0.678071905" in out


def test_minimize_stdout_unchanged(capsys):
    # the result line of the scalar per-restart minimizer for this command
    assert run(["minimize", "--n", "2", "--L", "4", "--restarts", "16"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "min avg H_inf ~= 0.678071905 bits over 16 restarts (seed 0); "
        "min-entropy bound 0.678071905"
    )


def test_minimize_alpha_two(capsys):
    code = run(["minimize", "--n", "2", "--L", "3", "--alpha", "2", "--restarts", "16"])
    assert code == 0
    assert "1.000000" in capsys.readouterr().out


def test_minimize_order_that_underflows_is_refused(capsys):
    # p^1000 underflows to 0 for every outcome of some basis, and log2 of
    # the sum then has no value: a bad-arguments exit naming the cause
    args = ["minimize", "--n", "2", "--L", "4", "--alpha", "1000", "--restarts", "8"]
    assert run(args) == 4
    err = capsys.readouterr().err
    assert err == (
        "bad arguments: order 1000 underflows sum p^alpha in d = 4; use --alpha inf\n"
    )


def test_bounds_table(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", "--dmax", "8", "--Lmax", "9", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "L,d,small_L,large_L,best"
    table = {}
    for r in rows[1:]:
        L, d, small, large, best = r.split(",")
        table[(int(L), int(d))] = (float(small), float(large), float(best))
    assert abs(table[(4, 4)][0] - 0.6780719051) < 1e-9
    assert abs(table[(2, 4)][0] + math.log2(3 / 4)) < 1e-9
    small, large, _ = table[(9, 8)]
    assert large > small


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--n", "2", "--L", "4", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "0.678071905" in text
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "b_string,lambda_max,minus_log2"
    assert len(rows) == 1 + 256


def test_sweep_budget_refusal(capsys):
    code = run(["sweep", "--n", "2", "--L", "5", "--budget", "100"])
    assert code == 3
    err = capsys.readouterr().err
    assert "budget" in err
    assert err.count("sampling") == 1 and err.count("\n") == 1


def test_sweep_refuses_a_reduced_range_int32_labels_cannot_index(capsys):
    # 32^11 strings are within the budget, but 32^9 reduced ones are not
    # within int32 orbit labels: exit 3 before any labelling
    code = run(["sweep", "--n", "5", "--L", "11", "--budget", str(10**17)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("budget refusal: 32^9 = 35184372088832 reduced strings")
    assert err.count("\n") == 1


def test_bad_arguments_exit_code():
    assert run(["generate", "--n", "2"]) == 4  # missing --L
    assert run(["nosuchcommand"]) == 4
    assert run(["generate", "--n", "9", "--L", "3"]) == 4  # above MUBFORGE_MAX_N


def test_max_n_env(monkeypatch, tmp_path):
    monkeypatch.setenv("MUBFORGE_MAX_N", "1")
    assert run(["generate", "--n", "2", "--L", "3", "--out", str(tmp_path)]) == 4
    monkeypatch.delenv("MUBFORGE_MAX_N")


def test_reproduce_fig1(tmp_path):
    code = run(
        ["reproduce-fig", "--which", "1", "--out", str(tmp_path), "--restarts", "12"]
    )
    assert code == 0
    rows = (tmp_path / "fig1.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    data = {int(r.split(",")[0]): dict(zip(header, r.split(","))) for r in rows[1:]}
    assert set(data) == {2, 3, 4, 5}
    # L = 4: sweep, numeric minimum, circle and bound all coincide
    row = data[4]
    for key in ("best", "sweep_bits", "numeric_min", "invariant_min"):
        assert abs(float(row[key]) - 0.6780719051) < 1e-4, (key, row[key])
    # L = 3: numeric minimum matches the bound (tight)
    assert abs(float(data[3]["numeric_min"]) - float(data[3]["best"])) < 1e-4
    # L = 5: the large-L bound is the stronger one
    assert float(data[5]["large_L"]) > float(data[5]["small_L"])
    assert (tmp_path / "plot_fig1.py").exists()


def test_reproduce_fig1_matches_fixture(tmp_path):
    fixture = Path(__file__).parent / "fixtures" / "fig1.csv"
    args = ["reproduce-fig", "--which", "1", "--seed", "0", "--out", str(tmp_path)]
    assert run(args) == 0
    assert (tmp_path / "fig1.csv").read_bytes() == fixture.read_bytes()


# (numeric_min, invariant_min) by L, printed by `reproduce-fig` at seeds 2, 3
# and 4 alike when a stalled minimizer row still halved its step to 1e-14.
# Seeds 0 and 1 are pinned by the fixtures and test_fig2_minimizer_is_tight_at_L7.
FIG_MINIMA = {
    "1": {
        "2": ("0.415037499", "0.415037499"),
        "3": ("0.584962501", "1.000000000"),
        "4": ("0.678071905", "0.678071905"),
        "5": ("0.808397534", "0.857221403"),
    },
    "2": {"3": ("0.833916436", "1.000000000"), "7": ("1.237469491", "1.349870716")},
}


@pytest.mark.parametrize("seed", [2, 3, 4])
@pytest.mark.parametrize("which", ["1", "2"])
def test_printed_minima_are_pinned_across_seeds(tmp_path, which, seed):
    args = ["reproduce-fig", "--which", which, "--seed", str(seed)]
    args += ["--full"] if which == "2" else []
    assert run(args + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / f"fig{which}.csv").read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    got = {r["L"]: (r["numeric_min"], r["invariant_min"]) for r in rows}
    assert {L: v for L, v in got.items() if v[0]} == FIG_MINIMA[which]


@pytest.mark.parametrize("n, L", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 7)])
def test_invariant_column_scores_each_state_as_avg_entropy(n, L):
    # the figure sets: reproduce-fig scores a set's invariant states in one
    # kernel call, and each state's value is avg_entropy's to the bit
    from mubforge.cli import build_partition
    from mubforge.entropy import _avg_entropy_values, _basis_stack, avg_entropy
    from mubforge.mub import build_mub_set, invariant_superposition_family

    ms = build_mub_set(build_partition(n, L))
    fam = invariant_superposition_family(ms)
    want = np.array([avg_entropy(ms, v, math.inf) for v in fam])
    got, _ = _avg_entropy_values(_basis_stack(ms), np.array(fam), math.inf)
    assert len(fam) and got.tobytes() == want.tobytes()
    assert float(got.min()) == min(want.tolist())


def test_invariant_column_is_one_call_per_set(tmp_path, monkeypatch):
    import sys

    import mubforge.entropy as entropy

    calls, score = [], entropy._avg_entropy_values

    def scored(*a):  # the minimizer's own calls are not counted
        if sys._getframe(1).f_globals["__name__"] == "mubforge.cli":
            calls.append(a)
        return score(*a)

    monkeypatch.setattr(entropy, "_avg_entropy_values", scored)
    args = ["reproduce-fig", "--which", "1", "--restarts", "1", "--out", str(tmp_path)]
    assert run(args) == 0
    assert [len(a[1]) for a in calls] == [8, 8, 16, 16]  # L = 2..5


def test_reproduce_fig2_full_matches_fixture(tmp_path):
    # pins the d = 8 sweep and minimizer rows
    fixture = Path(__file__).parent / "fixtures" / "fig2.csv"
    args = ["reproduce-fig", "--which", "2", "--full", "--seed", "0"]
    assert run(args + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig2.csv").read_bytes() == fixture.read_bytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_fig2_minimizer_is_tight_at_L7(tmp_path, seed):
    # the minimizer reaches the exact sweep value of the (3,7) set
    args = ["reproduce-fig", "--which", "2", "--full", "--seed", str(seed)]
    assert run(args + ["--out", str(tmp_path)]) == 0
    rows = (tmp_path / "fig2.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    row = next(dict(zip(header, r.split(","))) for r in rows[1:] if r[:2] == "7,")
    assert row["numeric_min"] == row["sweep_bits"] == "1.237469491"


@pytest.mark.parametrize("dmax, Lmax", [(1, 3), (0, 3), (-2, 3), (8, 0), (8, -3)])
def test_bounds_refuses_an_empty_grid(tmp_path, capsys, dmax, Lmax):
    out = tmp_path / "bounds.csv"
    args = ["bounds", "--dmax", str(dmax), "--Lmax", str(Lmax), "--out", str(out)]
    assert run(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("bad arguments:") and err.count("\n") == 1
    assert not out.exists()


def test_wigner_command_at_n6(monkeypatch, capsys):
    monkeypatch.setenv("MUBFORGE_MAX_N", "6")
    assert run(["wigner", "--n", "6"]) == 0
    text = capsys.readouterr().out
    assert text.count("\n") == 1 + 1 + 64 * 64 + 1  # config, header, points, W_max
    assert "phase-point value of this net" in text


def test_wigner_command(tmp_path, capsys):
    out = tmp_path / "wigner.csv"
    assert run(["wigner", "--n", "2", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "alpha_x,alpha_y,lambda_max,W_max"
    assert len(rows) == 1 + 16
    assert "phase-point value of this net" in capsys.readouterr().out


def test_max_n_env_not_an_integer(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MUBFORGE_MAX_N", "abc")
    code = run(["generate", "--n", "2", "--L", "3", "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MUBFORGE_MAX_N" in err
    assert not list(tmp_path.iterdir())


def test_sweep_out_streams_the_same_result(tmp_path, monkeypatch, capsys):
    import os

    from mubforge.cli import build_partition
    from mubforge.mub import build_mub_set

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool runs on any host
    assert run(["sweep", "--n", "3", "--L", "3"]) == 0
    plain = capsys.readouterr().out.splitlines()
    out = tmp_path / "deep" / "sweep.csv"
    args = ["sweep", "--n", "3", "--L", "3", "--threads", "2", "--out", str(out)]
    assert run(args) == 0
    streamed = capsys.readouterr().out.splitlines()
    assert streamed[1] == f"wrote {out}"
    assert streamed[2] == plain[1]
    rows = out.read_text().splitlines()
    ms = build_mub_set(build_partition(3, 3))
    want = [
        f"{''.join(map(str, b))},{lam:.12f},{-math.log2(lam):.12f}"
        for b, lam in iter_sweep_rows(ms)
    ]
    assert rows == ["b_string,lambda_max,minus_log2"] + want


def test_sweep_refusal_writes_no_file(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--n", "2", "--L", "5", "--budget", "100", "--out", str(out)]
    assert run(args) == 3
    assert not out.exists()


FIXTURES = Path(__file__).parent / "fixtures"


def test_generate_matches_fixture(tmp_path):
    # partition.json and unitary.json as generate wrote them before monomials
    # were mapped exactly; bases.json from the exact bases; validation.json
    # with the cycle residual of the one-product Gram form and no P3 residual
    assert run(["generate", "--n", "3", "--L", "7", "--out", str(tmp_path)]) == 0
    for name in ("partition.json", "validation.json", "bases.json", "unitary.json"):
        want = (FIXTURES / "generate_n3_L7" / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, name


def test_generate_builds_the_cycle_unitary_once(tmp_path, monkeypatch):
    import mubforge.classes
    import mubforge.cli
    import mubforge.transform
    from mubforge.transform import cycle_unitary

    calls = []

    def counted(gs, spec):
        calls.append(spec)
        return cycle_unitary(gs, spec)

    # build_mub_set is the one caller, through the module: the CLI and the
    # validator use the exact action alone
    assert not hasattr(mubforge.cli, "cycle_unitary")
    assert not hasattr(mubforge.classes, "cycle_unitary")
    monkeypatch.setattr(mubforge.transform, "cycle_unitary", counted)
    assert run(["generate", "--n", "3", "--L", "3", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("n, L", [(3, 7), (6, 13)])
def test_generate_reads_u_once(tmp_path, monkeypatch, n, L):
    # no dense read of U: its action is composed exactly as it is built,
    # validation checks that action, and the label maps come from the masks,
    # derived once: one subset table of each basis for its vectors, and one
    # for the maps
    import mubforge.mub
    import mubforge.transform

    reads, read = [], mubforge.transform.conjugate_term
    groups, group = [], mubforge.mub._group
    monkeypatch.setattr(
        mubforge.transform, "conjugate_term", lambda *a: reads.append(a) or read(*a)
    )
    monkeypatch.setattr(mubforge.mub, "_group", lambda g: groups.append(g) or group(g))
    monkeypatch.setenv("MUBFORGE_MAX_N", "6")
    assert run(["generate", "--n", str(n), "--L", str(L), "--out", str(tmp_path)]) == 0
    assert len(reads) == 0
    assert not hasattr(mubforge.mub, "apply")
    assert len(groups) == 2 * L


@pytest.mark.parametrize(
    "args, option",
    [
        (["reproduce-fig", "--which", "2", "--full", "--restarts", "0"], "--restarts"),
        (["reproduce-fig", "--which", "1", "--seed", "-1"], "--seed"),
        (["minimize", "--n", "2", "--L", "4", "--restarts", "-2"], "--restarts"),
        (["minimize", "--n", "2", "--L", "4", "--seed", "-3"], "--seed"),
        (["minimize", "--n", "2", "--L", "4", "--alpha", "foo"], "--alpha"),
        (["minimize", "--n", "2", "--L", "4", "--alpha", "0"], "--alpha"),
        (["minimize", "--n", "2", "--L", "4", "--alpha", "-1"], "--alpha"),
        (["minimize", "--n", "2", "--L", "4", "--alpha", "nan"], "--alpha"),
        # not a budget refusal (exit 3) at the first sweep
        (["sweep", "--n", "2", "--L", "3", "--budget", "0"], "--budget"),
        (["reproduce-fig", "--which", "1", "--budget", "-5"], "--budget"),
    ],
)
def test_minimizer_arguments_are_refused_before_any_set(
    tmp_path, monkeypatch, capsys, args, option
):
    import mubforge.cli

    def no_set(*a):
        raise AssertionError("a set was built")

    monkeypatch.setattr(mubforge.cli, "build_mub_set", no_set)
    if args[0] == "reproduce-fig":
        args = args + ["--out", str(tmp_path)]
    assert run(args) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"bad arguments: {option} must be")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n, L", [(2, 4), (2, 5), (3, 3), (3, 7), (5, 5)])
def test_sweep_stdout_matches_fixture(capsys, n, L):
    # stdout as the Pauli-only sweep printed it, before cycle orbits; (5, 5),
    # the one d = 32 sweep, as the kernel printed it before its blocks
    assert run(["sweep", "--n", str(n), "--L", str(L)]) == 0
    want = (FIXTURES / f"sweep_n{n}_L{L}.txt").read_text()
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--n", "2", "--L", "3"],
        ["reproduce-fig", "--which", "1"],
    ],
)
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_are_refused(tmp_path, monkeypatch, capsys, args, threads):
    import concurrent.futures

    import mubforge.cli

    def no_pool(*a, **k):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(mubforge.cli, "build_mub_set", no_pool)
    out = ["--out", str(tmp_path / "out")]
    assert run(args + ["--threads", threads] + out) == 4
    err = capsys.readouterr().err
    assert err == f"bad arguments: --threads must be >= 1, got {threads}\n"
    assert not any(tmp_path.iterdir())


def test_wigner_matches_fixture(capsys):
    assert run(["wigner", "--n", "3"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "wigner_n3.txt").read_text()


# sha256 of the wigner --n 1..5 CSVs as the unreduced route wrote them
WIGNER_CSV_SHA256 = {
    1: "ad2cf8a4fee658aaf1786281368f944c8d2d9bf754c4308dcd350e47ed54f81a",
    2: "5350e60bde2240bcd672ca8ec8430b92b340503f46280b9274d6633c904ff774",
    3: "ff85c78ac139b67a8d5d7c0639521ef3bb90c0efb5eb1b4789a5667f1b6ee232",
    4: "4373b9b1b5a8001e106d317969960f85c155e44feb1ba0ea654b6a774be81fa4",
    5: "69930226b8d7d761743b0b08240615b05097e677424f743f196dd3cd4f116e04",
}


@pytest.mark.parametrize("n", sorted(WIGNER_CSV_SHA256))
def test_wigner_csv_bytes_are_pinned(tmp_path, n):
    import hashlib

    out = tmp_path / "w.csv"
    assert run(["wigner", "--n", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIGNER_CSV_SHA256[n]


def test_wigner_checks_one_point_densely(monkeypatch, capsys):
    import mubforge.wigner

    calls = {"point_operator": 0, "hermitian_eigmax": 0, "_eigmax_chunks": 0}

    def counted(name):
        fn = getattr(mubforge.wigner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mubforge.wigner, name, counted(name))
    assert run(["wigner", "--n", "3"]) == 0
    # one kernel pass over the 64 points; at the maximising point one dense
    # point operator, its solve and the selector route's solve
    assert calls == {"point_operator": 1, "hermitian_eigmax": 2, "_eigmax_chunks": 1}


def test_sweep_labels_are_unambiguous(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--n", "4", "--L", "2", "--out", str(out)]) == 0
    labels = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
    assert len(labels) == 256 and len(set(labels)) == 256
    assert labels[:2] == ["0000", "0001"] and labels[-1] == "1515"
    assert {len(b) for b in labels} == {4}


def _child_output(code, cwd=None):
    """The last stdout line of a fresh interpreter running `code` with
    mubforge on its path, in this process's environment otherwise (so
    PYTHONDONTWRITEBYTECODE carries over)."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        cwd=cwd,
    )
    return out.stdout.splitlines()[-1]


def _loaded_after(code, modules, cwd=None, ran=False):
    """Which of `modules` a fresh interpreter has imported after running
    `code` with mubforge on its path. With `ran`, only those whose code has
    run: a lazy module is in sys.modules before that, as an instance of
    LazyLoader's subclass of ModuleType until its first attribute access.
    type() reads no attribute, so the check itself loads nothing."""
    test = "type(sys.modules[m]) is types.ModuleType" if ran else "True"
    code += (
        "\nimport sys, types"
        f"\nprint([m for m in {modules!r} if m in sys.modules and {test}])"
    )
    return json.loads(_child_output(code, cwd).replace("'", '"'))


def test_child_interpreter_keeps_the_bytecode_setting():
    import sys

    code = "import sys; print(sys.dont_write_bytecode)"
    assert _child_output(code) == str(sys.dont_write_bytecode)


def test_cli_import_leaves_scipy_out():
    assert _loaded_after("import mubforge.cli", ["scipy"]) == []


LAZY = [f"mubforge.{m}" for m in ("transform", "selector", "entropy", "wigner")]
TRANSFORM, SELECTOR, ENTROPY, WIGNER = LAZY


def test_cli_import_registers_every_module_and_runs_no_lazy_one():
    # bench/tracer.py reads sys.modules[m] for each of its target modules
    # right after `import mubforge.cli`
    eager = [f"mubforge.{m}" for m in ("pauli", "classes", "mub", "cli")]
    modules = ["mubforge"] + eager + LAZY
    assert _loaded_after("import mubforge.cli", modules) == modules
    assert _loaded_after("import mubforge.cli", LAZY, ran=True) == []


def test_entropy_binds_the_selector_kernel_itself():
    # bench/tracer.py wraps mubforge.entropy.hermitian_eigmax, and the
    # tests reach the kernel through entropy: one object, not a copy
    from mubforge import entropy, selector

    for name in ("hermitian_eigmax", "_eigmax_chunks", "pvec_operator", "LEVEL_TOL"):
        assert getattr(entropy, name) is getattr(selector, name)


@pytest.mark.parametrize(
    "args, code, ran",
    [
        (["generate", "--n", "3", "--L", "7"], 0, [TRANSFORM]),
        (["generate", "--n", "2", "--L", "3", "--tol", "nan"], 4, [TRANSFORM]),
        (
            ["reproduce-fig", "--which", "1", "--restarts", "2"],
            0,
            [TRANSFORM, SELECTOR, ENTROPY],
        ),
        (["wigner", "--n", "2"], 0, [TRANSFORM, SELECTOR, WIGNER]),
        (["wigner", "--n", "3"], 0, [SELECTOR, WIGNER]),
    ],
    ids=["generate", "generate-bad-tol", "fig1", "wigner", "wigner-spread"],
)
def test_commands_run_only_the_lazy_modules_they_call(tmp_path, args, code, ran):
    script = f"import mubforge.cli as c; assert c.main({args!r}) == {code}"
    assert _loaded_after(script, LAZY, cwd=tmp_path, ran=True) == ran


def test_cli_import_leaves_the_pool_and_masked_arrays_out():
    # concurrent.futures is imported only for --threads > 1, and numpy.ma
    # not at all
    lazy = ["concurrent.futures", "numpy.ma"]
    assert _loaded_after("import mubforge.cli", lazy) == []


def test_generate_leaves_masked_arrays_out(tmp_path):
    # np.unique without index outputs imports numpy.ma under numpy 2
    code = "import mubforge.cli as c; c.main(['generate', '--n', '3', '--L', '7'])"
    assert _loaded_after(code, ["numpy.ma"], cwd=tmp_path) == []
    assert (tmp_path / "out" / "bases.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["reproduce-fig", "--which", "1", "--restarts", "2"],
        ["reproduce-fig", "--which", "2", "--restarts", "2"],
        ["minimize", "--n", "2", "--L", "4", "--restarts", "2"],
        ["wigner", "--n", "2"],
        ["generate", "--n", "2", "--L", "3"],
    ],
    ids=["fig1", "fig2-sampled", "minimize", "wigner", "generate"],
)
def test_commands_leave_numpy_random_and_hashlib_out(tmp_path, args):
    # the starts and the sampled strings come from the standard library's
    # random; numpy.random would also load secrets, hashlib and libcrypto
    code = f"import mubforge.cli as c; c.main({args!r})"
    lazy = ["numpy.random", "secrets", "hashlib"]
    assert _loaded_after(code, lazy, cwd=tmp_path) == []


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_generate_rejects_a_bad_tolerance(tmp_path, capsys, tol):
    # nan would pass the acceptance gate: dev > nan is always false
    args = ["generate", "--n", "2", "--L", "3", "--out", str(tmp_path), "--tol", tol]
    assert run(args) == 4
    assert "--tol must be finite and > 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--n", "2", "--L", "3"],
        ["generate", "--n", "2", "--L", "3"],
        ["wigner", "--n", "1"],
        ["bounds", "--dmax", "4", "--Lmax", "3"],
    ],
)
def test_unwritable_out_is_one_stderr_line(tmp_path, capsys, args):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(args + ["--out", str(blocker / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1


def test_tracer_targets_resolve():
    # bench/tracer.py wraps these functions by name; a rename breaks tracing
    import importlib.util

    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, function, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), function))


# sha256 of the n = 6 generate outputs: partition.json as the per-monomial
# route wrote it; bases.json and validation.json at L = 13 with the cycle
# residual of the one-product Gram form (2.201003820562027e-15), and
# validation.json without a P3 residual; unitary.json as the rotation product
# applied monomial by monomial (entries within 2.4e-18 of the dense product)
GENERATE_N6_SHA256 = {
    ("13", "partition.json"): "55dec0ba43df64e13a531fed26d38b67e052a9aaae0210a32781314a8d1ce1d9",
    ("13", "validation.json"): "f88e3606b1aaa709a991e944186ae41e46fdab586f39100efd485f5dfbd75551",
    ("13", "bases.json"): "49941a85b75daf1c572a5b145bb9b65b3de1482e5081e8f7f2ee0c870a0a9654",
    ("13", "unitary.json"): "7c39b7b55cffaf55af66948540dce7a753cc6ec0c97416388ddf99d2e2960b4c",
    ("3", "partition.json"): "2c132df5a5e0a1785efd24aece5d1a358e864530495d1f10b63cc093cac4a9e4",
    ("3", "validation.json"): "22acf210dcdf761736d7d10fce06490d712b415b3bf971ca6452ba77c64cfa35",
}


def test_generate_n6_matches_digests(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.setenv("MUBFORGE_MAX_N", "6")
    # L = 3 fails P2 (ROADMAP: "Fix build_classes_Ln for n/L >= 2")
    for L, code in (("13", 0), ("3", 2)):
        assert run(["generate", "--n", "6", "--L", L, "--out", str(tmp_path / L)]) == code
    written = {
        (p.parent.name, p.name): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.glob("*/*.json")
    }
    assert written == GENERATE_N6_SHA256


def test_generate_json_is_what_json_dumps_writes(tmp_path):
    assert run(["generate", "--n", "3", "--L", "7", "--out", str(tmp_path)]) == 0
    for name in ("bases.json", "unitary.json"):
        text = (tmp_path / name).read_text()
        assert json.dumps(json.loads(text)) == text, name


def test_minimize_out_is_what_json_dumps_writes(tmp_path):
    out = tmp_path / "min.json"
    args = ["minimize", "--n", "2", "--L", "4", "--restarts", "2", "--out", str(out)]
    assert run(args) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert list(doc) == ["n", "L", "alpha", "seed", "restarts", "value_bits", "state"]
    assert len(doc["state"]) == 4 and json.dumps(doc, indent=1) == text


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--n", "6", "--L", "3", "--budget", "10"],
        ["minimize", "--n", "6", "--L", "3", "--restarts", "1"],
    ],
)
def test_a_set_that_is_not_unbiased_exits_2(monkeypatch, capsys, args):
    monkeypatch.setenv("MUBFORGE_MAX_N", "6")
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("construction failed: unbiasedness violated at bases (0,1)")


def test_a_unitary_that_does_not_cycle_exits_2(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    import mubforge.cli
    from mubforge.mub import verify_cycle

    def reversed_order(ms):
        return verify_cycle(replace(ms, bases=ms.bases[::-1]))

    monkeypatch.setattr(mubforge.cli, "verify_cycle", reversed_order)
    assert run(["generate", "--n", "2", "--L", "4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("construction failed: no projector match")


@pytest.mark.parametrize(
    "error", ["UnbiasednessError", "DiagonalizationError", "CycleMatchError", "ConstructionError"]
)
def test_construction_errors_exit_2(tmp_path, monkeypatch, capsys, error):
    import mubforge.cli
    import mubforge.mub
    import mubforge.transform

    cls = getattr(mubforge.mub, error, None) or getattr(mubforge.transform, error)

    def fail(n, L):
        raise cls("boom")

    monkeypatch.setattr(mubforge.cli, "build_partition", fail)
    assert run(["generate", "--n", "2", "--L", "4", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "construction failed: boom\n"
