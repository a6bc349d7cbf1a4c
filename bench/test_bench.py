"""Fast tests of the benchmark's own code; no workload is run.

    PYTHONPATH=src python3 -m pytest -q bench

Each output check accepts an output of today's program and rejects the same
output with one corruption. The figure CSVs are the committed fixtures; the
Wigner and generate outputs are made in-process at small n.
"""

import csv
import io
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from checks import CheckError  # noqa: E402
from mubforge.cli import main as cli_main  # noqa: E402

FIG = {1: (2, [2, 3, 4, 5]), 2: (3, list(range(2, 10)))}


def fig_text(which: int) -> str:
    return (BENCH / "fixtures" / f"fig{which}.csv").read_text()


def edit_cell(text: str, L: int, column: str, value: str) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    row = next(r for r in rows if r["L"] == str(L))
    assert row[column] != value
    row[column] = value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=checks.FIG_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("which", [1, 2])
def test_figure_check_accepts_todays_output(which):
    n, Ls = FIG[which]
    checked = checks.check_figure(fig_text(which), n, Ls, seed=0)
    assert sorted(checked) == [L for L in Ls if checks.has_construction(n, L)]


@pytest.mark.parametrize(
    "which, L, column, value",
    [
        (1, 4, "sweep_bits", "0.678071915"),  # tight 5/8 value, one digit off
        (1, 3, "sweep_bits", "0.584962511"),  # tight 2/3 value
        (1, 5, "sweep_bits", "0.802876699"),  # exact recomputed sweep
        (1, 2, "small_L", "0.415037489"),  # analytic bound
        (1, 3, "numeric_min", "0.584962401"),  # minimizer below the sweep
        (1, 4, "large_L", "0.678071904"),  # small_L = large_L at L = d
        (2, 3, "sweep_bits", "0.833916426"),  # exact recomputed sweep in d = 8
        (2, 7, "sweep_bits", "1.237469591"),  # a sampled string beats it
        (2, 7, "invariant_min", "1.237469481"),
        (2, 5, "sweep_bits", "1.1"),  # no construction for L = 5 in d = 8
        (2, 7, "sweep_mode", "sampled"),
    ],
)
def test_figure_check_rejects_one_changed_cell(which, L, column, value):
    n, Ls = FIG[which]
    with pytest.raises(CheckError):
        checks.check_figure(edit_cell(fig_text(which), L, column, value), n, Ls, seed=0)


def test_figure_check_rejects_missing_row():
    text = "\n".join(fig_text(1).splitlines()[:-1]) + "\n"
    with pytest.raises(CheckError):
        checks.check_figure(text, 2, [2, 3, 4, 5], seed=0)


@pytest.fixture(scope="module")
def wigner_d8(tmp_path_factory):
    out = tmp_path_factory.mktemp("wigner") / "w.csv"
    buf = io.StringIO()
    stdout, sys.stdout = sys.stdout, buf
    try:
        assert cli_main(["wigner", "--n", "3", "--out", str(out)]) == 0
    finally:
        sys.stdout = stdout
    return out.read_text(), buf.getvalue()


def test_wigner_check_accepts_todays_output(wigner_d8):
    text, stdout = wigner_d8
    for seed in range(3):
        assert checks.check_wigner(text, stdout, 3, seed)["bound_bits"] > 0


def _edit_point(text: str, point, lam: float) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        x, y, *_ = line.split(",")
        if (x, y) == tuple(map(str, point)):
            lines[i] = f"{x},{y},{lam:.12f},{lam / 8:.12f}"
    return "\n".join(lines) + "\n"


def test_wigner_check_rejects_a_wrong_lambda(wigner_d8):
    text, stdout = wigner_d8
    point = checks.wigner_points(8, seed=0)[0]
    row = next(r for r in csv.DictReader(io.StringIO(text))
               if (int(r["alpha_x"]), int(r["alpha_y"])) == point)
    bad = _edit_point(text, point, float(row["lambda_max"]) - 1e-6)
    with pytest.raises(CheckError):
        checks.check_wigner(bad, stdout, 3, seed=0)


def test_wigner_check_rejects_inconsistent_rows_and_summary(wigner_d8):
    text, stdout = wigner_d8
    lines = text.splitlines()
    x, y, lam, w = lines[5].split(",")
    lines[5] = f"{x},{y},{lam},{float(w) + 1e-9:.12f}"  # W_max != lambda/d
    with pytest.raises(CheckError):
        checks.check_wigner("\n".join(lines) + "\n", stdout, 3, seed=0)
    with pytest.raises(CheckError):
        checks.check_wigner("\n".join(lines[:-1]) + "\n", stdout, 3, seed=0)
    summary = next(ln for ln in stdout.splitlines() if ln.startswith("W_max"))
    head, _, tail = summary.partition("bound ")
    value, _, rest = tail.partition(" ")
    bumped = f"{float(value) + 1e-7:.9f}"
    with pytest.raises(CheckError):
        checks.check_wigner(text, stdout.replace(summary, f"{head}bound {bumped} {rest}"),
                            3, seed=0)


@pytest.fixture(scope="module")
def generated_d8(tmp_path_factory):
    out = tmp_path_factory.mktemp("generate")
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        assert cli_main(["generate", "--n", "3", "--L", "7", "--out", str(out)]) == 0
    finally:
        sys.stdout = stdout
    return out


def _corrupt_copy(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    doc = json.loads((dst / name).read_text())
    edit(doc)
    (dst / name).write_text(json.dumps(doc))
    return dst


def test_generate_check_accepts_todays_output(generated_d8):
    assert checks.check_generate(generated_d8, 3, 7) == {"bases": 7, "d": 8}


def _swap_vectors(doc):
    b0, b1 = doc["bases"][0]["vectors"], doc["bases"][1]["vectors"]
    b0[0], b1[0] = b1[0], b0[0]


def _swap_unitary_rows(U):
    U[0], U[1] = U[1], U[0]


def _flip_member_bit(doc):
    members = doc["classes"][2]["members"]
    x = re.search(r"X:(0x[0-9a-f]+)", members[3]).group(1)
    members[3] = members[3].replace(f"X:{x}", f"X:{int(x, 16) ^ 1:#x}")


def _repeat_member(doc):
    doc["classes"][1]["members"][0] = doc["classes"][0]["members"][0]


@pytest.mark.parametrize(
    "name, edit",
    [
        ("bases.json", _swap_vectors),
        ("unitary.json", _swap_unitary_rows),
        ("partition.json", _flip_member_bit),
        ("partition.json", _repeat_member),
    ],
)
def test_generate_check_rejects_one_corruption(generated_d8, tmp_path, name, edit):
    bad = _corrupt_copy(generated_d8, tmp_path / "bad", name, edit)
    with pytest.raises(CheckError):
        checks.check_generate(bad, 3, 7)


def test_self_times_subtract_direct_children_only():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1], ["c", 6.0, 7.0, 0]]
    assert tracer.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_traced_run_accounts_for_its_wall_time(tmp_path):
    trace = tmp_path / "trace.json"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(trace), "--",
         "generate", "--n", "2", "--L", "4", "--out", str(tmp_path / "out")],
        env={"PYTHONPATH": str(BENCH.parent / "src")}, check=True, capture_output=True,
    )
    wall = time.perf_counter() - start
    m = {k: v["value"] for k, v in
         tracer.layer_metrics([json.loads(trace.read_text())], wall, wall).items()}
    assert list(m) == list(tracer.METRICS)
    parts = [v for k, v in m.items()
             if k.endswith("_s") and not k.endswith("_per_s") and not k.startswith("trace.")]
    assert abs(sum(parts) + m["trace.process_s"] - m["trace.wall_s"]) < 1e-9
    assert m["classes.partition_s"] > 0 and m["mub.eigenbasis_s"] > 0
    assert m["mub.eigenbases"] == 4 and m["cli.write_mb"] > 0
    assert m["pauli.to_dense_calls"] > 0 and m["trace.overhead_s"] == 0


def test_launch_reports_the_childs_own_peak_and_scaled_time(tmp_path):
    ballast = bytearray(96 * 2**20)  # the runner's size must not leak into the child's
    ballast[:: 4096] = b"\1" * len(ballast[:: 4096])
    child = "import time; x = bytearray(32 * 2**20); x[::4096] = b'1' * len(x[::4096]); " \
            "time.sleep(0.4)"
    r = run.launch([sys.executable, "-c", child], run.cli_env(()), tmp_path)
    assert r["code"] == 0 and r["probes"] >= 2
    assert 32 < r["peak_rss_mb"] < 90
    assert r["wall_s"] == pytest.approx(r["raw_wall_s"] * run.PROBE_REF_S / r["probe_s"])


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_runs"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
