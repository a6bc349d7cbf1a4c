"""Benchmark runner for the mubforge CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is imported from ./src.
Every CLI process is launched from this one runner, one at a time, pinned
to one core with OpenBLAS/OpenMP pinned to one thread, and every output is
checked (checks.py). Each CLI process is one operation; it fails if it exits
non-zero or is killed after ROUND_TIMEOUT_S.

Times are reported in reference-core seconds. The cores of a shared host
can change speed by up to half for seconds to minutes at a time, so while a
process runs, a probe thread of the runner, pinned to the same core, times
a fixed loop every PROBE_PERIOD_S, and the process's wall time is scaled by
PROBE_REF_S / (mean probe time). Raw wall times stay in the run record.

--trace 0 times SETUP_IMPORTS fresh-interpreter imports of `mubforge.cli`
(setup_s is their median), then runs whole rounds, one CLI process each,
until the next round would end after S seconds (at least one), and reports
the medians over rounds of wall_s and peak_rss_mb.
--trace 1 runs one untraced round and one traced round (tracer.py) and
reports the per-layer metrics, in raw seconds.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Progress and the environment record (versions, thread settings,
nproc, load average) go to stderr; the whole run record is written to
bench/_runs/WORKLOAD/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Pinned before numpy loads here, and passed on to every CLI process.
THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_VARS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
SETUP_IMPORTS = 7
ROUND_TIMEOUT_S = 150
PROBE_PERIOD_S = 0.05
# About the probe's mean on a 2-vCPU Xeon VM, so that reference-core seconds
# read close to wall seconds there.
PROBE_REF_S = 1.0e-3


@dataclass(frozen=True)
class Workload:
    """One CLI command: its arguments for a seed, the check of its outputs
    (workdir, stdout, seed) -> summary, and extra environment."""

    args: Callable[[int], list[str]]
    check: Callable[[Path, str, int], dict]
    env: tuple[tuple[str, str], ...] = ()


# Why each workload is here is in BENCHMARK.json and README.md.
WORKLOADS = {
    "fig1": Workload(
        lambda seed: ["reproduce-fig", "--which", "1", "--seed", str(seed), "--out", "out"],
        lambda work, stdout, seed: checks.check_figure(
            (work / "out" / "fig1.csv").read_text(), 2, [2, 3, 4, 5], seed),
    ),
    "fig2_full": Workload(
        lambda seed: ["reproduce-fig", "--which", "2", "--full", "--seed", str(seed),
                      "--out", "out"],
        lambda work, stdout, seed: checks.check_figure(
            (work / "out" / "fig2.csv").read_text(), 3, list(range(2, 10)), seed),
    ),
    "wigner_d32": Workload(
        lambda seed: ["wigner", "--n", "5", "--out", "out/wigner.csv"],
        lambda work, stdout, seed: checks.check_wigner(
            (work / "out" / "wigner.csv").read_text(), stdout, 5, seed),
    ),
    "generate_d64": Workload(
        lambda seed: ["generate", "--n", "6", "--L", "13", "--out", "out"],
        lambda work, stdout, seed: checks.check_generate(work / "out", 6, 13),
        (("MUBFORGE_MAX_N", "6"),),
    ),
}


def cli_env(extra) -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env.update(extra)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


_rng = np.random.default_rng(0)
_PROBE_B = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_PROBE_V = _rng.normal(size=8) + 0j


def probe_once() -> float:
    """Time a fixed loop of small complex matrix-vector steps.

    It mixes interpreter work and small-array numpy calls as the minimizer
    and the basis code do; on the reference host such code slows in step
    with the CLI, where a pure LAPACK loop does not.
    """
    start = time.perf_counter()
    v = _PROBE_V
    for _ in range(60):
        c = _PROBE_B.conj().T @ v
        p = np.abs(c) ** 2
        v = _PROBE_B @ (p * c)
        v = v / np.linalg.norm(v)
    return time.perf_counter() - start


def peak_rss_kb(pid: int, cmdline: bytes) -> int:
    """VmHWM of a running process once it has exec'd `cmdline`, else 0.

    wait4's ru_maxrss would not do: a child's maximum includes its parent's
    resident size when it was spawned, here the runner's.
    """
    try:
        if Path(f"/proc/{pid}/cmdline").read_bytes() != cmdline:
            return 0
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:  # already exited
        pass
    return 0


def watch(core: int, proc: subprocess.Popen, stop: threading.Event, rec: dict) -> None:
    """Probe the core and poll the process's peak RSS until `stop` is set."""
    os.sched_setaffinity(0, {core})  # this thread only
    cmdline = b"".join(os.fsencode(a) + b"\0" for a in proc.args)
    while True:
        rec["probes"].append(probe_once())
        rec["peak_kb"] = max(rec["peak_kb"], peak_rss_kb(proc.pid, cmdline))
        if stop.wait(PROBE_PERIOD_S):
            return


def launch(argv: list[str], env: dict, cwd: Path) -> dict:
    """Run one process to its end on one core, with the core probed meanwhile.

    Returns the wall time from launch to exit, the same in reference-core
    seconds, and the process's peak RSS as last polled (a peak in the final
    PROBE_PERIOD_S before exit can be missed).
    """
    core = max(os.sched_getaffinity(0))
    rec: dict = {"probes": [], "peak_kb": 0}
    stop = threading.Event()
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            os.sched_setaffinity(proc.pid, {core})
        except ProcessLookupError:  # it has exited already; wait4 still reaps it
            pass
        watcher = threading.Thread(target=watch, args=(core, proc, stop, rec))
        killer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        watcher.start()
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            stop.set()
            killer.join()
            watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe = statistics.fmean(rec["probes"])
    return {
        "raw_wall_s": wall,
        "probe_s": probe,
        "probes": len(rec["probes"]),
        "wall_s": wall * PROBE_REF_S / probe,
        "peak_rss_mb": rec["peak_kb"] / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
        "stdout": (cwd / "stdout.txt").read_text(),
        "stderr": (cwd / "stderr.txt").read_text()[-2000:],
    }


def output_digest(work: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(work)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Rounds of one workload, each launched, timed and checked in turn."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.workload = WORKLOADS[name]
        self.env = cli_env(self.workload.env)
        self.work = RUNS / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.rounds: list[dict] = []
        self.correct = True
        self._checked: set[str] = set()

    def import_once(self) -> dict:
        r = launch([sys.executable, "-c", "import mubforge.cli"], self.env, self.work)
        if r["code"] != 0:
            raise RuntimeError(f"cannot import mubforge.cli:\n{r['stderr']}")
        return {k: r[k] for k in ("wall_s", "raw_wall_s", "probe_s")}

    def round(self, traced: bool) -> dict:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        (self.work / "out").mkdir()
        trace_path = self.work / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--"]
        else:
            argv = [sys.executable, "-m", "mubforge.cli"]
        r = launch(argv + self.workload.args(self.seed), self.env, self.work)
        r["traced"] = traced
        if r["code"] == 0:
            digest = output_digest(self.work, r["stdout"])
            if digest not in self._checked:
                try:
                    r["checked"] = self.workload.check(self.work, r["stdout"], self.seed)
                    self._checked.add(digest)
                except Exception as exc:  # any failure to check counts as incorrect
                    self.correct = False
                    r["check_error"] = f"{type(exc).__name__}: {exc}"
                    log(traceback.format_exc())
            if traced:
                r["trace"] = json.loads(trace_path.read_text())
        else:
            log(f"{self.name} exited {r['code']}:\n{r['stderr']}")
        log(
            f"{self.name} round {len(self.rounds) + 1}{' traced' if traced else ''}: "
            f"exit {r['code']}, {r['raw_wall_s']:.3f} s wall, {r['wall_s']:.3f} ref-s, "
            f"{r['peak_rss_mb']:.1f} MB"
            + (f", CHECK FAILED {r['check_error']}" if "check_error" in r else "")
        )
        self.rounds.append(r)
        return r


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    rec = {
        "unix_time": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
    }
    try:
        rec["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        rec["steal_ticks"] = int(cpu[8]) if len(cpu) > 8 else None
    except OSError:
        rec["loadavg"] = rec["steal_ticks"] = None
    return rec


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict | None]:
    runner = Runner(name, seed)
    runner.import_once()  # untimed: compiles bytecode, warms the file cache
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "cli_args": runner.workload.args(seed), "probe_ref_s": PROBE_REF_S}
    metrics: dict = {}
    if trace:
        plain, traced = runner.round(traced=False), runner.round(traced=True)
        ok = plain["code"] == 0 and traced["code"] == 0
        if ok:
            metrics = layer_metrics([traced.pop("trace")], traced["raw_wall_s"],
                                    plain["raw_wall_s"])
    else:
        setup = [runner.import_once() for _ in range(SETUP_IMPORTS)]
        record["setup_samples"] = setup
        start = time.perf_counter()
        while True:
            last = runner.round(traced=False)
            if time.perf_counter() - start + last["raw_wall_s"] > seconds:
                break
        good = [r for r in runner.rounds if r["code"] == 0]
        ok = bool(good)
        if ok:
            metrics = {
                "wall_s": metric(statistics.median(r["wall_s"] for r in good), "s"),
                "setup_s": metric(statistics.median(s["wall_s"] for s in setup), "s"),
                "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in good), "MB"),
            }
    result = {
        "correct": runner.correct,
        "attempted": len(runner.rounds),
        "failed": sum(r["code"] != 0 for r in runner.rounds),
        "metrics": metrics,
    }
    record["rounds"] = [{k: v for k, v in r.items() if k != "stdout"} for r in runner.rounds]
    return result, record if ok else None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (SRC / "mubforge" / "cli.py").is_file():
        log(f"no mubforge sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))  # for the checks that read the program's partitions
    env_start = environment()
    log(f"environment at start: {json.dumps(env_start)}")
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        log(str(exc))
        return 3
    if record is None:
        log("no round of the workload completed; no result")
        return 1
    env_end = environment()
    log(f"environment at end: {json.dumps(env_end)}")
    record.update(environment_start=env_start, environment_end=env_end, result=result)
    name = f"result-seed{args.seed}-trace{args.trace}.json"
    (RUNS / args.workload / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
