"""Traced in-process run of the mubforge CLI, and the per-layer metrics.

    python3 bench/tracer.py TRACE_JSON -- CLI_ARGS...

times `import mubforge.cli`, wraps the layer-boundary functions of each
module, calls `mubforge.cli.main(CLI_ARGS)` under a root span, writes the
spans and counts to TRACE_JSON and exits with the CLI's exit code. Spans are
kept in memory until the run ends. The wrappers live here, not in the
program, and assume one thread, which holds at the CLI's default --threads 1.

`layer_metrics` turns the traces of one round into the per-layer metrics: a
layer's self time is the duration of its spans minus the part their child
spans cover, and time inside the root span that no other span covers is
`cli.self_s`.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, layer). A function's self time is charged to its layer.
TARGETS = [
    ("mubforge.pauli", "to_dense", "pauli.to_dense"),
    ("mubforge.transform", "cycle_unitary", "transform.cycle_unitary"),
    ("mubforge.transform", "conjugate_term", "transform.conjugate"),
    ("mubforge.classes", "build_classes_2n1", "classes.partition"),
    ("mubforge.classes", "build_classes_Ln", "classes.partition"),
    ("mubforge.classes", "fixture_d4", "classes.partition"),
    ("mubforge.classes", "validate_partition", "classes.validate"),
    ("mubforge.mub", "common_eigenbasis", "mub.eigenbasis"),
    ("mubforge.mub", "basis_from_involutions", "mub.eigenbasis"),
    ("mubforge.mub", "build_mub_set", "mub.build"),
    ("mubforge.mub", "verify_cycle", "mub.verify_cycle"),
    ("mubforge.mub", "mub_set_to_json", "mub.to_json"),
    ("mubforge.entropy", "sweep_max_eigen", "entropy.sweep"),
    ("mubforge.entropy", "sample_max_eigen", "entropy.sweep"),
    ("mubforge.entropy", "minimize_avg_entropy", "entropy.minimize"),
    ("mubforge.entropy", "hermitian_eigmax", "entropy.eigmax"),
    ("mubforge.wigner", "complete_mub_bases", "wigner.complete_bases"),
    ("mubforge.wigner", "phase_space_csv", "wigner.phase_space"),
    ("mubforge.wigner", "wigner_entropy_bound", "wigner.bound"),
    ("mubforge.wigner", "point_operator", "wigner.point_operator"),
    ("mubforge.cli", "_write", "cli.write"),
]
ROOT = "cli.main"
LAYERS = sorted({layer for _, _, layer in TARGETS})

_SWEEP_COUNTS = {
    "entropy.sweep_strings": lambda a, k, r: r.count,
    "entropy.sweep_operator_bytes": lambda a, k, r: r.count * a[0].d**2 * 16,
}
# Counts taken at a span boundary: name -> (args, kwargs, result) -> amount.
COUNTS = {
    "mubforge.pauli.to_dense": {"pauli.to_dense_calls": lambda a, k, r: 1},
    "mubforge.transform.conjugate_term": {"transform.conjugate_calls": lambda a, k, r: 1},
    "mubforge.mub.basis_from_involutions": {"mub.eigenbases": lambda a, k, r: 1},
    "mubforge.entropy.hermitian_eigmax": {"entropy.eigmax_calls": lambda a, k, r: 1},
    "mubforge.wigner.point_operator": {"wigner.point_operators": lambda a, k, r: 1},
    "mubforge.entropy.sweep_max_eigen": _SWEEP_COUNTS,
    "mubforge.entropy.sample_max_eigen": _SWEEP_COUNTS,
    "mubforge.entropy.minimize_avg_entropy": {
        "entropy.minimize_restarts": lambda a, k, r: k.get(
            "restarts", a[2] if len(a) > 2 else 64
        ),
    },
    "mubforge.cli._write": {"cli.write_bytes": lambda a, k, r: len(a[1].encode())},
}

# The per-layer metrics, in the order BENCHMARK.json lists them, with units.
METRICS = {
    "setup.import_s": "s",
    "classes.partition_s": "s",
    "classes.validate_s": "s",
    "transform.cycle_unitary_s": "s",
    "transform.conjugate_s": "s",
    "transform.conjugate_calls": "count",
    "pauli.to_dense_s": "s",
    "pauli.to_dense_calls": "count",
    "mub.build_s": "s",
    "mub.verify_cycle_s": "s",
    "mub.eigenbasis_s": "s",
    "mub.eigenbases": "count",
    "mub.to_json_s": "s",
    "entropy.sweep_s": "s",
    "entropy.sweep_strings": "count",
    "entropy.sweep_strings_per_s": "1/s",
    "entropy.sweep_operator_mb": "MB",
    "entropy.minimize_s": "s",
    "entropy.minimize_restarts": "count",
    "entropy.minimize_restarts_per_s": "1/s",
    "entropy.eigmax_s": "s",
    "entropy.eigmax_calls": "count",
    "wigner.complete_bases_s": "s",
    "wigner.phase_space_s": "s",
    "wigner.bound_s": "s",
    "wigner.point_operator_s": "s",
    "wigner.point_operators": "count",
    "cli.write_s": "s",
    "cli.write_mb": "MB",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.process_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Spans (name, start, end, parent index) and counts, held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, counters=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            for key, amount in (counters or {}).items():
                self.counts[key] = self.counts.get(key, 0) + amount(args, kwargs, result)
            return result

        return wrapper


def instrument(rec: Recorder) -> None:
    """Replace every module-level reference to each target with its wrapper,
    so calls through `from .x import f` names are traced too."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mubforge"]
    for modname, fname, _ in TARGETS:
        orig = getattr(sys.modules[modname], fname)
        name = f"{modname}.{fname}"
        wrapped = rec.span(name, orig, COUNTS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(traces: list[dict], wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics summed over the traces of one round's processes.

    wall_s and untraced_wall_s are the summed process walls of the traced
    and the untraced round.
    """
    layer_of = {f"{m}.{f}": layer for m, f, layer in TARGETS}
    layer_of[ROOT] = "cli.self"
    acc = {f"{layer}_s": 0.0 for layer in LAYERS + ["cli.self"]}
    counts: dict[str, float] = {}
    covered = 0.0
    for trace in traces:
        spans = trace["spans"]
        for (name, *_), own in zip(spans, self_times(spans)):
            acc[f"{layer_of[name]}_s"] += own
        for key, amount in trace["counts"].items():
            counts[key] = counts.get(key, 0) + amount
        covered += trace["import_s"] + sum(end - start for _, start, end, p in spans if p < 0)
    strings = counts.get("entropy.sweep_strings", 0)
    restarts = counts.get("entropy.minimize_restarts", 0)
    acc.update(
        {
            "setup.import_s": sum(trace["import_s"] for trace in traces),
            "transform.conjugate_calls": counts.get("transform.conjugate_calls", 0),
            "pauli.to_dense_calls": counts.get("pauli.to_dense_calls", 0),
            "mub.eigenbases": counts.get("mub.eigenbases", 0),
            "entropy.sweep_strings": strings,
            "entropy.sweep_strings_per_s": _rate(strings, acc["entropy.sweep_s"]),
            "entropy.sweep_operator_mb": counts.get("entropy.sweep_operator_bytes", 0) / 1e6,
            "entropy.minimize_restarts": restarts,
            "entropy.minimize_restarts_per_s": _rate(restarts, acc["entropy.minimize_s"]),
            "entropy.eigmax_calls": counts.get("entropy.eigmax_calls", 0),
            "wigner.point_operators": counts.get("wigner.point_operators", 0),
            "cli.write_mb": counts.get("cli.write_bytes", 0) / 1e6,
            "trace.wall_s": wall_s,
            "trace.process_s": wall_s - covered,
            "trace.overhead_s": wall_s - untraced_wall_s,
        }
    )
    missing = set(METRICS) ^ set(acc)
    if missing:
        raise KeyError(f"per-layer metrics out of step with METRICS: {sorted(missing)}")
    return {name: {"value": acc[name], "unit": unit} for name, unit in METRICS.items()}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import mubforge.cli

    import_s = time.perf_counter() - t0
    rec = Recorder()
    instrument(rec)
    code = rec.span(ROOT, mubforge.cli.main)(cli_args)
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, "spans": rec.spans, "counts": rec.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
