"""magbattery benchmark: four seeded workloads, timed end to end and traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --baseline [--seed N] [--seconds S]

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src/`.  One run of a workload is one fresh interpreter
(bench/worker.py), and runs go one after another until `--seconds` have
passed.  `--trace 0` reports the end-to-end metrics, `--trace 1` alternates
untraced and traced runs and reports the per-layer metrics.  Every run's
output is checked outside the timed region; a few cells are recomputed from
the RK4 oracle once per invocation.  The last stdout line is the JSON result;
the line before it is the run record (machine, inputs, quartiles).

`--baseline` runs every workload in both modes and writes bench/baseline.json.
See bench/README.md for the workloads, metrics and layer mapping.
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
import tempfile
import time
from pathlib import Path

import numpy as np

import check
import workloads
from spans import FLOPS_PER_STEP

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fewest runs behind a median, even when one run outlasts --seconds.
MIN_RUNS = 5
MIN_TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 120
# Calibration kernel time (bench/worker.py) that end-to-end times are scaled
# to.  Machine speed on shared hosts drifts by a third within minutes; the
# kernel, timed in each run's own process just before the package is
# imported, follows that drift, so a run's times are multiplied by
# CAL_REF_S / its calibration time.
CAL_REF_S = 0.1
# Layer self times must add up to the traced wall time within this share.
TRACE_COVERAGE_TOL = 0.05

END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.config_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.bytes": "B",
    "sweeps.self_s": "s",
    "sweeps.cells": "count",
    "model.self_s": "s",
    "model.calls": "count",
    "propagator.self_s": "s",
    "propagator.expm_s": "s",
    "propagator.expm_calls": "count",
    "propagator.expm_squarings": "count",
    "propagator.evolve_self_s": "s",
    "propagator.steps": "count",
    "propagator.step_flops": "flop",
    "propagator.traj_bytes": "B",
    "propagator.oracle_s": "s",
    "propagator.oracle_substeps": "count",
    "states.self_s": "s",
    "states.calls": "count",
    "metrics.self_s": "s",
    "metrics.calls": "count",
    "metrics.calls_per_sample": "ratio",
    "setup.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Unscaled medians, kept in the run record next to the metrics.
RAW = {"raw.wall_s": "s", "raw.setup_s": "s", "raw.cal_s": "s"}
UNITS = END_TO_END | PER_LAYER | RAW


def _spawn(spec_path: str, traced: bool) -> dict:
    """One run in a fresh interpreter; its report plus `problems` (empty if it ran)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), spec_path] + (["--trace"] if traced else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"run exceeded {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("setup_done") - t0 - report["cal_s"]
    report["problems"] = [] if report["rc"] == 0 else [f"entry returned {report['rc']}"]
    return report


def _output_digest(spec: dict) -> str:
    h = hashlib.sha256()
    for path in (spec["out"], spec["out"] + ".meta.json"):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _output_size(spec: dict) -> tuple[int, int]:
    """(data rows, bytes) the CLI wrote, sidecar included."""
    if spec["kind"] != "cli":
        return 0, 0
    paths = [p for p in (spec["out"], spec["out"] + ".meta.json") if os.path.exists(p)]
    with open(spec["out"], "rb") as fh:
        rows = fh.read().count(b"\n") - 1
    return rows, sum(os.path.getsize(p) for p in paths)


def _layer_metrics(report: dict, spec: dict) -> dict:
    s = report["trace"]
    layer, calls, counters = s["layer_self_s"], s["calls"], s["counters"]

    def calls_in(name: str) -> int:
        return sum(n for fn, n in calls.items() if fn.split(":", 1)[0] == name)

    rows, size = _output_size(spec)
    samples = spec["cells"] * spec["time_points"]
    return {
        "cli.config_s": layer.get("cli.config", 0.0),
        "cli.self_s": layer.get("cli", 0.0),
        "cli.rows": rows,
        "cli.bytes": size,
        "sweeps.self_s": layer.get("sweeps", 0.0),
        "sweeps.cells": counters["sweep_cells"],
        "model.self_s": layer.get("model", 0.0),
        "model.calls": calls_in("model"),
        "propagator.self_s": layer.get("propagator", 0.0),
        "propagator.expm_s": s["total_s"].get("propagator:matrix_exponential", 0.0),
        "propagator.expm_calls": calls.get("propagator:matrix_exponential", 0),
        "propagator.expm_squarings": counters["expm_squarings"],
        "propagator.evolve_self_s": s["self_s"].get("propagator:evolve", 0.0),
        "propagator.steps": counters["steps"],
        "propagator.step_flops": FLOPS_PER_STEP * counters["steps"],
        "propagator.traj_bytes": counters["traj_bytes"],
        "propagator.oracle_s": s["total_s"].get("propagator:oracle_integrate", 0.0),
        "propagator.oracle_substeps": counters["oracle_substeps"],
        "states.self_s": layer.get("states", 0.0),
        "states.calls": calls_in("states"),
        "metrics.self_s": layer.get("metrics", 0.0),
        "metrics.calls": calls_in("metrics"),
        "metrics.calls_per_sample": calls_in("metrics") / samples,
        "setup.import_s": report["import_s"],
        "trace.wall_s": report["wall_s"],
    }


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def _cache_sizes() -> dict:
    """Unified/data cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_record() -> dict:
    return {
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": _cache_sizes(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for `seconds`; returns the result and its record."""
    spec = workloads.make(name, seed)
    if trace and "--threads" in spec.get("extra_args", ()):
        # spans nest on one thread only, so the traced invocation runs serially
        spec["extra_args"] = ["--threads", "1"]
    tmp = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        spec["out"] = os.path.join(tmp, "out.csv")
        if spec["kind"] == "cli":
            spec["config_path"] = os.path.join(tmp, "workload.cfg")
            with open(spec["config_path"], "w", encoding="utf-8") as fh:
                fh.write(workloads.config_text(spec["config"]))
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

        runs, failures, first_digest = [], [], None
        deadline = time.monotonic() + seconds
        while len(runs) < (2 * MIN_TRACE_PAIRS if trace else MIN_RUNS) or time.monotonic() < deadline:
            traced = trace and len(runs) % 2 == 1
            report = _spawn(spec_path, traced)
            problems = report["problems"] or check.check_output(spec)
            if not problems:
                digest = _output_digest(spec)
                first_digest = first_digest or digest
                if digest != first_digest:
                    problems.append("output differs from the first run with this seed")
            if not problems and traced:
                report["layers"] = _layer_metrics(report, spec)
                covered = sum(report["trace"]["layer_self_s"].values())
                if abs(covered - report["wall_s"]) > TRACE_COVERAGE_TOL * report["wall_s"]:
                    problems.append(f"layer self times sum to {covered:.4f} s of {report['wall_s']:.4f} s")
            report["traced"] = traced
            report["problems"] = problems
            runs.append(report)
            failures += problems
        # the files on disk are the last run's; a failed last run already fails the result
        recomputed = [] if runs[-1]["problems"] else check.recompute(spec, seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    good = [r for r in runs if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    samples = spec["cells"] * spec["time_points"]
    stats = {}
    if plain:
        walls = [r["wall_s"] * CAL_REF_S / r["cal_s"] for r in plain]
        stats["wall_s"] = _stats(walls)
        stats["samples_per_s"] = _stats([samples / w for w in walls])
        stats["setup_s"] = _stats([r["setup_s"] * CAL_REF_S / r["cal_s"] for r in plain])
        stats["peak_rss_mb"] = _stats([r["peak_rss_kb"] / 1024.0 for r in plain])
        stats["raw.wall_s"] = _stats([r["wall_s"] for r in plain])
        stats["raw.setup_s"] = _stats([r["setup_s"] for r in plain])
        stats["raw.cal_s"] = _stats([r["cal_s"] for r in plain])
    traced = [r["layers"] for r in good if r["traced"]]
    if trace and traced and plain:
        stats.update({key: _stats([t[key] for t in traced]) for key in traced[0]})
        untraced = stats["raw.wall_s"]["value"]
        stats["trace.overhead_s"] = _stats([t["trace.wall_s"] - untraced for t in traced])
    wanted = PER_LAYER if trace else END_TO_END
    complete = all(key in stats for key in wanted)
    failed = sum(1 for r in runs if r["problems"])
    return {
        "correct": failed == 0 and not recomputed and complete,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": stats[k]["value"], "unit": u} for k, u in wanted.items() if k in stats},
        "record": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "threads": _resolved_threads(spec),
            "inputs": {k: spec[k] for k in ("cells", "time_points", "rows")} | {"samples": samples},
            "failed_frac": failed / len(runs),
            "problems": sorted(set(failures)) + recomputed,
            "stats": {k: dict(v, unit=UNITS[k]) for k, v in stats.items()},
        } | machine_record(),
    }


def _resolved_threads(spec: dict):
    """The CLI's --threads as it resolves it (None for the library workload)."""
    if spec["kind"] != "cli":
        return None
    args = spec["extra_args"]
    return int(args[args.index("--threads") + 1]) if "--threads" in args else os.cpu_count() or 1


def _table(result: dict) -> str:
    rec = result["record"]
    lines = [f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"failed_frac={rec['failed_frac']:g}"]
    for key, s in rec["stats"].items():
        lines.append(f"{rec['workload']:9s} {key:28s} {s['value']:14.6g} {s['unit']:6s} "
                     f"n={s['n']:<3d} q1={s['q1']:.6g} q3={s['q3']:.6g}")
    return "\n".join(lines)


def _baseline(seed: int, seconds: float) -> int:
    out = {"machine": machine_record(), "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in workloads.NAMES:
        entry = {}
        for trace in (False, True):
            result = run_workload(name, seed, seconds, trace)
            print(_table(result), flush=True)
            ok &= result["correct"]
            rec = result["record"]
            entry.update(attempted=entry.get("attempted", 0) + result["attempted"],
                         failed=entry.get("failed", 0) + result["failed"],
                         inputs=rec["inputs"], threads=rec["threads"])
            entry["per_layer" if trace else "end_to_end"] = {
                k: v for k, v in rec["stats"].items() if k in (PER_LAYER if trace else END_TO_END)
            }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        out["workloads"][name] = entry
    with open(BENCH_DIR / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {BENCH_DIR / 'baseline.json'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="run every workload, write bench/baseline.json")
    args = parser.parse_args(argv)
    if not (SRC / "magbattery" / "__init__.py").is_file():
        print(f"error: no magbattery package under {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.baseline:
        return _baseline(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --baseline is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    if not result["metrics"]:
        print(f"error: no run of {args.workload} passed: {record['problems'][:3]}", file=sys.stderr)
        return 1
    print(_table(dict(result, record=record)))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
