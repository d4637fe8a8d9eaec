"""One benchmark run in a fresh interpreter.

    python3 bench/worker.py SPEC_JSON [--trace]

Times a fixed calibration kernel, imports magbattery (from PYTHONPATH),
resolves the workload's configuration, then calls the entry point once:
`cli.main` for the CLI workloads, or the evolve-versus-oracle comparison for
the library workload.  Prints one JSON line: the monotonic clock reading when
set-up ended (the parent subtracts its spawn time and the calibration time),
the calibration time, the import time, the wall time of the entry call, the
exit code, the peak resident set size (VmHWM) and, with --trace, the span summary.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# A fixed mix of the work the workloads do: compiling Python, interpreting
# Python, and small numpy calls on 4-vectors.
_CAL_SOURCE = "\n".join(
    f"def f{i}(x, y=2):\n    return [x * y + {i} for _ in range(3)] if x else {{'k': {i}}}\n"
    for i in range(200)
)


def calibrate() -> float:
    """Seconds this process takes for the fixed calibration kernel right now.

    Run before the package is imported, so nothing the program does can
    change it; the parent scales the run's times by it to remove the drift
    of machine speed between runs.
    """
    t0 = time.perf_counter()
    for _ in range(2):
        compile(_CAL_SOURCE, "<calibration>", "exec")
    s = 0
    for i in range(250_000):
        s += i * i % 7
    m = np.full((4, 4), 0.1 + 0.05j)
    z = np.ones(4, dtype=complex)
    for _ in range(10_000):
        z = m @ z
        z = z / abs(z[0])
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """High-water resident set size of this process image.

    getrusage's ru_maxrss is not used: Linux carries the parent's high-water
    mark across fork and exec, so it can report the spawning process instead.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def oracle_entry(magbattery, params, grid, out: str) -> int:
    """Max |evolve - oracle_integrate| over the amplitudes, one CSV row per draw."""
    lines = ["draw,max_abs_diff"]
    for i, p in enumerate(params):
        fast = magbattery.evolve(p, grid).amplitudes
        slow = magbattery.oracle_integrate(p, grid).amplitudes
        lines.append(f"{i},{float(np.max(np.abs(fast - slow))):.12g}")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def setup(magbattery, spec: dict):
    """Resolve the workload's inputs as the program would; return the entry call."""
    if spec["kind"] == "cli":
        cli = magbattery.cli
        cfg = cli.parse_config_file(spec["config_path"])
        cli.build_params(cfg)
        cli.build_vary(cfg, "vary")
        cli.build_vary(cfg, "vary2")
        magbattery.time_grid(float(cfg["t_max"]), float(cfg["dt"]))
        argv = [spec["command"], "--config", spec["config_path"], "--out", spec["out"]]
        argv += spec["extra_args"]
        return lambda: cli.main(argv)
    # numpy scalars, as acceptance criterion 1 draws them
    params = [
        magbattery.SystemParams.from_detunings(
            d1, d2, d3, g_a=ga, g_b=gb, lam=lam, kappa_a=ka, kappa_b=kb, kappa_m=km, gamma=gam
        )
        for d1, d2, d3, ga, gb, lam, ka, kb, km, gam in np.array(spec["draws"], dtype=float)
    ]
    grid = np.linspace(0.0, spec["t_max"], spec["time_points"])
    return lambda: oracle_entry(magbattery, params, grid, spec["out"])


def main(argv: list[str]) -> int:
    cal_s = calibrate()
    t0 = time.monotonic()
    import magbattery
    import magbattery.cli

    report = {"cal_s": cal_s, "import_s": time.monotonic() - t0}
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    entry = setup(magbattery, spec)
    report["setup_done"] = time.monotonic()
    if "--trace" in argv[1:]:
        from spans import Recorder

        recorder = Recorder()
        with recorder.installed(magbattery):
            root = recorder.wrap("bench:entry", entry)
            t0 = time.perf_counter()
            rc = root()
            report["wall_s"] = time.perf_counter() - t0
        report["trace"] = recorder.summary()
    else:
        t0 = time.perf_counter()
        rc = entry()
        report["wall_s"] = time.perf_counter() - t0
    report["rc"] = rc
    report["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
