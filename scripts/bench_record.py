#!/usr/bin/env python3
"""Record the benchmark as the next BENCH_<n>.json at the repository root.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py --seed 0

Runs ``python3 perfbench/run.py`` on every workload that ``BENCHMARK.json``
declares, once with ``--trace 0`` (end-to-end metrics) and once with
``--trace 1`` (per-layer metrics), each for the declared run length. The
file holds the git revision, the seed, the machine facts and, for each run,
its metrics, correctness counts, digest check and ``info`` line. It also
records whether ``src/tvd/__pycache__`` existed when it started: under
``PYTHONDONTWRITEBYTECODE=1`` a checkout holding bytecode from an earlier run
starts each CLI launch faster than one that compiles every time. Runs one
after another, so nothing else should be running on the machine. Writes no
file if any run fails its correctness gate.

``perfbench/run.py`` reports ``peak_rss_mb`` through ``os.wait4`` from its
own process, and a child it starts carries that process's high-water RSS
until exec, so the metric is the larger of the benchmark process and the
CLI. Beside it, each workload gets ``cli_peak_rss_mb``: the most of three
``tvd check`` runs over the workload's files, each started from a bare
``python -S`` helper, which is the CLI's own peak. The ``ru_maxrss`` that
``wait4`` returns is the largest single process among the CLI and the parse
workers it forked and reaped, not their sum: the memory that the CLI and
its workers hold at the same time is not measured.

Each workload also gets ``calibration_eigh_s``, taken just before its runs:
the fastest of five ``np.linalg.eigh`` calls on one seeded dim-256 Hermitian
matrix. The work is the same on every commit, so comparing it between BENCH
files tells a slow phase of the machine from a slower change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ((0, "end_to_end"), (1, "per_layer"))
CLI_PEAK_RUNS = 3
CALIBRATION_RUNS = 5
# started by a small process, the CLI's ru_maxrss is its own, not its parent's
WAIT4_HELPER = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ, "
    "file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return {
        "digest_check": info["digest_check"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "info": info,
    }


def cli_peak_rss_mb(workload: str, seed: int) -> float:
    """Peak RSS of ``tvd check`` over the workload's files, in MB, the most of ``CLI_PEAK_RUNS`` runs."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
        from tvd import serialize_scenario

        wl = workloads.generate(workload, seed)
    finally:
        del sys.path[:2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        paths = dict(wl.shipped)
        for stem, scenario in wl.generated.items():
            paths[stem] = Path(tmp) / f"{stem}.json"
            paths[stem].write_bytes(serialize_scenario(scenario))
        args = ["check", "--out", str(Path(tmp) / "out")]
        for stem in sorted(paths):
            args += ["--scenario", str(paths[stem])]
        peaks = []
        for _ in range(CLI_PEAK_RUNS):
            proc = subprocess.run([sys.executable, "-S", "-c", WAIT4_HELPER, "-m", "tvd.cli", *args],
                                  cwd=ROOT, env=env, capture_output=True, text=True)
            # the helper prints the CLI's exit code and its ru_maxrss in KiB
            if proc.returncode != 0 or not proc.stdout.startswith("0 "):
                raise SystemExit(f"tvd check on {workload}: {proc.stdout.strip()}\n{proc.stderr}")
            peaks.append(int(proc.stdout.split()[1]) / 1024.0)
    return max(peaks)


def calibration_eigh_s() -> float:
    """The fastest of ``CALIBRATION_RUNS`` timed ``np.linalg.eigh`` calls on one seeded dim-256 Hermitian matrix."""
    import numpy as np

    rng = np.random.default_rng(0)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    h = (g + g.conj().T) / 2
    best = math.inf
    for _ in range(CALIBRATION_RUNS):
        start = time.perf_counter()
        np.linalg.eigh(h)
        best = min(best, time.perf_counter() - start)
    return best


def next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    pycache = (ROOT / "src" / "tvd" / "__pycache__").is_dir()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record: dict = {
        "revision": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seed": args.seed,
        "pycache_at_start": pycache,
        "run_seconds": benchmark["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {"calibration_eigh_s": calibration_eigh_s()}
        for trace, kind in KINDS:
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            runs[kind] = run_bench(workload, args.seed, benchmark["run_seconds"], trace)
        print(f"{workload} cli peak ...", file=sys.stderr, flush=True)
        runs["cli_peak_rss_mb"] = cli_peak_rss_mb(workload, args.seed)
        record["workloads"][workload] = runs
    record["machine"] = runs["end_to_end"]["info"]["machine"]
    bad = [f"{w} {kind}: {runs[kind]['info']['problems']}" for w, runs in record["workloads"].items()
           for _, kind in KINDS if not runs[kind]["correct"] or runs[kind]["failed"]]
    if bad:
        print("not recorded, a run failed its correctness gate:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    path = next_path()
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
