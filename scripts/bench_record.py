#!/usr/bin/env python3
"""Record the benchmark as the next BENCH_<n>.json at the repository root.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py --seed 0

Runs ``python3 perfbench/run.py`` on every workload that ``BENCHMARK.json``
declares, once with ``--trace 0`` (end-to-end metrics) and once with
``--trace 1`` (per-layer metrics), each for the declared run length. The
file holds the git revision, the seed, the machine facts and, for each run,
its metrics, correctness counts, digest check and ``info`` line. Runs one
after another, so nothing else should be running on the machine. Writes no
file if any run fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record: dict = {
        "revision": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seed": args.seed,
        "run_seconds": benchmark["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            runs[kind] = run_bench(workload, args.seed, benchmark["run_seconds"], trace)
        record["workloads"][workload] = runs
    record["machine"] = runs["end_to_end"]["info"]["machine"]
    bad = [f"{w} {kind}: {run['info']['problems']}" for w, runs in record["workloads"].items()
           for kind, run in runs.items() if not run["correct"] or run["failed"]]
    if bad:
        print("not recorded, a run failed its correctness gate:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    path = next_path()
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
