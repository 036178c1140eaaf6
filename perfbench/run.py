#!/usr/bin/env python3
"""Benchmark of the ``tvd`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 15 --trace 0

The benchmark generates the workload's scenario documents from the seed
and drives the real CLI (``python -m tvd.cli`` with ``src`` on the path)
as a closed loop with one client: each command starts only after the
previous one ended. Rounds of bare launches, ``check`` and ``oracle``,
with file writes between them, repeat until ``--seconds`` have passed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` it holds the per-layer metrics: one untraced round,
two extra ``check`` runs at ``--jobs 1`` and ``--jobs 2``, one
``tvd selftest``, and a traced
in-process pass that times calls into each ``tvd`` module and writes its
spans to ``.perfbench_out/``.

Every report the CLI writes must equal, byte for byte, the report built
in process from the generated scenario objects; at the default seed the
reports must also match the digests in ``digests.json``. An operation
(one file under ``check`` or one under ``oracle``) fails on an
unexpected exit code, differing bytes or an oracle disagreement.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("small_batch", "dense_io", "sweep")
SETUP_PER_ROUND = 4
MIN_ROUNDS = 2
IMPORT_PROBES = 5
# recorded as found, never set: they change --jobs results and report bits
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# recorded as found: without bytecode files every launch compiles tvd
PYTHON_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE")
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import tvd; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


@dataclass
class Launch:
    wall: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def outcome(self) -> str:
        last = self.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {self.code}" + (f" ({last[0]})" if last else "")


class Cli:
    """Starts ``python -m tvd.cli`` from the checkout, one process at a time."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(self, *args: str) -> Launch:
        return self.python("-m", "tvd.cli", *args)

    def python(self, *args: str) -> Launch:
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env, stdout=out, stderr=err)
            # wait4 reaps the child and returns its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())


@dataclass
class Gate:
    """Operations attempted and failed, plus any other correctness finding."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(label)

    def problem(self, label: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(label)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except Exception as exc:  # numpy builds differ in what they expose
        blas = {"unavailable": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {name: os.environ[name] for name in BLAS_ENV if name in os.environ},
    }


class Bench:
    def __init__(self, workload, work: Path, gate: Gate) -> None:
        import workloads

        self.wl = workload
        self.work = work
        self.gate = gate
        self.cli = Cli(work)
        self.ref = workloads.reference(workload)
        self.paths = {stem: work / "in" / f"{stem}.json" for stem in workload.generated}
        self.paths.update(workload.shipped)
        # files are written in turn across rounds, so each gets its share
        self.write_order = itertools.cycle(sorted(workload.generated))
        (work / "in").mkdir(parents=True)
        for stem in workload.generated:
            self.write(stem)

    def setup(self, launches: int) -> list[float]:
        """Wall times of bare ``tvd models --list`` processes."""
        from tvd import MODEL_NAMES

        expected = ("\n".join(MODEL_NAMES) + "\n").encode()
        walls = []
        for _ in range(launches):
            launch = self.cli.run("models", "--list")
            if launch.code != 0 or launch.stdout != expected:
                self.gate.problem(f"models --list: {launch.outcome}")
            walls.append(launch.wall)
        return walls

    def write(self, stem: str) -> float:
        """One file: ``serialize_scenario`` plus the file write."""
        from tvd import serialize_scenario

        start = time.perf_counter()
        self.paths[stem].write_bytes(serialize_scenario(self.wl.generated[stem]))
        return time.perf_counter() - start

    def check(self, jobs: int) -> Launch:
        out = self.work / f"out-jobs{jobs}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        args = ["check", "--jobs", str(jobs), "--out", str(out.relative_to(ROOT))]
        for stem in sorted(self.paths):
            args += ["--scenario", str(self.paths[stem].relative_to(ROOT))]
        launch = self.cli.run(*args)
        for stem in sorted(self.paths):
            report = out / f"{stem}.report.json"
            got = report.read_bytes() if report.is_file() else None
            self.gate.op(launch.code == 0 and got == self.ref.check[stem], f"check --jobs {jobs} {stem}: {launch.outcome}")
        return launch

    def oracle(self, stem: str) -> float:
        launch = self.cli.run("oracle", "--scenario", str(self.paths[stem].relative_to(ROOT)), "--format", "json")
        # exit 3 is an oracle disagreement, which fails the operation too
        self.gate.op(launch.code == 0 and launch.stdout == self.ref.oracle[stem], f"oracle {stem}: {launch.outcome}")
        return launch.wall

    def selftest(self) -> float:
        launch = self.cli.run("selftest")
        if launch.code != 0 or not launch.stdout.endswith(b"selftest: OK\n"):
            self.gate.problem(f"selftest: {launch.outcome}")
        return launch.wall

    def round(self) -> dict:
        """Bare launches, one ``check`` and every ``oracle``, with the
        round's file writes spread evenly between the launches."""
        launches = SETUP_PER_ROUND + 1 + len(self.wl.oracle_stems)
        writes = self.wl.writes_per_round or len(self.wl.generated)
        write = {stem: [] for stem in self.wl.generated}

        def write_before(i: int) -> None:
            for _ in range(writes * (i + 1) // launches - writes * i // launches):
                stem = next(self.write_order)
                write[stem].append(self.write(stem))

        setup = []
        for i in range(SETUP_PER_ROUND):
            write_before(i)
            setup += self.setup(1)
        write_before(SETUP_PER_ROUND)
        check = self.check(self.wl.jobs)
        oracle = {}
        for i, stem in enumerate(self.wl.oracle_stems, SETUP_PER_ROUND + 1):
            write_before(i)
            oracle[stem] = self.oracle(stem)
        return {"setup": setup, "write": write, "check_s": check.wall, "oracle": oracle, "peak_rss_mb": check.rss_mb}

    def import_probe(self) -> tuple[float, float]:
        numpy_s, tvd_s = [], []
        for _ in range(IMPORT_PROBES):
            launch = self.cli.python("-c", IMPORT_PROBE)
            if launch.code != 0:
                self.gate.problem(f"import probe: {launch.outcome}")
                return float("nan"), float("nan")
            a, b = launch.stdout.split()
            numpy_s.append(float(a))
            tvd_s.append(float(b))
        return statistics.median(numpy_s), statistics.median(tvd_s)


def end_to_end(bench: Bench, seconds: float) -> tuple[dict[str, tuple[float, str]], list[dict]]:
    """As many rounds as fit in ``seconds``, at least ``MIN_ROUNDS``.

    Neighbouring load on a shared machine only ever adds time, and it
    comes in phases, so each timing is the fastest of its samples:
    per invocation for ``check_s``, and per file, then summed, for
    ``oracle_s`` and ``write_s``. Set-up time is
    the median of every bare launch and peak RSS the median over rounds.
    """
    bench.setup(1)  # untimed; writes bytecode files where Python may
    start = time.perf_counter()
    rounds = []
    # stop before a round that would end past the deadline, so a run
    # lasts about ``seconds`` however fast or slow the machine is
    while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(bench.round())

    check_s = min(r["check_s"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(w for r in rounds for w in r["setup"]), "s"),
        "check_s": (check_s, "s"),
        "oracle_s": (sum(min(r["oracle"][stem] for r in rounds) for stem in bench.wl.oracle_stems), "s"),
        "write_s": (sum(min(w for r in rounds for w in r["write"][stem]) for stem in bench.wl.generated), "s"),
        "requests_per_s": (bench.wl.request_count / check_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return metrics, rounds


def per_layer(bench: Bench, trace_path: Path) -> dict[str, tuple[float, str]]:
    import layers

    workload = bench.wl
    bench.setup(1)
    setup_s = statistics.median(bench.round()["setup"])
    jobs1 = bench.check(1)
    jobs2 = bench.check(bench.wl.jobs)
    numpy_s, tvd_s = bench.import_probe()
    selftest_s = bench.selftest()

    docs = {stem: path.read_bytes() for stem, path in bench.paths.items()}
    # the check path alone, untraced and traced by turns, twice each, so
    # that the overhead estimate does not depend on which ran first
    walls: dict[type, list[float]] = {NullTracer: [], Tracer: []}
    for tracer_type in (NullTracer, Tracer, NullTracer, Tracer):
        start = time.perf_counter()
        layers.check_path(docs, tracer_type())
        walls[tracer_type].append(time.perf_counter() - start)
    result = layers.traced_pass(workload, {stem: docs[stem] for stem in workload.shipped})
    for kind, got, want in (("check", result.check, bench.ref.check), ("oracle", result.oracle, bench.ref.oracle)):
        for stem in sorted(want):
            bench.gate.op(got.get(stem) == want[stem], f"traced {kind} {stem}")
    if result.selftest_failed:
        bench.gate.problem(f"selftest suites failed in process: {result.selftest_failed}")
    result.tracer.write(trace_path)

    metrics = layers.layer_metrics(result, workload)
    metrics.update({
        "import.numpy_s": (numpy_s, "s"),
        "import.tvd_s": (tvd_s, "s"),
        "cli.jobs_speedup": (jobs1.wall / jobs2.wall, "ratio"),
        "cli.selftest_s": (selftest_s, "s"),
        "cli.unaccounted_s": (jobs2.wall - setup_s - layers.check_path_seconds(result), "s"),
        "trace.overhead_frac": (min(walls[Tracer]) / min(walls[NullTracer]) - 1.0, "ratio"),
    })
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tvd" / "__init__.py").is_file():
        print(f"error: no tvd package under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.generate(args.workload, args.seed, tiny=args.size == "tiny")
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    gate = Gate()
    try:
        bench = Bench(workload, work, gate)
        digest_check = "not at this seed or size"
        if args.seed == workloads.DEFAULT_SEED and args.size == "full":
            stored = json.loads(DIGESTS.read_text())
            # report bits depend on the BLAS build and thread count, so the
            # digests hold only on the machine they were recorded on
            if stored["machine"] != machine_facts():
                digest_check = "skipped: machine facts differ from the recorded ones"
            elif bench.ref.digest() != stored["digests"][args.workload]:
                digest_check = "failed"
                gate.problem(f"reports differ from the digest stored for seed {args.seed}")
            else:
                digest_check = "passed"
        if args.trace:
            trace_path = TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = per_layer(bench, trace_path)
            rounds = []
        else:
            metrics, rounds = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "requests": workload.request_count,
        "files": len(bench.paths),
        "dims": workload.dims,
        "jobs": workload.jobs,
        "machine": machine_facts(),
        "python_env": {name: os.environ[name] for name in PYTHON_ENV if name in os.environ},
        "digest_check": digest_check,
        # per round, the fastest write of each file, summed
        "rounds": [{**r, "write": sum(map(min, r["write"].values()))} for r in rounds],
        "problems": gate.problems,
    }
    print(json.dumps({"info": info}))
    for problem in gate.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
