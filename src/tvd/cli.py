"""Command line interface.

Subcommands: ``check`` runs scenario files, ``models`` emits built-in
scenarios, ``oracle`` re-derives every verdict from first principles and
compares, ``selftest`` judges seeded draws of every detector with the oracle
and replays the module invariant suites.

``check`` over several files reads and parses the later ones in one forked
child per further usable CPU (``_parse_workers``). A file the command parses
itself (``oracle``'s, or ``check``'s when there are fewer files than usable
CPUs) has its arrays' numbers decoded in one forked child per CPU the files
leave idle as well (``_decode_forked``). Every detector still runs on the
calling thread, one scenario after another, so reports and errors are those
of a one-CPU run. ``--jobs N`` is accepted and ignored.

Tolerance and seed precedence, highest first: command line flags, the
environment (``TVD_TOL_ZERO``, ``TVD_TOL_VIOLATION``, ``TVD_SEED``),
values in the scenario document, library defaults. Each command reads the
environment once, before it reads any file.

Exit codes: 0 the command ran, 1 a selftest suite failed, 2 bad input or
configuration, 3 the oracle disagreed with a verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import math
import os
import pickle
import signal
import stat
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from .builders import MODEL_NAMES, build_model_scenario
from .config import Tolerances
from .errors import ConfigError, TvdError
from .runner import oracle_compare, render_text, run_scenario
from .scenario import Report, Scenario, _decode_numbers, _parse_scenario, serialize_report, serialize_scenario
from .selftest import SUITES

ENV_TOL_ZERO = "TVD_TOL_ZERO"
ENV_TOL_VIOLATION = "TVD_TOL_VIOLATION"
ENV_SEED = "TVD_SEED"


def _env_positive_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"environment variable {name} must be a number, got {raw!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"environment variable {name} must be a positive finite number, got {raw!r}")
    return value


def _seed(args: argparse.Namespace) -> int | None:
    """The ``--seed`` flag, else ``TVD_SEED``, else None (the document's seed)."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED)
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"environment variable {ENV_SEED} must be an integer, got {raw!r}") from None


def _tolerance_overrides(args: argparse.Namespace) -> dict[str, float]:
    overrides: dict[str, float] = {}
    env_zero = _env_positive_float(ENV_TOL_ZERO)
    env_violation = _env_positive_float(ENV_TOL_VIOLATION)
    if env_zero is not None:
        overrides["tau_zero"] = env_zero
    if env_violation is not None:
        overrides["tau_violation"] = env_violation
    if args.tol_zero is not None:
        overrides["tau_zero"] = args.tol_zero
    if args.tol_violation is not None:
        overrides["tau_violation"] = args.tol_violation
    return overrides


def _at_least_one(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_shared_args(sub: argparse.ArgumentParser, with_seed: bool = True) -> None:
    sub.add_argument("--tol-zero", type=float, default=None, metavar="X",
                     help="override the zero threshold")
    sub.add_argument("--tol-violation", type=float, default=None, metavar="X",
                     help="override the violation threshold")
    if with_seed:
        sub.add_argument("--seed", type=int, default=None, metavar="N",
                         help="override the recorded seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvd",
        description="Decide whether finite-dimensional dynamical laws violate time-reversal symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the detector requests in scenario files")
    check.add_argument("--scenario", action="append", required=True, metavar="FILE",
                       help="scenario document; repeat for several")
    check.add_argument("--out", default=None, metavar="PATH",
                       help="output file, or directory when several scenarios are given")
    check.add_argument("--format", choices=("json", "text"), default="json")
    check.add_argument("--jobs", type=_at_least_one, default=1, metavar="N",
                       help="accepted and ignored: later scenario files are parsed in "
                            "one forked process per further usable CPU, CPUs left over "
                            "decode the arrays of the files the command parses itself, "
                            "and detectors run one scenario after another on the "
                            "calling thread")
    _add_shared_args(check)

    models = sub.add_parser("models", help="emit a built-in model scenario")
    models.add_argument("name", nargs="?", default=None, metavar="NAME")
    models.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="model parameter; repeat for several")
    models.add_argument("--out", default=None, metavar="FILE")
    models.add_argument("--list", action="store_true", help="list model names and exit")

    oracle = sub.add_parser("oracle", help="re-derive every verdict independently and compare")
    oracle.add_argument("--scenario", required=True, metavar="FILE")
    oracle.add_argument("--out", default=None, metavar="FILE")
    oracle.add_argument("--format", choices=("json", "text"), default="text")
    _add_shared_args(oracle)

    selftest = sub.add_parser("selftest", help="run the module invariant suites")
    selftest.add_argument("--suite", action="append", default=None, metavar="NAME",
                          choices=sorted(SUITES), help="run one suite; repeat for several")
    _add_shared_args(selftest, with_seed=False)
    return parser


def _write_payload(payload: bytes, out: str | None) -> None:
    if not out:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(payload)


def _read_scenario(path: Path, helpers: int = 0) -> Scenario:
    """Read and parse ``path``, its arrays' numbers decoded over ``helpers`` forked children as well (``_decode_forked``)."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    return _parse_scenario(data, functools.partial(_decode_forked, helpers) if helpers > 0 else None)


def _run(scenario: Scenario, seed: int | None, overrides: dict[str, float]) -> tuple[Tolerances, Report]:
    tol = scenario.effective_tolerances(**overrides)
    return tol, run_scenario(scenario, tolerances=tol, seed=seed)


def _send_parsed(paths: list[Path], fd: int) -> None:
    """Read and parse ``paths``, writing each scenario's pickle to ``fd`` as it is parsed, up to the first file that fails.

    A full pipe holds the writer until the caller takes that scenario, so a
    child is never more than one parsed file ahead of the caller.
    """
    with open(fd, "wb") as pipe:
        for path in paths:
            try:
                scenario = _read_scenario(path)
            except TvdError:
                break
            pickle.dump(scenario, pipe, pickle.HIGHEST_PROTOCOL)
            pipe.flush()


def _send_decoded(payloads: dict[str, bytes], fd: int) -> None:
    """Decode every payload, then write their numbers by placeholder (None if undecodable) to ``fd`` as one pickle.

    Nothing is written before the last payload is decoded: a pipe filled
    early would hold the writer until the caller, busy with its own share,
    came to read.
    """
    decoded = {key: _decode_numbers(payload) for key, payload in payloads.items()}
    with open(fd, "wb") as pipe:
        pickle.dump(decoded, pipe, pickle.HIGHEST_PROTOCOL)


def _fork(work: Callable[[int], None]) -> tuple[int, io.BufferedReader] | None:
    """A forked child running ``work`` on the write end of a pipe, and the read end; None if no child started."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # the child parses or decodes only: it never calls BLAS, whose threads fork did not copy
        try:
            os.close(read_fd)
            work(write_fd)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


@contextlib.contextmanager
def _forked(works: list[Callable[[int], None]]) -> Iterator[list[io.BufferedReader | None]]:
    """Yield the pipe each of ``works`` sends through from its own forked child (``_fork``), or None where none started.

    Every pipe is closed and every child killed and reaped on the way out,
    whatever ends the block: a child still working for a caller that has
    stopped reading is not waited for.
    """
    children: list[tuple[int, io.BufferedReader] | None] = []
    try:
        for work in works:
            children.append(_fork(work))
        yield [child[1] if child else None for child in children]
    finally:
        for pid, pipe in filter(None, children):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _decode_forked(helpers: int, payloads: dict[str, bytes]) -> dict[str, np.ndarray | None]:
    """Decode ``payloads`` (``_decode_numbers``) in this process and ``helpers`` forked children.

    The payloads are dealt by byte size, largest first, each to the share
    with the fewest bytes so far; this process keeps the first share and
    decodes it while the children decode theirs. A share whose child did
    not start, or whose stream is short or broken, is left out, and the
    parse decodes it itself.
    """
    shares: list[dict[str, bytes]] = [{} for _ in range(min(helpers + 1, len(payloads)))]
    sizes = [0] * len(shares)
    for key in sorted(payloads, key=lambda key: len(payloads[key]), reverse=True):
        lightest = sizes.index(min(sizes))
        shares[lightest][key] = payloads[key]
        sizes[lightest] += len(payloads[key])
    with _forked([functools.partial(_send_decoded, share) for share in shares[1:]]) as pipes:
        decoded = {key: _decode_numbers(payload) for key, payload in shares[0].items()}
        for pipe in filter(None, pipes):
            try:
                decoded.update(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                pass
    return decoded


def _is_regular(path: Path) -> bool:
    """Whether ``path`` is a regular file, and not a FIFO, a terminal or a missing file."""
    try:
        return stat.S_ISREG(path.stat().st_mode)
    except OSError:
        return False


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 without ``os.fork``, which could not use more."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _parse_workers(paths: list[Path]) -> Iterator[Callable[[int], Scenario]]:
    """Yield ``scenario(i)``, the parsed ``paths[i]``, to be asked for in path order.

    The paths are dealt round-robin into ``min(len(paths), usable CPUs)``
    runs. This process reads the first run when asked; for each later run a
    forked child (``_send_parsed``) reads and parses its regular files ahead
    of time. A file no child sent (not a regular file, or its child failed,
    died or could not start) is read here when asked, so every error comes
    from the same path as with one CPU. A file read here has its arrays
    decoded over the CPUs the runs leave idle (``_decode_forked``). Every
    child is reaped on the way out, whatever ends the block.
    """
    cpus = _usable_cpus()
    runs = min(len(paths), cpus)
    members = [[i for i in range(run, len(paths), runs) if _is_regular(paths[i])] for run in range(1, runs)]
    members = [run for run in members if run]
    with _forked([functools.partial(_send_parsed, [paths[i] for i in run]) for run in members]) as pipes:
        owners = {i: pipe for run, pipe in zip(members, pipes) if pipe is not None for i in run}

        def scenario(i: int) -> Scenario:
            pipe = owners.get(i)
            if pipe is not None and not pipe.closed:
                try:
                    return pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    # a child that failed, or died, left its stream short: it sends nothing more
                    pipe.close()
            return _read_scenario(paths[i], cpus - runs)

        yield scenario


def _render(report: Report, fmt: str) -> bytes:
    return serialize_report(report) if fmt == "json" else render_text(report).encode("utf-8")


def _cmd_check(args: argparse.Namespace) -> int:
    seed, overrides = _seed(args), _tolerance_overrides(args)
    paths = [Path(p) for p in args.scenario]
    out = Path(args.out) if args.out else None
    suffix = ".report.json" if args.format == "json" else ".report.txt"
    if out is not None:
        by_stem: dict[str, Path] = {}
        for path in paths:
            other = by_stem.setdefault(path.stem, path)
            if other is not path:
                raise ConfigError(f"scenarios {other} and {path} would both write {path.stem}{suffix} under --out")
        if len(paths) > 1 and out.exists() and not out.is_dir():
            raise ConfigError(f"--out {out} is not a directory; several scenarios need a directory")
    # Detectors run one scenario after another on this thread: BLAS already
    # spreads each product over every core, and its thread count fixes report
    # bits. Only reading and parsing, which never call BLAS, go to workers.
    with _parse_workers(paths) as scenario:
        payloads = [_render(_run(scenario(i), seed, overrides)[1], args.format) for i in range(len(paths))]

    if out is None:
        for path, payload in zip(paths, payloads):
            if args.format == "text" and len(paths) > 1:
                sys.stdout.buffer.write(f"# {path}\n".encode("utf-8"))
            sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return 0
    if len(paths) == 1 and not out.is_dir():
        out.write_bytes(payloads[0])
        return 0
    out.mkdir(parents=True, exist_ok=True)
    for path, payload in zip(paths, payloads):
        (out / (path.stem + suffix)).write_bytes(payload)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        sys.stdout.write("\n".join(MODEL_NAMES) + "\n")
        return 0
    params: dict[str, object] = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        params[key] = value
    scenario = build_model_scenario(args.name, params)
    _write_payload(serialize_scenario(scenario), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    seed, overrides = _seed(args), _tolerance_overrides(args)
    scenario = _read_scenario(Path(args.scenario), _usable_cpus() - 1)
    tol, report = _run(scenario, seed, overrides)
    records = oracle_compare(scenario, report, tol)
    _write_payload(_render(dataclasses.replace(report, oracle=records), args.format), args.out)
    return 3 if any(not rec.agreed for rec in records) else 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    tol = Tolerances(**_tolerance_overrides(args))
    names = args.suite if args.suite else list(SUITES)
    any_failed = False
    for name in names:
        result = SUITES[name](tol)
        print(f"{result.name}: {result.passed} passed, {result.failed} failed")
        for label in result.failures:
            print(f"  FAIL {label}")
        any_failed = any_failed or not result.ok
    print("selftest: FAILED" if any_failed else "selftest: OK")
    return 1 if any_failed else 0


_COMMANDS = {
    "check": _cmd_check,
    "models": _cmd_models,
    "oracle": _cmd_oracle,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # input near the float limit overflows in the checks that reject it;
        # the error line, not numpy's warnings, is what stderr should hold
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except TvdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
