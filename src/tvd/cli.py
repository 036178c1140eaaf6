"""Command line interface.

Subcommands: ``check`` runs scenario files, ``models`` emits built-in
scenarios, ``oracle`` re-derives every verdict from first principles and
compares, ``selftest`` replays the module invariant suites.

Tolerance and seed precedence, highest first: command line flags, the
environment (``TVD_TOL_ZERO``, ``TVD_TOL_VIOLATION``, ``TVD_SEED``),
values in the scenario document, library defaults.

Exit codes: 0 the command ran, 1 a selftest suite failed, 2 bad input or
configuration, 3 the oracle disagreed with a verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .builders import MODEL_NAMES, build_model_scenario
from .config import Tolerances
from .errors import ConfigError, TvdError
from .runner import oracle_compare, render_text, run_scenario
from .scenario import Report, Scenario, parse_scenario, serialize_report, serialize_scenario
from .selftest import SUITES

ENV_TOL_ZERO = "TVD_TOL_ZERO"
ENV_TOL_VIOLATION = "TVD_TOL_VIOLATION"
ENV_SEED = "TVD_SEED"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved invocation settings for check and oracle runs."""

    scenarios: tuple[Path, ...]
    out: Path | None = None
    format: str = "json"
    tolerance_overrides: dict[str, float] = dataclasses.field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.format not in ("json", "text"):
            raise ConfigError(f"format must be 'json' or 'text', got {self.format!r}")
        for key, value in self.tolerance_overrides.items():
            if not (isinstance(value, float) and math.isfinite(value) and value > 0):
                raise ConfigError(f"tolerance override {key} must be a positive finite number, got {value!r}")
        zero = self.tolerance_overrides.get("tau_zero")
        violation = self.tolerance_overrides.get("tau_violation")
        if zero is not None and violation is not None and zero >= violation:
            raise ConfigError(f"tau_zero ({zero!r}) must be below tau_violation ({violation!r})")


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


def _env_seed() -> int | None:
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
    if getattr(args, "tol_zero", None) is not None:
        overrides["tau_zero"] = args.tol_zero
    if getattr(args, "tol_violation", None) is not None:
        overrides["tau_violation"] = args.tol_violation
    return overrides


def _effective_tolerances(scenario: Scenario, overrides: dict[str, float]) -> Tolerances:
    tol = scenario.effective_tolerances()
    if overrides:
        tol = tol.replace(**overrides)
    return tol


def _effective_seed(scenario: Scenario, override: int | None) -> int | None:
    return override if override is not None else scenario.seed


def _run_config(args: argparse.Namespace, paths: list[str]) -> RunConfig:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _env_seed()
    return RunConfig(
        scenarios=tuple(Path(p) for p in paths),
        out=Path(args.out) if getattr(args, "out", None) else None,
        format=getattr(args, "format", "json"),
        tolerance_overrides=_tolerance_overrides(args),
        seed=seed,
    )


def _at_least_one(raw: str) -> int:
    value = int(raw)
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
                       help="accepted for compatibility and ignored: scenarios run one after "
                            "another, because BLAS already uses every core and its thread "
                            "count fixes report bits")
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


def _write_payload(payload: bytes, out: Path | None) -> None:
    if out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        out.write_bytes(payload)


def _run_file(path: Path, config: RunConfig) -> tuple[Scenario, Tolerances, Report]:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    scenario = parse_scenario(data)
    tol = _effective_tolerances(scenario, config.tolerance_overrides)
    report = run_scenario(scenario, tolerances=tol, seed=_effective_seed(scenario, config.seed))
    return scenario, tol, report


def _render(report: Report, fmt: str) -> bytes:
    return serialize_report(report) if fmt == "json" else render_text(report).encode("utf-8")


def _cmd_check(args: argparse.Namespace) -> int:
    config = _run_config(args, args.scenario)
    paths = config.scenarios
    suffix = ".report.json" if config.format == "json" else ".report.txt"
    if config.out is not None:
        by_stem: dict[str, Path] = {}
        for path in paths:
            other = by_stem.setdefault(path.stem, path)
            if other is not path:
                raise ConfigError(f"scenarios {other} and {path} would both write {path.stem}{suffix} under --out")
    # One scenario after another on this thread: BLAS already spreads each
    # product over every core, so scenario threads only contend with it.
    payloads = [_render(_run_file(path, config)[2], config.format) for path in paths]

    if config.out is None:
        for path, payload in zip(paths, payloads):
            if config.format == "text" and len(paths) > 1:
                sys.stdout.buffer.write(f"# {path}\n".encode("utf-8"))
            sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return 0
    if len(paths) == 1 and not config.out.is_dir():
        _write_payload(payloads[0], config.out)
        return 0
    config.out.mkdir(parents=True, exist_ok=True)
    for path, payload in zip(paths, payloads):
        (config.out / (path.stem + suffix)).write_bytes(payload)
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
    _write_payload(serialize_scenario(scenario), Path(args.out) if args.out else None)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = _run_config(args, [args.scenario])
    scenario, tol, report = _run_file(config.scenarios[0], config)
    records = oracle_compare(scenario, report, tol)
    _write_payload(_render(dataclasses.replace(report, oracle=records), config.format), config.out)
    return 3 if any(not rec.agreed for rec in records) else 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    overrides = _tolerance_overrides(args)
    tol = Tolerances().replace(**overrides) if overrides else Tolerances()
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
