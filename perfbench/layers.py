"""The traced in-process pass: the same calls the CLI makes, timed per layer.

Spans sit in the benchmark's own code, around calls into the public
functions of each ``tvd`` module. The check path mirrors ``tvd check``
(parse, one ``run_request`` per request, ``Report``, ``serialize_report``)
and the oracle path mirrors ``tvd oracle``, so the bytes it returns must
equal the CLI's.
"""

from __future__ import annotations

import dataclasses
import json
import statistics

from tvd import (
    DEFAULT_TOLERANCES,
    MODEL_NAMES,
    SUITES,
    Provenance,
    Report,
    VIOLATION,
    VerdictRecord,
    build_model_scenario,
    herm_eig,
    mat_exp,
    parse_scenario,
    render_text,
    run_request,
    run_scenario,
    serialize_report,
    serialize_scenario,
)
from tvd.runner import oracle_record

from spans import Tracer
from workloads import Workload

DETECTORS = ("unitary_curie", "scattering_curie", "s_matrix_inference", "kabir", "cpt_link", "wigner")
OUTCOMES = ("violation", "premise_unmet", "below_threshold", "indeterminate")
# a spin-63/2 dipole model (dim 64) next to the six defaults
LARGE_EDM = {"j": "63/2"}


def check_path(docs: dict[str, bytes], tracer: Tracer) -> dict[str, bytes]:
    reports = {}
    for stem in sorted(docs):
        with tracer.span("bench.check", stem):
            with tracer.span("scenario.parse", stem):
                scenario = parse_scenario(docs[stem])
            tol = scenario.effective_tolerances()
            records = []
            for i, request in enumerate(scenario.requests):
                with tracer.span(f"runner.run_request.{request.detector}", f"{stem}#{i}"):
                    verdict = run_request(scenario, request, tol)
                records.append(VerdictRecord(detector=request.detector, verdict=verdict))
            report = Report(records=tuple(records), provenance=Provenance(tolerances=tol, seed=scenario.seed))
            with tracer.span("scenario.serialize_report", stem):
                reports[stem] = serialize_report(report)
    return reports


def oracle_path(docs: dict[str, bytes], stems: tuple[str, ...], tracer: Tracer) -> dict[str, bytes]:
    reports = {}
    for stem in stems:
        with tracer.span("bench.oracle", stem):
            with tracer.span("scenario.parse", stem):
                scenario = parse_scenario(docs[stem])
            tol = scenario.effective_tolerances()
            with tracer.span("runner.run_scenario", stem):
                report = run_scenario(scenario, tolerances=tol, seed=scenario.seed)
            records = []
            for i, (request, rec) in enumerate(zip(scenario.requests, report.records)):
                with tracer.span(f"runner.oracle_record.{request.detector}", f"{stem}#{i}"):
                    records.append(oracle_record(scenario, request, rec.verdict, tol))
            full = dataclasses.replace(report, oracle=tuple(records))
            with tracer.span("scenario.serialize_report", stem):
                reports[stem] = serialize_report(full)
            with tracer.span("runner.render_text", stem):
                render_text(full)
    return reports


def _probe_linalg(workload: Workload, tracer: Tracer) -> None:
    for stem, scenario in sorted(workload.generated.items()):
        h = scenario.matrices["hamiltonian"]
        with tracer.span("linalg.herm_eig", stem):
            herm_eig(h, tol=scenario.effective_tolerances())
        for i, request in enumerate(scenario.requests):
            if request.detector == "unitary_curie":
                with tracer.span("linalg.mat_exp", f"{stem}#{i}"):
                    mat_exp(h, -1j * float(request.params["time"]))


def _build_models(tracer: Tracer) -> None:
    for name, params in [(name, None) for name in MODEL_NAMES] + [("edm", LARGE_EDM)]:
        with tracer.span("models.build_model_scenario", name):
            build_model_scenario(name, params)


def _run_selftest(tracer: Tracer) -> list[str]:
    failed = []
    for name, suite in SUITES.items():
        with tracer.span(f"selftest.{name}"):
            result = suite(DEFAULT_TOLERANCES)
        if not result.ok:
            failed.append(name)
    return failed


@dataclasses.dataclass
class PassResult:
    tracer: Tracer
    docs: dict[str, bytes]
    check: dict[str, bytes]
    oracle: dict[str, bytes]
    selftest_failed: list[str]


def traced_pass(workload: Workload, shipped_docs: dict[str, bytes]) -> PassResult:
    tracer = Tracer()
    docs = dict(shipped_docs)
    for stem, scenario in sorted(workload.generated.items()):
        with tracer.span("scenario.serialize_scenario", stem):
            docs[stem] = serialize_scenario(scenario)
    check = check_path(docs, tracer)
    oracle = oracle_path(docs, workload.oracle_stems, tracer)
    _probe_linalg(workload, tracer)
    _build_models(tracer)
    failed = _run_selftest(tracer)
    return PassResult(tracer, docs, check, oracle, failed)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no such percentile exists and the maximum is
    reported at 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def outcome_counts(reports: dict[str, bytes]) -> dict[str, int]:
    counts = dict.fromkeys(OUTCOMES, 0)
    for blob in reports.values():
        for rec in json.loads(blob)["records"]:
            key = "violation" if rec["outcome"] == VIOLATION else rec["reason"].replace("-", "_")
            counts[key] += 1
    return counts


def layer_metrics(result: PassResult, workload: Workload) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced pass, as ``name -> (value, unit)``."""
    t = result.tracer
    generated_bytes = sum(len(result.docs[stem]) for stem in workload.generated)
    parse_s = t.total("scenario.parse", parent="bench.check")
    check_bytes = sum(len(b) for b in result.docs.values())
    serialize_s = t.total("scenario.serialize_scenario")
    report_s = t.total("scenario.serialize_report", parent="bench.check")
    requests = [d for det in DETECTORS for d in t.durations(f"runner.run_request.{det}")]
    tail_ms, tail_pct = tail([1e3 * d for d in requests])
    m: dict[str, tuple[float, str]] = {
        "scenario.parse_s": (parse_s, "s"),
        "scenario.parse_mb_per_s": (check_bytes / 1e6 / parse_s, "MB/s"),
        "scenario.serialize_scenario_s": (serialize_s, "s"),
        "scenario.serialize_scenario_mb_per_s": (generated_bytes / 1e6 / serialize_s, "MB/s"),
        "scenario.serialize_report_s": (report_s, "s"),
        "scenario.report_kb": (sum(len(b) for b in result.check.values()) / 1024.0, "KiB"),
        "runner.request_ms_p50": (1e3 * statistics.median(requests), "ms"),
        "runner.request_ms_tail": (tail_ms, "ms"),
        "runner.request_tail_pct": (tail_pct, "%"),
        "runner.request_samples": (float(len(requests)), "count"),
        "runner.render_text_s": (t.total("runner.render_text"), "s"),
        "linalg.herm_eig_s": (t.total("linalg.herm_eig"), "s"),
        "linalg.mat_exp_s": (t.total("linalg.mat_exp"), "s"),
        "models.build_model_scenario_s": (t.total("models.build_model_scenario"), "s"),
    }
    for det in DETECTORS:
        m[f"runner.run_request_s.{det}"] = (t.total(f"runner.run_request.{det}"), "s")
        m[f"runner.requests.{det}"] = (float(len(t.durations(f"runner.run_request.{det}"))), "count")
        m[f"runner.oracle_record_s.{det}"] = (t.total(f"runner.oracle_record.{det}"), "s")
    for key, count in outcome_counts(result.check).items():
        m[f"runner.outcome.{key}"] = (float(count), "count")
    for name in SUITES:
        m[f"selftest.{name}_s"] = (t.total(f"selftest.{name}"), "s")
    for layer, seconds in sorted(t.self_times().items()):
        m[f"trace.self_s.{layer}"] = (seconds, "s")
    return m


def check_path_seconds(result: PassResult) -> float:
    """In-process parse, run and serialize time of the check path."""
    return result.tracer.total(parent="bench.check")
