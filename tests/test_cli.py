import dataclasses
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from conftest import assert_no_children, count_forks

from tvd import (
    DETECTORS,
    Provenance,
    Report,
    Request,
    Tolerances,
    VerdictRecord,
    Verdict,
    build_model_scenario,
    oracle_compare,
    parse_scenario,
    run_scenario,
    serialize_scenario,
    shipped_scenario_paths,
)
import tvd._workers
import tvd.cli
import tvd.scenario
import tvd.selftest
from tvd import runner
from tvd.cli import main
from tvd.linalg import _frozen_bytes, random_hermitian
from tvd.selftest import SUITES, SuiteResult

KAON_DECAY = shipped_scenario_paths()["kaon_decay"]
CPT_LINK = shipped_scenario_paths()["cpt_link_toy"]
REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsysbinary, *argv):
    code = main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def test_check_writes_canonical_report_to_stdout(capsysbinary):
    code, out, err = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY))
    assert code == 0
    assert err == b""
    doc = json.loads(out)
    assert doc["records"][0]["outcome"] == "Violation"
    assert doc["records"][0]["margin"] == pytest.approx(0.2)
    assert doc["records"][1]["outcome"] == "Violation"
    assert doc["records"][1]["violated_symmetry"] == "CP on H"


def test_check_output_is_byte_deterministic(capsysbinary):
    _, first, _ = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY))
    _, second, _ = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY))
    assert first == second


def test_check_text_format_includes_witness_summary(capsysbinary):
    code, out, _ = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY), "--format", "text")
    assert code == 0
    lines = out.decode().splitlines()
    verdict_lines = [ln for ln in lines if ln.startswith("[")]
    assert len(verdict_lines) == 2
    assert "Violation" in verdict_lines[0]
    assert "margin=" in verdict_lines[0]
    assert "|" in verdict_lines[0]


def test_text_witness_summary_prints_a_bool_as_a_bool():
    verdict = Verdict.no_conclusion("premise-unmet", witness={"applicable": False, "count": 2, "note": "n"})
    report = Report(records=(VerdictRecord("wigner", verdict),), provenance=Provenance(Tolerances(), None))
    assert runner.render_text(report) == (
        "[0] wigner: NoConclusion(premise-unmet) margin=0.000000e+00 | applicable=False, count=2, note='n'\n"
    )


def test_check_missing_file_names_the_path(capsysbinary):
    code, _, err = run_cli(capsysbinary, "check", "--scenario", "/no/such/scenario.json")
    assert code == 2
    assert b"error:" in err
    assert b"/no/such/scenario.json" in err


def test_check_integer_too_large_for_a_float_is_bad_input(tmp_path, capsysbinary):
    doc = json.loads(KAON_DECAY.read_bytes())
    doc["matrices"]["smatrix"][0][1] = [10**400, 0]
    target = tmp_path / "overflow.json"
    target.write_text(json.dumps(doc))
    code, out, err = run_cli(capsysbinary, "check", "--scenario", str(target))
    assert code == 2
    assert out == b""
    assert err == b"error: matrices.smatrix[0][1]: complex entries must hold finite numbers\n"


# H = diag(1e308, -1e308) is finite and Hermitian, but both commutant margins
# overflow to inf / inf = nan
NAN_MARGIN_SCENARIO = {
    "dim": 2,
    "matrices": {"hamiltonian": [[[1e308, 0], [0, 0]], [[0, 0], [-1e308, 0]]]},
    "requests": [{"cp_symmetry": "CP", "cpt_symmetry": "CPT", "detector": "cpt_link"}],
    "schema_version": 1,
    "symmetries": [
        {"antilinear": False, "label": "CP", "unitary_part": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        {"antilinear": True, "label": "CPT", "unitary_part": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]},
    ],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["check"], ["oracle", "--format", "text"]], ids=["check", "oracle"])
def test_non_finite_deciding_quantity_is_bad_input(tmp_path, capsysbinary, argv):
    target = tmp_path / "nan_margin.json"
    target.write_text(json.dumps(NAN_MARGIN_SCENARIO))
    got = run_cli(capsysbinary, *argv, "--scenario", str(target))
    assert got == (2, b"", b"error: requests[0]: cpt_margin is not finite (nan)\n")


# the same H overflows (H + H^dag) / 2 in the eigendecomposition, and the
# Pade propagator exp(-itH) or the 1-norm of tH that sizes it
OVERFLOWING_SPECTRUM = {
    "wigner": (
        {"detector": "wigner", "symmetry": "K"},
        {"antilinear": True, "label": "K", "unitary_part": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        b"error: requests[0]: the spectrum is not finite: the Hermitian part overflows\n",
    ),
    "unitary_curie": (
        {"detector": "unitary_curie", "state": "up", "symmetry": "R", "time": 1.0},
        {"antilinear": False, "label": "R", "unitary_part": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        b"error: requests[0]: final state at time 1 is not finite: the propagator exp(-itH) overflows\n",
    ),
    # at t = 2.5 the 1-norm of tH itself overflows, before any Pade step
    "unitary_curie_norm": (
        {"detector": "unitary_curie", "state": "up", "symmetry": "R", "time": 2.5},
        {"antilinear": False, "label": "R", "unitary_part": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        b"error: requests[0]: final state at time 2.5 is not finite: the propagator exp(-itH) overflows\n",
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("detector", sorted(OVERFLOWING_SPECTRUM))
@pytest.mark.parametrize("argv", [["check"], ["oracle", "--format", "text"]], ids=["check", "oracle"])
def test_overflowing_hamiltonian_is_bad_input(tmp_path, capsysbinary, argv, detector):
    request, symmetry, err = OVERFLOWING_SPECTRUM[detector]
    doc = {
        "dim": 2,
        "matrices": NAN_MARGIN_SCENARIO["matrices"],
        "requests": [request],
        "schema_version": 1,
        "states": {"up": [[1, 0], [0, 0]]},
        "symmetries": [symmetry],
    }
    target = tmp_path / "overflow.json"
    target.write_text(json.dumps(doc))
    assert run_cli(capsysbinary, *argv, "--scenario", str(target)) == (2, b"", err)


# H = [[1, 0.5], [0.5, 1]] commutes with the swap R, yet at t = 1e18 the Pade
# propagator amplifies rounding far past unit norm (by how much depends on
# the BLAS kernels) and at t = 1e20 it collapses to the zero matrix, which
# would read as a Violation with final_deviation 0
COLLAPSING_PROPAGATOR = {
    "dim": 2,
    "matrices": {"hamiltonian": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]},
    "schema_version": 1,
    "states": {"up": [[1, 0], [0, 0]]},
    "symmetries": [{"antilinear": False, "label": "R", "unitary_part": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}],
}
NOT_UNITARY = (
    rb"error: requests\[0\]: final state at time %s is not normalized \(deviation %s\): "
    rb"the propagator exp\(-itH\) is not unitary\n"
)


@pytest.mark.parametrize(
    "time, err",
    [
        (1e18, NOT_UNITARY % (rb"1e\+18", rb"\d\.\d{3}e\+\d\d")),
        (1e20, NOT_UNITARY % (rb"1e\+20", rb"1\.000e\+00")),
    ],
    ids=["1e18", "1e20"],
)
@pytest.mark.parametrize("argv", [["check"], ["oracle", "--format", "text"]], ids=["check", "oracle"])
def test_propagator_that_loses_the_norm_is_bad_input(tmp_path, capsysbinary, argv, time, err):
    request = {"detector": "unitary_curie", "state": "up", "symmetry": "R", "time": time}
    doc = dict(COLLAPSING_PROPAGATOR, requests=[request])
    target = tmp_path / "collapse.json"
    target.write_text(json.dumps(doc))
    code, out, got = run_cli(capsysbinary, *argv, "--scenario", str(target))
    assert (code, out) == (2, b"")
    assert re.fullmatch(err, got), got


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "section, key, err",
    [
        ("states", "kaon_long", b"error: states.kaon_long: state is not normalized (deviation inf)\n"),
        (
            "symmetries",
            0,
            b"error: symmetries[0].unitary_part: unitary_part of CP is not unitary (deviation nan)\n",
        ),
    ],
    ids=["state", "unitary_part"],
)
def test_entry_near_the_float_limit_prints_only_the_error_line(tmp_path, capsysbinary, section, key, err):
    doc = json.loads(KAON_DECAY.read_bytes())
    if section == "states":
        doc["states"][key][0] = [1e308, 0]
    else:
        doc["symmetries"][key]["unitary_part"][0][0] = [1e308, 0]
    target = tmp_path / "near_limit.json"
    target.write_text(json.dumps(doc))
    assert run_cli(capsysbinary, "check", "--scenario", str(target)) == (2, b"", err)


# T = diag(1 - 4e-10, 1)·K commutes with H = diag(1, 2) and passes the
# default tau_zero, but under the document's tighter tolerances its norm
# loss alone would read as a wigner Violation (margin 4e-10)
NEARLY_UNITARY = {
    "dim": 2,
    "matrices": {"hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]},
    "requests": [{"detector": "wigner", "symmetry": "T"}],
    "schema_version": 1,
    "symmetries": [{"antilinear": True, "label": "T", "unitary_part": [[[1 - 4e-10, 0], [0, 0]], [[0, 0], [1, 0]]]}],
    "tolerances": {"tau_violation": 1e-10, "tau_zero": 1e-13},
}


@pytest.mark.parametrize("argv", [["check"], ["oracle", "--format", "text"]], ids=["check", "oracle"])
def test_symmetry_not_unitary_within_the_documents_tau_zero_is_bad_input(tmp_path, capsysbinary, argv):
    target = tmp_path / "nearly_unitary.json"
    target.write_text(json.dumps(NEARLY_UNITARY))
    code, out, err = run_cli(capsysbinary, *argv, "--scenario", str(target))
    assert (code, out) == (2, b"")
    expected = rb"error: symmetries\[0\]\.unitary_part: unitary_part of T is not unitary \(deviation 8\.\d{3}e-10\)\n"
    assert re.fullmatch(expected, err), err


# H = diag(1, 2) with R = diag(1, -1) and T = K, each of which commutes with
# H, and the state (1, 0); each variant moves one input off by about 1e-7,
# outside the default tau_zero but inside a tau_zero of 1e-6
SLIGHTLY_OFF_BASE = {
    "dim": 2,
    "matrices": {"hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]},
    "requests": [
        {"detector": "unitary_curie", "state": "up", "symmetry": "R", "time": 1.0},
        {"detector": "wigner", "symmetry": "T"},
    ],
    "schema_version": 1,
    "states": {"up": [[1, 0], [0, 0]]},
    "symmetries": [
        {"antilinear": False, "label": "R", "unitary_part": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
        {"antilinear": True, "label": "T", "unitary_part": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    ],
}
SLIGHTLY_OFF = {
    "state": (
        lambda doc: doc["states"].__setitem__("up", [[1 + 1e-7, 0], [0, 0]]),
        b"error: states.up: state is not normalized (deviation 1.000e-07)\n",
    ),
    "symmetry": (
        lambda doc: doc["symmetries"][1]["unitary_part"][0].__setitem__(0, [1 + 1.4e-7, 0]),
        b"error: symmetries[1].unitary_part: unitary_part of T is not unitary (deviation 2.800e-07)\n",
    ),
}


def slightly_off(tmp_path, which: str, **extra) -> str:
    doc = json.loads(json.dumps(SLIGHTLY_OFF_BASE))
    SLIGHTLY_OFF[which][0](doc)
    target = tmp_path / f"{which}_off.json"
    target.write_text(json.dumps({**doc, **extra}))
    return str(target)


@pytest.mark.parametrize("which", sorted(SLIGHTLY_OFF))
@pytest.mark.parametrize("argv", [["check"], ["oracle", "--format", "text"]], ids=["check", "oracle"])
def test_input_slightly_off_is_judged_at_the_runs_tau_zero(tmp_path, capsysbinary, monkeypatch, argv, which):
    target = slightly_off(tmp_path, which)
    assert run_cli(capsysbinary, *argv, "--scenario", target) == (2, b"", SLIGHTLY_OFF[which][1])
    loose = ("--tol-zero", "1e-6", "--tol-violation", "1e-5")
    code, out, err = run_cli(capsysbinary, *argv, *loose, "--scenario", target)
    assert (code, err) == (0, b"") and out
    monkeypatch.setenv("TVD_TOL_ZERO", "1e-6")
    monkeypatch.setenv("TVD_TOL_VIOLATION", "1e-5")
    assert run_cli(capsysbinary, *argv, "--scenario", target) == (0, out, b"")


def test_tol_zero_flag_tightens_the_state_check_of_a_loose_document(tmp_path, capsysbinary):
    target = slightly_off(tmp_path, "state", tolerances={"tau_zero": 1e-6, "tau_violation": 1e-5})
    code, out, err = run_cli(capsysbinary, "check", "--scenario", target)
    assert (code, err) == (0, b"") and out
    assert run_cli(capsysbinary, "check", "--tol-zero", "1e-9", "--scenario", target) == (2, b"", SLIGHTLY_OFF["state"][1])


@pytest.mark.parametrize(
    "version, code, err",
    [
        ("true", 2, b"error: schema_version: unsupported schema_version True\n"),
        ("1.0", 2, b"error: schema_version: unsupported schema_version 1.0\n"),
        ("1", 0, b""),
    ],
    ids=["true", "1.0", "1"],
)
def test_check_schema_version_must_be_the_integer_one(tmp_path, capsysbinary, version, code, err):
    target = tmp_path / "version.json"
    target.write_text(f'{{"dim":1,"requests":[],"schema_version":{version}}}')
    got_code, _, got_err = run_cli(capsysbinary, "check", "--scenario", str(target))
    assert (got_code, got_err) == (code, err)


def test_check_out_single_file(tmp_path, capsysbinary):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY), "--out", str(target))
    assert code == 0
    assert out == b""
    doc = json.loads(target.read_bytes())
    assert doc["schema_version"] == 1


def test_check_out_directory_for_multiple_scenarios(tmp_path, capsysbinary):
    outdir = tmp_path / "reports"
    code, _, _ = run_cli(
        capsysbinary,
        "check",
        "--scenario", str(KAON_DECAY),
        "--scenario", str(CPT_LINK),
        "--out", str(outdir),
    )
    assert code == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "cpt_link_toy.report.json",
        "kaon_decay.report.json",
    ]


@pytest.mark.parametrize("fmt, suffix", [("json", "report.json"), ("text", "report.txt")])
def test_check_out_directory_refuses_two_scenarios_with_one_stem(tmp_path, capsysbinary, monkeypatch, fmt, suffix):
    first, second = tmp_path / "a" / "x.json", tmp_path / "b" / "x.json"
    for path in (first, second):
        path.parent.mkdir()
        path.write_bytes(KAON_DECAY.read_bytes())
    ran = []
    monkeypatch.setattr(tvd.cli, "run_scenario", lambda *a, **k: ran.append(a))
    outdir = tmp_path / "reports"
    code, out, err = run_cli(
        capsysbinary, "check", "--scenario", str(first), "--scenario", str(second),
        "--out", str(outdir), "--format", fmt,
    )
    assert code == 2
    assert out == b""
    assert err == f"error: scenarios {first} and {second} would both write x.{suffix} under --out\n".encode()
    assert ran == []
    assert not outdir.exists()


def test_check_out_file_refuses_several_scenarios(tmp_path, capsysbinary, monkeypatch):
    ran = []
    monkeypatch.setattr(tvd.cli, "run_scenario", lambda *a, **k: ran.append(a))
    target = tmp_path / "report.json"
    target.write_bytes(b"kept")
    code, out, err = run_cli(
        capsysbinary, "check", "--scenario", str(KAON_DECAY), "--scenario", str(CPT_LINK), "--out", str(target),
    )
    assert code == 2
    assert out == b""
    assert err == f"error: --out {target} is not a directory; several scenarios need a directory\n".encode()
    assert ran == []
    assert target.read_bytes() == b"kept"


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_invalid_utf8_scenario_is_bad_input(tmp_path, capsysbinary, command):
    target = tmp_path / "latin1.json"
    target.write_bytes(b'{"dim":1,"requests":[],"schema_version":1,"x":"\xff"}')
    code, out, err = run_cli(capsysbinary, command, "--scenario", str(target))
    assert code == 2
    assert out == b""
    assert err.startswith(b"error: document: invalid UTF-8: ")
    assert b"Traceback" not in err


SHIPPED = [str(p) for p in sorted(shipped_scenario_paths().values())]


def check_argv(paths):
    return ["check"] + [x for p in paths for x in ("--scenario", str(p))]


def dim_64_files(tmp_path):
    """Three generated dim-64 scenario files of unequal size (about 0.2, 0.4 and 0.7 MB)."""
    base = build_model_scenario("t-symmetric-s", {"dim": 64, "seed": 3})
    h = random_hermitian(64, 4)
    wigner = dataclasses.replace(
        base, matrices={**base.matrices, "hamiltonian": h}, requests=base.requests + (Request("wigner", {"symmetry": "T"}),)
    )
    grown = dataclasses.replace(wigner, matrices={**wigner.matrices, "h0": h, "v": random_hermitian(64, 5)})
    paths = []
    for stem, scenario in (("dim64_small", base), ("dim64_large", grown), ("dim64_medium", wigner)):
        paths.append(tmp_path / f"{stem}.json")
        paths[-1].write_bytes(serialize_scenario(scenario))
    return paths


def usable_cpus(monkeypatch, n):
    """Make ``tvd check`` and ``tvd oracle`` see ``n`` usable CPUs; 1 gives the serial path, which forks nothing."""
    monkeypatch.setattr(tvd._workers, "usable_cpus", lambda: n)


def test_check_jobs_do_not_change_bytes(tmp_path, capsysbinary, monkeypatch):
    forks = count_forks(monkeypatch)
    argv = check_argv(SHIPPED + dim_64_files(tmp_path))
    outputs = []
    # --jobs is ignored: the usable CPUs set the number of children
    for cpus, jobs in ((1, "3"), (2, "1"), (3, "2")):
        usable_cpus(monkeypatch, cpus)
        outputs.append(run_cli(capsysbinary, *argv, "--jobs", jobs))
        assert len(forks) == sum(range(cpus))
        assert_no_children()
    assert outputs[0][0] == 0 and outputs[0][2] == b""
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_check_jobs_runs_every_scenario_on_the_calling_thread(tmp_path, capsysbinary, monkeypatch):
    seen = []

    def recording(scenario, *args, **kwargs):
        arrays = [*scenario.matrices.values(), *scenario.states.values()]
        arrays += [g.unitary_part for g in scenario.symmetries.values()]
        frozen = all(_frozen_bytes(arr) is not None for arr in arrays)
        seen.append((threading.get_ident(), serialize_scenario(scenario), frozen))
        return run_scenario(scenario, *args, **kwargs)

    monkeypatch.setattr(tvd.cli, "run_scenario", recording)
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    paths = SHIPPED + dim_64_files(tmp_path)
    code, _, _ = run_cli(capsysbinary, *check_argv(paths))
    assert code == 0
    assert len(forks) == 1
    assert_no_children()
    expected = [serialize_scenario(parse_scenario(Path(p).read_bytes())) for p in paths]
    assert seen == [(threading.get_ident(), doc, True) for doc in expected]


def with_missing_later_file(tmp_path):
    # dealt into three runs, the missing file (index 8) falls in a child's run
    paths = SHIPPED + dim_64_files(tmp_path)
    return paths[:-1] + [tmp_path / "missing.json"] + paths[-1:]


def with_malformed_later_file(tmp_path):
    # dealt into three runs, the malformed file (index 8) falls in a child's run, which stops there
    bad = tmp_path / "malformed.json"
    bad.write_bytes(KAON_DECAY.read_bytes()[:-40])
    paths = SHIPPED + dim_64_files(tmp_path)
    return paths[:-1] + [bad] + paths[-1:]


def with_non_unitary_earlier_file(tmp_path):
    doc = json.loads(KAON_DECAY.read_bytes())
    doc["symmetries"][0]["unitary_part"][0][0] = [-2, 0]
    bad = tmp_path / "non_unitary.json"
    bad.write_text(json.dumps(doc))
    return [bad] + SHIPPED + dim_64_files(tmp_path)


@pytest.mark.parametrize(
    "files, err",
    [
        (with_missing_later_file, b"error: cannot read scenario "),
        (with_malformed_later_file, b"error: invalid JSON: "),
        (with_non_unitary_earlier_file, b"error: symmetries[0].unitary_part: unitary_part of CP is not unitary"),
    ],
)
def test_check_workers_fail_like_one_cpu(tmp_path, capsysbinary, monkeypatch, files, err):
    forks = count_forks(monkeypatch)
    argv = check_argv(files(tmp_path))
    usable_cpus(monkeypatch, 1)
    serial = run_cli(capsysbinary, *argv)
    assert forks == []
    assert serial[:2] == (2, b"") and serial[2].startswith(err)
    usable_cpus(monkeypatch, 3)
    assert run_cli(capsysbinary, *argv) == serial
    assert len(forks) == 2
    assert_no_children()


def test_check_workers_read_what_a_failed_child_did_not_send(tmp_path, capsysbinary, monkeypatch):
    argv = check_argv(SHIPPED + dim_64_files(tmp_path))
    usable_cpus(monkeypatch, 1)
    serial = run_cli(capsysbinary, *argv)
    monkeypatch.setattr(tvd.cli, "_send_parsed", lambda paths, fd: os._exit(1))
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert run_cli(capsysbinary, *argv) == serial
    assert len(forks) == 1
    assert_no_children()


def test_check_forks_one_child_per_further_cpu(tmp_path, capsysbinary, monkeypatch):
    paths = []
    for k in range(20):
        paths.append(tmp_path / f"kaon_{k}.json")
        paths[-1].write_bytes(KAON_DECAY.read_bytes())
    forks = count_forks(monkeypatch)
    usable_cpus(monkeypatch, 1)
    serial = run_cli(capsysbinary, *check_argv(paths), "--jobs", "20")
    assert serial[0] == 0 and forks == []
    usable_cpus(monkeypatch, 3)
    assert run_cli(capsysbinary, *check_argv(paths), "--jobs", "20") == serial
    assert len(forks) == 2
    assert_no_children()


def test_check_reads_every_file_itself_when_no_pipe_can_be_opened(capsysbinary, monkeypatch):
    resource = pytest.importorskip("resource")
    argv = check_argv(SHIPPED)
    usable_cpus(monkeypatch, 1)
    serial = run_cli(capsysbinary, *argv)
    usable_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    held = [os.open(os.devnull, os.O_RDONLY)]
    try:
        # this process only: every descriptor below the limit but one is taken, so a pipe
        # (two descriptors) cannot be opened while a scenario file (one) still can
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(soft, held[0] + 16), hard))
        with pytest.raises(OSError):
            while True:
                held.append(os.open(os.devnull, os.O_RDONLY))
        os.close(held.pop())
        got = run_cli(capsysbinary, *argv)
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        for fd in held:
            os.close(fd)
    assert got == serial
    assert forks == []
    assert_no_children()


def test_child_sends_each_scenario_before_parsing_the_next(monkeypatch):
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)
    waiting = []

    def reading(path):
        # the bytes already in the pipe when the next file is read
        waiting.append(len(os.read(read_fd, 1 << 20)) if waiting else 0)
        return parse_scenario(path.read_bytes())

    monkeypatch.setattr(tvd.cli, "_read_scenario", reading)
    try:
        tvd.cli._send_parsed([CPT_LINK, KAON_DECAY], write_fd)
    finally:
        os.close(read_fd)
    assert waiting[0] == 0 and waiting[1] > 0


def test_check_workers_leave_a_fifo_to_the_calling_process(tmp_path, capsysbinary, monkeypatch):
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    sent = []
    real_fork = tvd._workers.fork
    # each child's work is _send_parsed bound to its files
    monkeypatch.setattr(tvd._workers, "fork", lambda work: sent.append(work.args[0]) or real_fork(work))
    usable_cpus(monkeypatch, 2)
    writer = threading.Thread(target=fifo.write_bytes, args=(CPT_LINK.read_bytes(),), daemon=True)
    writer.start()
    try:
        # dealt into two runs, the fifo and the last file make the child's run
        code, out, _ = run_cli(capsysbinary, *check_argv([KAON_DECAY, fifo, CPT_LINK, KAON_DECAY]))
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert code == 0
    assert sent == [[KAON_DECAY]]
    usable_cpus(monkeypatch, 1)
    assert out == run_cli(capsysbinary, *check_argv([KAON_DECAY, CPT_LINK, CPT_LINK, KAON_DECAY]))[1]
    assert_no_children()


def dim_256_file(tmp_path):
    """A generated dim-256 scenario file of about 8 MB, four compact arrays of the same size among its payloads."""
    base = build_model_scenario("t-symmetric-s", {"dim": 256, "seed": 5})
    scenario = dataclasses.replace(
        base, matrices={**base.matrices, "hamiltonian": random_hermitian(256, 6), "h0": random_hermitian(256, 7)}
    )
    path = tmp_path / "dim256.json"
    path.write_bytes(serialize_scenario(scenario))
    return path


def scenario_arrays(scenario):
    """Every array of a scenario by place, as its shape, dtype, bytes and whether it views an immutable buffer."""
    arrays = {f"matrices.{name}": m for name, m in scenario.matrices.items()}
    arrays.update({f"states.{name}": v for name, v in scenario.states.items()})
    arrays.update({f"symmetries.{label}": g.unitary_part for label, g in scenario.symmetries.items()})
    return {key: (a.shape, a.dtype.str, a.tobytes(), _frozen_bytes(a) is not None) for key, a in arrays.items()}


def test_forked_decoder_gives_the_serial_scenario_bit_for_bit(tmp_path, monkeypatch):
    forks = count_forks(monkeypatch)
    for path in [*map(Path, SHIPPED), *dim_64_files(tmp_path), dim_256_file(tmp_path)]:
        serial = parse_scenario(path.read_bytes())
        want = (serialize_scenario(serial), scenario_arrays(serial))
        assert all(frozen for *_, frozen in want[1].values())
        for cpus in (2, 3):
            before = len(forks)
            # the nested parse would give the same arrays: only the compact route may answer
            with mock.patch.object(tvd.scenario, "_parse_nested", side_effect=AssertionError("fell back")):
                got = tvd.cli._read_scenario(path, cpus)
            assert (serialize_scenario(got), scenario_arrays(got)) == want, (path.name, cpus)
            assert len(forks) > before
            assert_no_children()


def oracle_at(capsysbinary, monkeypatch, cpus, path):
    usable_cpus(monkeypatch, cpus)
    return run_cli(capsysbinary, "oracle", "--scenario", str(path), "--format", "json")


def test_oracle_decodes_a_lone_file_over_the_usable_cpus(tmp_path, capsysbinary, monkeypatch):
    path = dim_64_files(tmp_path)[1]
    forks = count_forks(monkeypatch)
    serial = oracle_at(capsysbinary, monkeypatch, 1, path)
    assert serial[0] == 0 and serial[2] == b""
    assert forks == []
    for cpus in (2, 3):
        assert oracle_at(capsysbinary, monkeypatch, cpus, path) == serial
        assert len(forks) == sum(range(cpus))
        assert_no_children()


def send_nothing(share, dim, fd):
    os._exit(1)


def send_raising(share, dim, fd):
    raise RuntimeError("decode worker failed")


def send_killed(share, dim, fd):
    os.kill(os.getpid(), signal.SIGKILL)


def send_half(share, dim, fd):
    sent = pickle.dumps(tvd.scenario._read_share(share, dim), pickle.HIGHEST_PROTOCOL)
    with open(fd, "wb") as pipe:
        pipe.write(sent[: len(sent) // 2])


def never_started(monkeypatch):
    monkeypatch.setattr(tvd._workers, "fork", lambda work: None)


@pytest.mark.parametrize("send", [send_nothing, send_raising, send_killed, send_half, never_started])
def test_oracle_decodes_what_a_failed_child_did_not_send(send, tmp_path, capsysbinary, monkeypatch):
    path = dim_64_files(tmp_path)[1]
    read = []

    def recording(scenario, *args, **kwargs):
        read.append(scenario_arrays(scenario))
        return run_scenario(scenario, *args, **kwargs)

    monkeypatch.setattr(tvd.cli, "run_scenario", recording)
    serial = oracle_at(capsysbinary, monkeypatch, 1, path)
    if send is never_started:
        never_started(monkeypatch)
    else:
        monkeypatch.setattr(tvd.scenario, "_send_arrays", send)
    # the nested parse would give the same arrays: only the compact route may answer
    monkeypatch.setattr(tvd.scenario, "_parse_nested", mock.Mock(side_effect=AssertionError("fell back")))
    forks = count_forks(monkeypatch)
    assert oracle_at(capsysbinary, monkeypatch, 2, path) == serial
    assert read[1] == read[0]
    assert len(forks) == (send is not never_started)
    assert_no_children()


def test_check_decodes_the_files_it_parses_on_the_cpus_the_runs_leave(tmp_path, capsysbinary, monkeypatch):
    argv = check_argv(dim_64_files(tmp_path)[:2])
    forks = count_forks(monkeypatch)
    usable_cpus(monkeypatch, 1)
    serial = run_cli(capsysbinary, *argv)
    assert serial[0] == 0 and serial[2] == b""
    # one parse worker from two CPUs on; the spare CPUs decode the file this process parses
    for cpus, children in ((2, 1), (3, 2), (4, 3)):
        del forks[:]
        usable_cpus(monkeypatch, cpus)
        assert run_cli(capsysbinary, *argv) == serial
        assert len(forks) == children
        assert_no_children()


def test_decoding_child_writes_nothing_before_its_last_payload(monkeypatch):
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)
    waiting = []
    real_read = tvd.scenario._read_compact

    def reading(payload, dim):
        # the bytes already in the pipe when the next payload is read
        try:
            waiting.append(len(os.read(read_fd, 1 << 20)))
        except BlockingIOError:
            waiting.append(0)
        return real_read(payload, dim)

    monkeypatch.setattr(tvd.scenario, "_read_compact", reading)
    payloads = {"\x000": b"[[1,0],[0,0.5]]", "\x001": b"[[[1,2],[3,4]],[[5,6],[7,8]]]"}
    try:
        tvd.scenario._send_arrays(payloads, 2, write_fd)
        with open(read_fd, "rb", closefd=False) as pipe:
            sent = pickle.load(pipe)
    finally:
        os.close(read_fd)
    assert waiting == [0, 0]
    want = {"\x000": [1, 0.5j], "\x001": [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]]}
    assert {key: a.tolist() for key, a in sent.items()} == want


@pytest.mark.parametrize("jobs", ["0", "-1", "x"])
def test_check_jobs_below_one_is_bad_input(capsysbinary, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--scenario", str(KAON_DECAY), "--jobs", jobs])
    captured = capsysbinary.readouterr()
    assert exc.value.code == 2
    assert captured.out == b""
    message = f"must be an integer, got '{jobs}'" if jobs == "x" else f"must be at least 1, got {jobs}"
    assert f"argument --jobs: {message}\n".encode() in captured.err


def test_env_tolerance_softens_verdict_and_flag_wins(capsysbinary, monkeypatch):
    monkeypatch.setenv("TVD_TOL_VIOLATION", "0.5")
    _, out, _ = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY))
    doc = json.loads(out)
    assert [r["outcome"] for r in doc["records"]] == ["NoConclusion", "NoConclusion"]
    assert [r["reason"] for r in doc["records"]] == ["indeterminate", "indeterminate"]
    assert doc["provenance"]["tolerances"]["tau_violation"] == pytest.approx(0.5)

    _, out, _ = run_cli(
        capsysbinary, "check", "--scenario", str(KAON_DECAY), "--tol-violation", "1e-6"
    )
    doc = json.loads(out)
    assert [r["outcome"] for r in doc["records"]] == ["Violation", "Violation"]


def test_all_no_conclusion_still_exits_zero(capsysbinary):
    quiet = shipped_scenario_paths()["t_symmetric_s"]
    code, out, _ = run_cli(capsysbinary, "check", "--scenario", str(quiet))
    assert code == 0
    doc = json.loads(out)
    assert all(r["outcome"] == "NoConclusion" for r in doc["records"])


def test_misordered_flag_tolerances_are_rejected(capsysbinary):
    code, _, err = run_cli(
        capsysbinary,
        "check", "--scenario", str(KAON_DECAY),
        "--tol-zero", "0.5", "--tol-violation", "0.1",
    )
    assert code == 2
    assert b"tau_zero" in err


@pytest.mark.parametrize(
    "command, flag, field",
    [("check", "--tol-violation", "tau_violation"), ("oracle", "--tol-zero", "tau_zero")],
)
def test_non_finite_flag_tolerance_is_bad_input(capsysbinary, command, flag, field):
    code, out, err = run_cli(capsysbinary, command, "--scenario", str(KAON_DECAY), flag, "inf")
    assert code == 2
    assert out == b""
    assert err.startswith(b"error: ")
    assert f"{field} must be a positive finite number, got inf".encode() in err


def test_invalid_env_tolerance_is_a_config_error(capsysbinary, monkeypatch):
    monkeypatch.setenv("TVD_TOL_ZERO", "banana")
    code, _, err = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY))
    assert code == 2
    assert b"TVD_TOL_ZERO" in err


def test_selftest_env_misordering_fails_before_suites(capsysbinary, monkeypatch):
    monkeypatch.setenv("TVD_TOL_ZERO", "1e-3")
    monkeypatch.setenv("TVD_TOL_VIOLATION", "1e-6")
    code, out, err = run_cli(capsysbinary, "selftest")
    assert code == 2
    assert b"error:" in err
    assert b"passed" not in out


def test_selftest_single_suite(capsysbinary):
    code, out, _ = run_cli(capsysbinary, "selftest", "--suite", "scenario_io")
    assert code == 0
    text = out.decode()
    assert text.startswith("scenario_io:")
    assert text.rstrip().endswith("selftest: OK")


def test_selftest_counts_at_default_tolerances(capsysbinary):
    code, out, _ = run_cli(capsysbinary, "selftest")
    assert code == 0
    assert out.decode() == (
        "linalg: 80 passed, 0 failed\n"
        "symmetry: 2 passed, 0 failed\n"
        "curie: 6 passed, 0 failed\n"
        "kabir: 2 passed, 0 failed\n"
        "wigner: 3 passed, 0 failed\n"
        "models: 9 passed, 0 failed\n"
        "scenario_io: 2 passed, 0 failed\n"
        "selftest: OK\n"
    )


def test_selftest_failing_suite_exits_one(capsysbinary, monkeypatch):
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda tol, name=name: SuiteResult(name, 1, 0))
    monkeypatch.setitem(SUITES, "kabir", lambda tol: SuiteResult("kabir", 6, 1, ["forged check"]))
    code, out, _ = run_cli(capsysbinary, "selftest")
    assert code == 1
    text = out.decode()
    assert "kabir: 6 passed, 1 failed\n  FAIL forged check\n" in text
    assert text.endswith("selftest: FAILED\n")


@pytest.mark.parametrize("tol_zero, tol_violation", [("0.1", "0.5"), ("0.3", "0.9"), ("0.5", "0.6")])
def test_selftest_passes_at_loose_tolerances(capsysbinary, tol_zero, tol_violation):
    # the suites judge verdicts against the run's thresholds, not fixed margins
    code, out, _ = run_cli(
        capsysbinary, "selftest", "--suite", "symmetry", "--suite", "curie", "--suite", "models",
        "--tol-zero", tol_zero, "--tol-violation", tol_violation,
    )
    assert code == 0, out.decode()
    assert out.decode().endswith("selftest: OK\n")


@pytest.mark.parametrize("tol_zero, tol_violation", [("0.6", "0.9"), ("0.9", "0.99")])
def test_selftest_soundness_suites_pass_where_tau_violation_is_close_to_tau_zero(capsysbinary, tol_zero, tol_violation):
    code, out, _ = run_cli(
        capsysbinary, "selftest", "--suite", "curie", "--suite", "kabir",
        "--tol-zero", tol_zero, "--tol-violation", tol_violation,
    )
    assert code == 0, out.decode()
    assert out.decode().endswith("selftest: OK\n")


def test_selftest_at_very_loose_tolerances_runs_every_suite(capsysbinary):
    # a symmetrized H can lie within tau_zero of zero; that draw gives no verdict
    code, out, err = run_cli(capsysbinary, "selftest", "--tol-zero", "0.9", "--tol-violation", "0.99")
    assert code == 1, err.decode()
    counts = re.findall(r"^(\w+): \d+ passed, \d+ failed$", out.decode(), re.MULTILINE)
    assert counts == list(SUITES)
    # a commutant margin at or below tau_zero is not zero at tolerances this loose
    failures = re.findall(r"^  FAIL (.*)$", out.decode(), re.MULTILINE)
    assert failures == ["simple level forbids commuting minus-identity reversal"]
    assert out.decode().endswith("selftest: FAILED\n")


@pytest.mark.parametrize("tol, failed", [(Tolerances(0.5, 0.6), 0), (Tolerances(1e-15, 1e-14), 20)])
def test_scenario_io_suite_runs_at_the_given_tolerances(monkeypatch, tol, failed):
    seen = []

    def recording(scenario, tolerances=None, seed=None):
        seen.append(tolerances)
        return run_scenario(scenario, tolerances, seed)

    monkeypatch.setattr(tvd.selftest, "run_scenario", recording)
    result = SUITES["scenario_io"](tol)
    assert seen and all(t is tol for t in seen)
    # below rounding, a draw whose R is unitary only to 1e-15 is a failed check, not an error
    assert result.failed == failed
    assert all(f.startswith("draw passes the input checks: symmetries[0].unitary_part: ") for f in result.failures)


def test_selftest_below_rounding_runs_every_suite(capsysbinary):
    # seeded symmetries are unitary only to about 1e-15; such a draw is a failed check, not an error
    code, out, err = run_cli(capsysbinary, "selftest", "--tol-zero", "1e-15", "--tol-violation", "1e-14")
    assert code == 1, err.decode()
    counts = re.findall(r"^(\w+): \d+ passed, \d+ failed$", out.decode(), re.MULTILINE)
    assert counts == list(SUITES)
    failures = re.findall(r"^  FAIL (.*)$", out.decode(), re.MULTILINE)
    assert any(f.startswith("draw passes the input checks: symmetries[0].unitary_part: unitary_part of CP ")
               for f in failures)
    assert out.decode().endswith("selftest: FAILED\n")


# each detector's draws run under the suite of its module, with one maximal-breaking request
SOUNDNESS_SUITES = {
    "unitary_curie": "curie",
    "scattering_curie": "curie",
    "s_matrix_inference": "curie",
    "kabir": "kabir",
    "cpt_link": "symmetry",
    "wigner": "wigner",
}


@pytest.mark.parametrize("detector", list(SOUNDNESS_SUITES))
def test_selftest_soundness_is_judged_by_the_oracle_table(capsysbinary, monkeypatch, detector):
    assert list(SOUNDNESS_SUITES) == list(DETECTORS)
    forged = dataclasses.replace(DETECTORS[detector], oracle=lambda args, outcome, tol: ({}, "forged note"))
    monkeypatch.setitem(DETECTORS, detector, forged)
    code, out, _ = run_cli(capsysbinary, "selftest", "--suite", SOUNDNESS_SUITES[detector])
    assert code == 1
    failures = re.findall(r"^  FAIL (.*)$", out.decode(), re.MULTILINE)
    assert failures == [f"{detector} soundness over 501 requests"]


def test_models_lists_names(capsysbinary):
    code, out, _ = run_cli(capsysbinary, "models")
    assert code == 0
    names = out.decode().split()
    assert "kaon-decay" in names
    assert "edm" in names
    assert names == sorted(names)


def test_models_builds_scenario_with_params(tmp_path, capsysbinary):
    target = tmp_path / "kd.json"
    code, _, _ = run_cli(
        capsysbinary, "models", "kaon-decay", "--param", "epsilon=0.3", "--out", str(target)
    )
    assert code == 0
    scenario = parse_scenario(target.read_bytes())
    report = run_scenario(scenario, scenario.effective_tolerances())
    assert report.records[0].verdict.margin == pytest.approx(0.3)


def test_models_accepts_fraction_and_axis_shorthand(tmp_path, capsysbinary):
    target = tmp_path / "edm.json"
    code, _, _ = run_cli(
        capsysbinary,
        "models", "edm",
        "--param", "j=1/2",
        "--param", "e=z",
        "--out", str(target),
    )
    assert code == 0
    scenario = parse_scenario(target.read_bytes())
    assert scenario.dim == 2


def test_models_rejects_unknown_name_and_bad_param(capsysbinary):
    code, _, err = run_cli(capsysbinary, "models", "tachyon")
    assert code == 2
    assert b"tachyon" in err
    code, _, err = run_cli(capsysbinary, "models", "edm", "--param", "j=0.3")
    assert code == 2
    code, _, err = run_cli(capsysbinary, "models", "edm", "--param", "j")
    assert code == 2


def test_models_reads_i_notation_for_a_complex_coupling(capsysbinary):
    code, out, err = run_cli(capsysbinary, "models", "kaon-oscillation", "--param", "w=0.3i")
    assert (code, err) == (0, b"")
    assert b'"hamiltonian":[[[0.5,0],[0,0.29999999999999999]],' in out


@pytest.mark.parametrize("axis", ["e=z", "e=0,0,1"])
def test_models_axis_letter_and_components_give_the_default_edm(capsysbinary, axis):
    _, default, _ = run_cli(capsysbinary, "models", "edm")
    code, out, err = run_cli(capsysbinary, "models", "edm", "--param", axis)
    assert (code, err) == (0, b"")
    assert out == default


@pytest.mark.parametrize(
    "model, param, err",
    [
        ("edm", "nope=1", b"error: unknown parameter 'nope' for model 'edm'; expected: d, e, g, h0, j\n"),
        (
            "kaon-decay",
            "epsilon=abc",
            b"error: bad value for parameter 'epsilon': 'abc' (could not convert string to float: 'abc')\n",
        ),
        ("kaon-oscillation", "w=nan", b"error: expected a finite complex number, got 'nan'\n"),
    ],
)
def test_models_rejects_a_bad_parameter_with_its_message(capsysbinary, model, param, err):
    assert run_cli(capsysbinary, "models", model, "--param", param) == (2, b"", err)


def test_document_tolerances_out_of_order_are_bad_input(tmp_path, capsysbinary):
    doc = json.loads(KAON_DECAY.read_bytes())
    doc["tolerances"] = {"tau_zero": 0.5}
    target = tmp_path / "misordered.json"
    target.write_text(json.dumps(doc))
    assert run_cli(capsysbinary, "check", "--scenario", str(target)) == (
        2,
        b"",
        b"error: tolerances: tau_zero (0.5) must be below tau_violation (1e-06)\n",
    )


def test_non_positive_env_tolerance_is_bad_input(capsysbinary, monkeypatch):
    monkeypatch.setenv("TVD_TOL_ZERO", "-1")
    assert run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY)) == (
        2,
        b"",
        b"error: environment variable TVD_TOL_ZERO must be a positive finite number, got '-1'\n",
    )


def test_models_out_in_a_missing_directory_is_one_error_line(tmp_path, capsysbinary):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsysbinary, "models", "kaon-decay", "--out", str(target))
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: [Errno 2] ")
    assert err.endswith(f"{target}'\n".encode())
    assert err.count(b"\n") == 1


def test_check_text_heads_each_of_several_reports_with_its_path(capsysbinary):
    code, out, _ = run_cli(
        capsysbinary, "check", "--format", "text", "--scenario", str(KAON_DECAY), "--scenario", str(CPT_LINK)
    )
    assert code == 0
    heads = [line for line in out.decode().splitlines() if line.startswith("# ")]
    assert heads == [f"# {KAON_DECAY}", f"# {CPT_LINK}"]
    assert out.startswith(f"# {KAON_DECAY}\n[0] scattering_curie: ".encode())
    assert f"\n# {CPT_LINK}\n[0] cpt_link: ".encode() in out


def test_oracle_agrees_on_every_shipped_scenario(capsysbinary):
    for path in shipped_scenario_paths().values():
        code, out, _ = run_cli(capsysbinary, "oracle", "--scenario", str(path))
        assert code == 0, path.name
        assert b"disagrees" not in out


def test_oracle_flags_every_forged_verdict():
    # flip each Violation in each shipped report; all must be caught
    flips = 0
    for path in shipped_scenario_paths().values():
        scenario = parse_scenario(path.read_bytes())
        tol = scenario.effective_tolerances()
        report = run_scenario(scenario, tol)
        for k, record in enumerate(report.records):
            if record.verdict.outcome != "Violation":
                continue
            flips += 1
            forged_records = list(report.records)
            forged_records[k] = VerdictRecord(
                detector=record.detector,
                verdict=Verdict.no_conclusion("below-threshold", margin=0.0),
            )
            forged = Report(records=tuple(forged_records), provenance=report.provenance)
            results = oracle_compare(scenario, forged, tol)
            assert not results[k].agreed, (path.name, record.detector)
            assert all(rec.agreed for i, rec in enumerate(results) if i != k)
    assert flips >= 6


def test_oracle_pipeline_on_generated_models(tmp_path, capsysbinary):
    for seed in range(10):
        target = tmp_path / f"ts{seed}.json"
        code, _, _ = run_cli(
            capsysbinary,
            "models", "t-symmetric-s",
            "--param", f"seed={seed}",
            "--out", str(target),
        )
        assert code == 0
        code, _, _ = run_cli(capsysbinary, "oracle", "--scenario", str(target), "--format", "json")
        assert code == 0


def test_seed_env_lands_in_provenance_and_flag_wins(capsysbinary, monkeypatch):
    monkeypatch.setenv("TVD_SEED", "7")
    _, out, _ = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY))
    assert json.loads(out)["provenance"]["seed"] == 7
    _, out, _ = run_cli(capsysbinary, "check", "--scenario", str(KAON_DECAY), "--seed", "9")
    assert json.loads(out)["provenance"]["seed"] == 9


@pytest.mark.parametrize("argv", [["check"], ["oracle", "--format", "json"]], ids=["check", "oracle"])
def test_environment_beats_the_document_and_flags_beat_both(tmp_path, capsysbinary, monkeypatch, argv):
    doc = json.loads(KAON_DECAY.read_bytes())
    doc.update(tolerances={"tau_violation": 0.5}, seed=3)
    target = tmp_path / "settled.json"
    target.write_text(json.dumps(doc))

    def settings(*flags):
        code, out, _ = run_cli(capsysbinary, *argv, "--scenario", str(target), *flags)
        assert code == 0
        provenance = json.loads(out)["provenance"]
        return provenance["tolerances"]["tau_violation"], provenance["seed"]

    assert settings() == (0.5, 3)
    monkeypatch.setenv("TVD_TOL_VIOLATION", "0.25")
    monkeypatch.setenv("TVD_SEED", "5")
    assert settings() == (0.25, 5)
    assert settings("--tol-violation", "0.75", "--seed", "9") == (0.75, 9)


@pytest.mark.parametrize("var", ["TVD_SEED", "TVD_TOL_ZERO"])
@pytest.mark.parametrize("command", ["check", "oracle"])
def test_environment_is_read_before_any_file(capsysbinary, monkeypatch, command, var):
    monkeypatch.setenv(var, "x")
    code, out, err = run_cli(capsysbinary, command, "--scenario", "/no/such/scenario.json")
    assert code == 2
    assert out == b""
    assert var.encode() in err
    assert b"/no/such/scenario.json" not in err


def test_bad_flag_choice_exits_via_argparse(capsysbinary):
    with pytest.raises(SystemExit):
        main(["check", "--scenario", str(KAON_DECAY), "--format", "yaml"])


@pytest.fixture(scope="module")
def installed_tvd(tmp_path_factory):
    """Install this checkout into a temporary root and return (script, env, cwd).

    One setuptools call builds and installs from ``pyproject.toml`` with the
    interpreter running the suite, offline and without ``wheel``; the egg-info
    and build trees go under the temporary directory, not into the checkout.
    ``env`` puts only the installed site-packages on ``PYTHONPATH``, so the
    script runs the installed copy rather than ``src/``.
    """
    pytest.importorskip(
        "setuptools.command.install",
        reason="setuptools in use has no legacy install command",
    )
    work = tmp_path_factory.mktemp("install")
    root = work / "root"
    record = work / "record.txt"
    proc = subprocess.run(
        [
            sys.executable, "-c", "import setuptools; setuptools.setup()",
            "egg_info", "--egg-base", str(work),
            "build", "--build-base", str(work / "build"),
            "install", "--single-version-externally-managed",
            "--root", str(root), "--prefix", "/p", "--record", str(record),
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The record lists installed files relative to --root.
    installed = [root / line.lstrip("/") for line in record.read_text().splitlines()]
    script = next(path for path in installed if path.name == "tvd")
    init = next(path for path in installed if path.parts[-2:] == ("tvd", "__init__.py"))
    env = dict(os.environ, PYTHONPATH=str(init.parent.parent))
    return script, env, work


def test_installed_entry_point_runs(installed_tvd):
    script, env, cwd = installed_tvd
    proc = subprocess.run(
        [str(script), "models", "--list"],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    assert "kaon-oscillation" in proc.stdout
    probe = subprocess.run(
        [
            sys.executable, "-c",
            "import json, tvd; print(json.dumps([tvd.__file__, list(tvd.shipped_scenario_paths())]))",
        ],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert probe.returncode == 0, probe.stderr
    package_file, scenarios = json.loads(probe.stdout)
    assert package_file.startswith(env["PYTHONPATH"]), "installed copy should be imported"
    assert scenarios == list(shipped_scenario_paths()), "scenario JSONs should ship as package data"


def test_module_invocation_matches_entry_point(installed_tvd):
    script, env, cwd = installed_tvd
    module = subprocess.run(
        [sys.executable, "-m", "tvd.cli", "models", "--list"],
        capture_output=True, timeout=120,
    )
    entry = subprocess.run(
        [str(script), "models", "--list"],
        capture_output=True, timeout=120, env=env, cwd=cwd,
    )
    assert module.returncode == entry.returncode == 0
    assert b"three-channel-loop" in module.stdout
    assert module.stdout == entry.stdout
