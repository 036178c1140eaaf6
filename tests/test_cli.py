import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from tvd import (
    Report,
    VerdictRecord,
    Verdict,
    oracle_compare,
    parse_scenario,
    run_scenario,
    shipped_scenario_paths,
)
import tvd.cli
from tvd.cli import main

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


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_invalid_utf8_scenario_is_bad_input(tmp_path, capsysbinary, command):
    target = tmp_path / "latin1.json"
    target.write_bytes(b'{"dim":1,"requests":[],"schema_version":1,"x":"\xff"}')
    code, out, err = run_cli(capsysbinary, command, "--scenario", str(target))
    assert code == 2
    assert out == b""
    assert err.startswith(b"error: document: invalid UTF-8: ")
    assert b"Traceback" not in err


def test_check_jobs_do_not_change_bytes(tmp_path, capsysbinary):
    paths = [str(p) for p in sorted(shipped_scenario_paths().values())]
    argv = ["check"] + [x for p in paths for x in ("--scenario", p)]
    code, serial, _ = run_cli(capsysbinary, *argv, "--jobs", "1")
    assert code == 0
    code, threaded, _ = run_cli(capsysbinary, *argv, "--jobs", "4")
    assert code == 0
    assert serial == threaded


def test_check_jobs_runs_every_scenario_on_the_calling_thread(capsysbinary, monkeypatch):
    threads = []

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(tvd.cli, "run_scenario", recording)
    paths = [str(p) for p in sorted(shipped_scenario_paths().values())]
    argv = ["check"] + [x for p in paths for x in ("--scenario", p)]
    code, _, _ = run_cli(capsysbinary, *argv, "--jobs", "4")
    assert code == 0
    assert threads == [threading.get_ident()] * len(paths)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_check_jobs_below_one_is_bad_input(capsysbinary, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--scenario", str(KAON_DECAY), "--jobs", jobs])
    captured = capsysbinary.readouterr()
    assert exc.value.code == 2
    assert captured.out == b""
    assert f"argument --jobs: must be at least 1, got {jobs}".encode() in captured.err


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
