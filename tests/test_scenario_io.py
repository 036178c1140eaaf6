import copy
import dataclasses
import importlib.util
import io
import json
import os
import pickle
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from conftest import assert_no_children, count_forks, send_half, usable_cpus

from tvd import (
    OracleRecord,
    Provenance,
    Request,
    Scenario,
    ScenarioError,
    SymmetryTransform,
    Tolerances,
    Verdict,
    build_model_scenario,
    canonical_dumps,
    oracle_compare,
    parse_scenario,
    report_jsonable,
    run_scenario,
    scenario_jsonable,
    serialize_report,
    serialize_scenario,
    shipped_scenario_paths,
)
import tvd._workers
import tvd.cli
import tvd.scenario
from tvd.linalg import _content_key, _frozen_bytes, frozen, herm_eig, random_hermitian, random_unitary
from tvd.scenario import _format_real

DATA_DIR = Path(__file__).parent / "data"
GEN_SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "gen_scenarios.py"

FROZEN_SCENARIO_BYTES = (
    b'{"dim":2,"matrices":{"hamiltonian":[[[1,0],[0,0.5]],[[0,-0.5],[2,0]]]},'
    b'"requests":[{"detector":"wigner","symmetry":"T"}],"schema_version":1,"seed":5,'
    b'"states":{"ground":[[1,0],[0,0]]},'
    b'"symmetries":[{"antilinear":true,"label":"T","unitary_part":[[[1,0],[0,0]],[[0,0],[1,0]]]}],'
    b'"tolerances":{"tau_zero":1.0000000000000001e-09}}\n'
)


def small_scenario() -> Scenario:
    return Scenario(
        dim=2,
        matrices={"hamiltonian": np.array([[1.0, 0.5j], [-0.5j, 2.0]])},
        symmetries={"T": SymmetryTransform(np.eye(2, dtype=complex), antilinear=True, label="T")},
        states={"ground": np.array([1.0, 0.0], dtype=complex)},
        requests=(Request("wigner", {"symmetry": "T"}),),
        tolerance_overrides={"tau_zero": 1e-9},
        seed=5,
    )


def corrupt(mutator) -> bytes:
    doc = json.loads(FROZEN_SCENARIO_BYTES)
    mutator(doc)
    return json.dumps(doc).encode()


def test_serialization_is_frozen_and_canonical():
    assert serialize_scenario(small_scenario()) == FROZEN_SCENARIO_BYTES


def test_round_trip_is_byte_identical():
    parsed = parse_scenario(FROZEN_SCENARIO_BYTES)
    assert serialize_scenario(parsed) == FROZEN_SCENARIO_BYTES
    assert parsed.dim == 2
    assert parsed.seed == 5
    assert parsed.requests[0].detector == "wigner"


def test_canonical_dumps_sorts_keys_and_terminates():
    raw = canonical_dumps({"b": 1, "a": [True, None, 0.5]})
    assert raw == b'{"a":[true,null,0.5],"b":1}\n'


def test_rejects_unknown_top_level_field():
    data = corrupt(lambda d: d.__setitem__("surprise", 1))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "surprise" in str(err.value)


def test_rejects_unknown_state_reference():
    data = corrupt(lambda d: d["requests"].append({"detector": "unitary_curie", "symmetry": "T", "state": "psi9", "time": 1.0}))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert str(err.value) == "requests[1].state: unknown state 'psi9'"


def non_unitary_symmetry(d: dict) -> None:
    d["symmetries"][0]["unitary_part"][0] = [[9.0, 0.0], [0.0, 0.0]]


def test_rejects_non_unitary_symmetry():
    # parsing checks form only; the run judges unitarity at its own tau_zero
    parsed = parse_scenario(corrupt(non_unitary_symmetry))
    with pytest.raises(ScenarioError) as err:
        run_scenario(parsed, parsed.effective_tolerances())
    assert str(err.value) == "symmetries[0].unitary_part: unitary_part of T is not unitary (deviation 8.000e+01)"


def test_a_malformed_request_is_reported_before_a_non_unitary_symmetry():
    def both(d):
        non_unitary_symmetry(d)
        d["requests"][0]["detector"] = "psychic"

    with pytest.raises(ScenarioError) as err:
        parse_scenario(corrupt(both))
    assert str(err.value) == "requests[0].detector: unknown detector 'psychic'"


def test_rejects_matrix_dimension_mismatch():
    data = corrupt(lambda d: d["matrices"].__setitem__("hamiltonian", [[[1.0, 0.0]]]))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "matrices.hamiltonian" in str(err.value)


def test_rejects_wrong_schema_version():
    data = corrupt(lambda d: d.__setitem__("schema_version", 2))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "schema_version" in str(err.value)


def test_rejects_duplicate_symmetry_label():
    def add_dup(d):
        d["symmetries"].append(dict(d["symmetries"][0]))

    with pytest.raises(ScenarioError) as err:
        parse_scenario(corrupt(add_dup))
    assert "duplicate" in str(err.value)


def test_rejects_unknown_detector():
    data = corrupt(lambda d: d["requests"].__setitem__(0, {"detector": "psychic"}))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert str(err.value) == "requests[0].detector: unknown detector 'psychic'"


@pytest.mark.parametrize(
    "request_doc, message",
    [
        ({"detector": "wigner", "symmetry": 3}, "requests[0].symmetry: symmetry reference must be a string"),
        (
            {"detector": "cpt_link", "cpt_symmetry": "T", "cp_symmetry": "CP"},
            "requests[0].cp_symmetry: unknown symmetry 'CP'",
        ),
        (
            {"detector": "kabir", "symmetry": "T", "state_in": ["ground"], "state_out": "ground"},
            "requests[0].state_in: state reference must be a string",
        ),
        (
            {"detector": "unitary_curie", "symmetry": "T", "state": "ground", "time": "1"},
            "requests[0].time: expected a finite number",
        ),
        ({"detector": "wigner", "symmetry": "T", "gap_tol": 0}, "requests[0].gap_tol: expected a positive number"),
        ({"detector": "wigner", "symmetry": "T", "time": 1.0}, "requests[0]: unknown field 'time'"),
        ({"detector": "cpt_link", "cpt_symmetry": "T"}, "requests[0]: missing field 'cp_symmetry'"),
        ({"detector": ["wigner"]}, "requests[0].detector: unknown detector ['wigner']"),
    ],
)
def test_request_field_errors_name_the_field(request_doc, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(corrupt(lambda d: d["requests"].__setitem__(0, request_doc)))
    assert str(err.value) == message


def test_request_fields_keep_names_and_read_numbers_as_floats():
    request_doc = {"detector": "unitary_curie", "symmetry": "T", "state": "ground", "time": -2}
    (request,) = parse_scenario(corrupt(lambda d: d["requests"].__setitem__(0, request_doc))).requests
    assert request.params == {"symmetry": "T", "state": "ground", "time": -2.0}
    assert type(request.params["time"]) is float


def test_rejects_request_without_required_matrix():
    def drop_matrix(d):
        del d["matrices"]["hamiltonian"]

    with pytest.raises(ScenarioError) as err:
        parse_scenario(corrupt(drop_matrix))
    assert "hamiltonian" in str(err.value)


def test_rejects_unnormalized_state():
    # parsing checks form only; the run judges the norm at its own tau_zero
    parsed = parse_scenario(corrupt(lambda d: d["states"].__setitem__("ground", [[2.0, 0.0], [0.0, 0.0]])))
    with pytest.raises(ScenarioError) as err:
        run_scenario(parsed, parsed.effective_tolerances())
    assert str(err.value) == "states.ground: state is not normalized (deviation 1.000e+00)"
    loose = parsed.effective_tolerances(tau_zero=1.0, tau_violation=2.0)
    assert len(run_scenario(parsed, loose).records) == 1


def test_rejects_malformed_complex_entry():
    data = corrupt(lambda d: d["states"].__setitem__("ground", [[1.0], [0.0, 0.0]]))
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_rejects_invalid_json():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(b"{not json")
    assert "invalid JSON" in str(err.value)


def test_empty_request_list_is_valid():
    data = corrupt(lambda d: d.__setitem__("requests", []))
    parsed = parse_scenario(data)
    assert parsed.requests == ()
    report = run_scenario(parsed, parsed.effective_tolerances())
    assert report.records == ()


def test_report_bytes_match_golden_file():
    path = shipped_scenario_paths()["cpt_link_toy"]
    scenario = parse_scenario(path.read_bytes())
    report = run_scenario(scenario, scenario.effective_tolerances())
    assert serialize_report(report) == (DATA_DIR / "golden_report.json").read_bytes()


def field_names(cls: type) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_report_document_keys_are_the_record_fields_and_its_mappings_are_copies():
    scenario = parse_scenario(shipped_scenario_paths()["cpt_link_toy"].read_bytes())
    report = run_scenario(scenario, scenario.effective_tolerances())
    report = dataclasses.replace(report, oracle=oracle_compare(scenario, report))
    before = serialize_report(report)
    doc = report_jsonable(report)
    assert [rec.keys() for rec in doc["records"]] == [{"index", "detector"} | field_names(Verdict)] * len(report.records)
    assert [rec.keys() for rec in doc["oracle"]] == [{"index"} | field_names(OracleRecord)] * len(report.records)
    assert doc["provenance"].keys() == field_names(Provenance)
    assert doc["provenance"]["tolerances"].keys() == field_names(Tolerances)
    for rec in doc["records"]:
        rec["witness"]["added"] = 1.0
    for rec in doc["oracle"]:
        rec["truths"].clear()
    assert serialize_report(report) == before


def test_shipped_scenarios_round_trip():
    for path in shipped_scenario_paths().values():
        raw = path.read_bytes()
        assert serialize_scenario(parse_scenario(raw)) == raw


def test_shipped_scenarios_equal_their_builders():
    """Each shipped file is what scripts/gen_scenarios.py writes, so it stays on the compact route."""
    spec = importlib.util.spec_from_file_location("gen_scenarios", GEN_SCENARIOS)
    gen_scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_scenarios)
    paths = shipped_scenario_paths()
    assert sorted(paths) == sorted(gen_scenarios.SHIPPED)
    for stem, model in gen_scenarios.SHIPPED.items():
        assert serialize_scenario(build_model_scenario(model)) == paths[stem].read_bytes(), stem


# Malformed matrices and states: the per-entry walker names the first
# offending entry. numpy alone would read true and "1" as 1.0 and accept them.
SITES = {
    "matrices.hamiltonian": lambda d: d["matrices"]["hamiltonian"],
    "symmetries[0].unitary_part": lambda d: d["symmetries"][0]["unitary_part"],
    "states.ground": lambda d: d["states"]["ground"],
}
NOT_FINITE = "complex entries must hold finite numbers"
NOT_A_PAIR = "complex entries must be [re, im] pairs"
BAD_ENTRIES = {
    "true": ([True, 0.0], NOT_FINITE),
    "string": (["1", 0.0], NOT_FINITE),
    "null": ([None, 0.0], NOT_FINITE),
    "nan": ([float("nan"), 0.0], NOT_FINITE),
    "infinity": ([float("inf"), 0.0], NOT_FINITE),
    "one_element": ([0.0], NOT_A_PAIR),
    "three_element": ([0.0, 0.0, 0.0], NOT_A_PAIR),
    "nested_list": ([[0.0, 0.0], [0.0, 0.0]], NOT_FINITE),
}


def _set_entry(doc: dict, site: str, entry: object) -> str:
    """Put ``entry`` at row 1 (column 0 for a matrix) and return its path."""
    value = SITES[site](doc)
    if site == "states.ground":
        value[1] = entry
        return f"{site}[1]"
    value[1][0] = entry
    return f"{site}[1][0]"


@pytest.mark.parametrize("site", sorted(SITES))
@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
def test_malformed_entry_message_is_exact(site, case):
    entry, message = BAD_ENTRIES[case]
    doc = json.loads(FROZEN_SCENARIO_BYTES)
    path = _set_entry(doc, site, entry)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc).encode())
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "site, expected",
    [
        ("matrices.hamiltonian", "matrices.hamiltonian[1]: expected 2 columns"),
        ("symmetries[0].unitary_part", "symmetries[0].unitary_part[1]: expected 2 columns"),
        ("states.ground", "states.ground: expected 2 entries"),
    ],
)
def test_ragged_array_message_is_exact(site, expected):
    doc = json.loads(FROZEN_SCENARIO_BYTES)
    value = SITES[site](doc)
    if site == "states.ground":
        del value[1]
    else:
        value[1] = value[1][:1]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc).encode())
    assert str(err.value) == expected


def _set_tau_zero(doc: dict, value: object) -> str:
    doc["tolerances"]["tau_zero"] = value
    return "tolerances.tau_zero"


def _set_request_time(doc: dict, value: object) -> str:
    doc["requests"][0] = {"detector": "unitary_curie", "symmetry": "T", "state": "ground", "time": value}
    return "requests[0].time"


# An integer literal too large for a float is a non-finite number, not a crash.
OVERFLOW_SITES = {
    "matrix": (lambda d, n: _set_entry(d, "matrices.hamiltonian", [n, 0]), NOT_FINITE),
    "state": (lambda d, n: _set_entry(d, "states.ground", [0, n]), NOT_FINITE),
    "tau_zero": (_set_tau_zero, "expected a finite number"),
    "time": (_set_request_time, "expected a finite number"),
}


@pytest.mark.parametrize("site", sorted(OVERFLOW_SITES))
def test_integer_too_large_for_a_float_is_rejected_with_path(site):
    put, message = OVERFLOW_SITES[site]
    doc = json.loads(FROZEN_SCENARIO_BYTES)
    path = put(doc, 10**400)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc).encode())
    assert str(err.value) == f"{path}: {message}"


def test_scenario_jsonable_is_plain_json_and_serializes_canonically():
    for path in shipped_scenario_paths().values():
        raw = path.read_bytes()
        scenario = parse_scenario(raw)
        doc = scenario_jsonable(scenario)
        assert json.loads(json.dumps(doc)) == json.loads(raw)
        assert canonical_dumps(doc) == serialize_scenario(scenario) == raw


# Bit-exactness of the whole-array paths against the per-entry forms.

EDGE_REALS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
              1.0, -3.0, 2.0**60, 0.1]
reals = st.one_of(
    st.sampled_from(EDGE_REALS),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
complexes = st.builds(complex, reals, reals)


@st.composite
def complex_arrays(draw, min_side=0):
    side = st.integers(min_side, 5)
    shape = draw(st.one_of(st.tuples(side), st.tuples(side, side)))
    values = draw(st.lists(complexes, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    arr = np.array(values, dtype=np.complex128).reshape(shape)
    return arr.T if draw(st.booleans()) else arr


def _render_entries(raw: list | complex) -> str:
    """Per-entry reference: each ``[re, im]`` pair through ``_format_real``."""
    if isinstance(raw, complex):
        return f"[{_format_real(raw.real)},{_format_real(raw.imag)}]"
    return "[" + ",".join(map(_render_entries, raw)) + "]"


@given(complex_arrays())
def test_canonical_array_matches_per_entry_walk(arr):
    want = _render_entries(arr.tolist())
    assert canonical_dumps(arr) == canonical_dumps(arr.tolist()) == f"{want}\n".encode("ascii")
    # the scalar pieces before, between and after streamed arrays keep their places
    doc = {"a": [1, arr, "x"], "b": arr, "c": None}
    assert canonical_dumps(doc) == f'{{"a":[1,{want},"x"],"b":{want},"c":null}}\n'.encode("ascii")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_canonical_array_non_finite_error_matches_per_entry_walk(bad):
    arr = np.array([[1.0, complex(0.5, bad)]])
    with pytest.raises(ScenarioError) as want:
        canonical_dumps(arr.tolist())
    with pytest.raises(ScenarioError) as got:
        canonical_dumps(arr)
    assert str(got.value) == str(want.value)


@given(complex_arrays(min_side=1), st.data())
def test_streamed_array_with_a_non_finite_entry_raises_the_scalar_error(arr, data):
    bad = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    for _ in range(data.draw(st.integers(1, 3))):
        index = tuple(data.draw(st.integers(0, n - 1)) for n in arr.shape)
        entry = arr[index]
        arr[index] = complex(bad, entry.imag) if data.draw(st.booleans()) else complex(entry.real, bad)
    with pytest.raises(ScenarioError) as want:
        _render_entries(arr.tolist())
    with pytest.raises(ScenarioError) as got:
        canonical_dumps({"m": arr})
    assert str(got.value) == str(want.value)


def _dim_128_scenario() -> Scenario:
    dim = 128
    h = random_hermitian(dim, 11)
    return Scenario(
        dim=dim,
        matrices={"hamiltonian": h, "h0": np.diag(np.diag(h)), "smatrix": random_unitary(dim, 12)},
        symmetries={
            "R": SymmetryTransform(random_unitary(dim, 13), antilinear=False, label="R"),
            "T": SymmetryTransform(np.eye(dim, dtype=complex), antilinear=True, label="T"),
        },
        states={"psi": random_unitary(dim, 14)[:, 0]},
        requests=(
            Request("wigner", {"symmetry": "T"}),
            Request("kabir", {"symmetry": "T", "state_in": "psi", "state_out": "psi"}),
        ),
    )


def test_serializing_a_dim_128_scenario_costs_about_its_own_size():
    scenario = _dim_128_scenario()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        data = serialize_scenario(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the document, the buffer's growth slack and one array's worth of copies
    assert peak - before < 1.25 * len(data) + 10**6


def test_parsing_a_dim_128_scenario_costs_under_twice_its_size():
    data = serialize_scenario(_dim_128_scenario())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        parse_scenario(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one array's decoding, about 1.3 times the document: the spliced payloads are views of it, and a
    # copy of every payload (about half the document) or a whole-payload boolean mask would add to it
    assert peak - before < 1.5 * len(data)


def test_serializing_a_dim_128_scenario_on_one_cpu_costs_about_its_own_size(monkeypatch):
    usable_cpus(monkeypatch, 1)
    forks = count_forks(monkeypatch)
    test_serializing_a_dim_128_scenario_costs_about_its_own_size()
    assert forks == []


# The format workers: the rows of a document's arrays formatted in slices over forked children.


def slice_texts(value: object, cpus: int) -> list[bytes]:
    """The bytes of each slice ``canonical_dumps`` cuts ``value`` into at ``cpus`` usable CPUs."""
    units = tvd.scenario._units(value)
    return [tvd.scenario._format(units[start:stop], io.BytesIO()).getvalue() for start, stop in tvd.scenario._slices(units, cpus)]


def ramp(*shape: int) -> np.ndarray:
    return np.arange(np.prod(shape), dtype=np.complex128).reshape(shape)


@pytest.mark.parametrize(
    "value, want",
    [
        # 32 floats at two CPUs: two shares of 16 floats, so the cut falls after a matrix's second row
        (ramp(4, 4), [b"[[[0,0],[1,0],[2,0],[3,0]],[[4,0],[5,0],[6,0],[7,0]]", b",[[8,0],[9,0],[10,0],[11,0]],[[12,0],[13,0],[14,0],[15,0]]]\n"]),
        # at an array boundary: the text between the arrays opens the second slice
        ([ramp(2, 2), ramp(2, 2)], [b"[[[[0,0],[1,0]],[[2,0],[3,0]]", b"],[[[0,0],[1,0]],[[2,0],[3,0]]]]\n"]),
        # around a state, which is one row
        ({"m": ramp(2, 2), "s": ramp(4)}, [b'{"m":[[[0,0],[1,0]],[[2,0],[3,0]]', b'],"s":[[0,0],[1,0],[2,0],[3,0]]}\n']),
        ({"s": ramp(4), "t": ramp(4)}, [b'{"s":[[0,0],[1,0],[2,0],[3,0]]', b',"t":[[0,0],[1,0],[2,0],[3,0]]}\n']),
    ],
    ids=["inside_a_matrix", "at_an_array_boundary", "before_a_state", "after_a_state"],
)
def test_format_workers_cut_at_rows(value, want, monkeypatch):
    usable_cpus(monkeypatch, 1, 8)
    serial = canonical_dumps(value)
    assert slice_texts(value, 2) == want and b"".join(want) == serial
    forks = count_forks(monkeypatch)
    usable_cpus(monkeypatch, 2)
    assert canonical_dumps(value) == serial
    assert len(forks) == 1


@given(
    st.lists(st.one_of(complex_arrays(), st.sampled_from([None, "x", 0.5, -0.0])), min_size=1, max_size=5),
    st.integers(2, 4),
    st.integers(1, 24),
)
def test_format_workers_give_the_one_cpu_bytes(items, cpus, floats):
    doc = {"items": items, "last": items[-1]}
    with pytest.MonkeyPatch.context() as mp:
        usable_cpus(mp, 1, floats)
        serial = canonical_dumps(doc)
        forks = count_forks(mp)
        usable_cpus(mp, cpus)
        got = canonical_dumps(doc)
        slices = slice_texts(doc, cpus)
    assert got == serial == b"".join(slices)
    assert len(forks) == len(slices) - 1 < cpus
    assert_no_children()


@given(st.lists(st.integers(0, 40), max_size=30), st.integers(1, 5), st.integers(1, 50))
def test_format_slices_are_contiguous_balanced_and_large_enough(widths, cpus, floats):
    # a width of 0 stands for text; any other for a row of that many floats
    units = ["x" if width == 0 else (np.zeros((1, width)), 0, "") for width in widths]
    with mock.patch.object(tvd._workers, "SHARE_FLOATS", floats):
        slices = tvd.scenario._slices(units, cpus)
    assert [start for start, _ in slices] == [0] + [stop for _, stop in slices[:-1]]
    assert slices[-1][1] == len(units)
    sizes = [sum(widths[start:stop]) for start, stop in slices]
    assert len(slices) <= max(1, min(cpus, sum(widths) // floats))
    if len(slices) > 1:
        assert min(sizes) >= floats
        # each slice but the last closes at the first row that takes it to an equal share
        share = sum(widths) / min(cpus, sum(widths) // floats)
        assert all(size - widths[stop - 1] < share <= size for size, (_, stop) in zip(sizes[:-1], slices))


def test_a_failed_format_worker_leaves_its_slice_to_the_caller(monkeypatch):
    doc = {"a": ramp(6, 6), "b": [ramp(5), ramp(3, 3)], "c": -0.0}
    usable_cpus(monkeypatch, 1, 8)
    serial = canonical_dumps(doc)
    forks = count_forks(monkeypatch)
    usable_cpus(monkeypatch, 3)
    # every failure kind of a child is tested on tvd._workers.scatter; this pins the format fallback
    monkeypatch.setattr(tvd._workers, "_send", send_half)
    assert canonical_dumps(doc) == serial
    assert len(forks) == 2


def test_small_documents_and_every_report_fork_no_worker_at_any_cpu_count(monkeypatch):
    scenario = _dim_128_scenario()
    # a report holds no complex arrays, so however long it is, it is all text
    report = run_scenario(scenario, scenario.effective_tolerances())
    report = dataclasses.replace(report, oracle=oracle_compare(scenario, report, scenario.effective_tolerances()))
    assert all(type(unit) is str for unit in tvd.scenario._units(report_jsonable(report)))
    usable_cpus(monkeypatch, 1)
    reports = [serialize_report(report)]
    shipped = {}
    for path in shipped_scenario_paths().values():
        parsed = parse_scenario(path.read_bytes())
        reports.append(serialize_report(run_scenario(parsed, parsed.effective_tolerances())))
        shipped[path.read_bytes()] = outcome(parse_scenario, path.read_bytes())
    forks = count_forks(monkeypatch)
    for cpus in (1, 2, 8):
        usable_cpus(monkeypatch, cpus)
        assert serialize_scenario(small_scenario()) == FROZEN_SCENARIO_BYTES
        got = [serialize_report(report)]
        for data, arrays in shipped.items():
            # decoded over every usable CPU, as tvd oracle decodes its file
            assert outcome(partial(tvd.scenario._parse_scenario, cpus=cpus), data) == arrays
            parsed = tvd.scenario._parse_scenario(data, cpus)
            assert serialize_scenario(parsed) == data
            got.append(serialize_report(run_scenario(parsed, parsed.effective_tolerances())))
        assert got == reports
    assert forks == []


def _walk(raw: list) -> np.ndarray:
    """Per-entry reference: one ``complex(re, im)`` per ``[re, im]`` pair."""
    if isinstance(raw[0][0], list):
        return np.array([[complex(re, im) for re, im in row] for row in raw], dtype=complex)
    return np.array([complex(re, im) for re, im in raw], dtype=complex)


UNIT_PHASES = [complex(1.0, 0.0), complex(-1.0, -0.0), complex(-0.0, 1.0), complex(0.0, -1.0), complex(-0.0, -1.0)]


@st.composite
def io_scenarios(draw):
    dim = draw(st.integers(1, 4))
    matrix = np.array(draw(st.lists(complexes, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    # a diagonal of unit phases keeps the symmetry unitary; off-diagonal zeros carry random signs
    signed_zero = st.sampled_from([0.0, -0.0])
    zeros = draw(st.lists(st.builds(complex, signed_zero, signed_zero), min_size=dim * dim, max_size=dim * dim))
    unitary = np.array(zeros).reshape(dim, dim)
    np.fill_diagonal(unitary, draw(st.lists(st.sampled_from(UNIT_PHASES), min_size=dim, max_size=dim)))
    state = np.array(draw(st.lists(st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)), min_size=dim, max_size=dim)))
    norm = np.linalg.norm(state)
    state = state / norm if norm > 1e-3 else np.eye(dim, dtype=complex)[0] * complex(-0.0, 1.0)
    return Scenario(
        dim=dim,
        matrices={"hamiltonian": matrix},
        symmetries={"U": SymmetryTransform(unitary, antilinear=False, label="U")},
        states={"psi": state},
    )


@given(io_scenarios())
def test_parsed_arrays_match_per_entry_walk_bit_for_bit(scenario):
    # serialize_scenario writes -0.0 as 0; json.dumps keeps the sign
    for data in (serialize_scenario(scenario), json.dumps(scenario_jsonable(scenario)).encode()):
        doc = json.loads(data)
        parsed = parse_scenario(data)
        assert parsed.matrices["hamiltonian"].tobytes() == _walk(doc["matrices"]["hamiltonian"]).tobytes()
        assert parsed.symmetries["U"].unitary_part.tobytes() == _walk(doc["symmetries"][0]["unitary_part"]).tobytes()
        assert parsed.states["psi"].tobytes() == _walk(doc["states"]["psi"]).tobytes()
        assert serialize_scenario(parsed) == serialize_scenario(scenario)


def test_negative_zero_real_part_survives_a_positive_imaginary_part():
    doc = json.loads(FROZEN_SCENARIO_BYTES)
    doc["matrices"]["hamiltonian"][0][1] = [-0.0, 0.5]
    parsed = parse_scenario(json.dumps(doc).encode())
    assert np.signbit(parsed.matrices["hamiltonian"][0, 1].real)
    assert parsed.matrices["hamiltonian"].tobytes() == _walk(doc["matrices"]["hamiltonian"]).tobytes()


big_ints = st.builds(lambda sign, n: sign * n, st.sampled_from([1, -1]), st.integers(2**53 + 1, 2**1000))


@given(big_ints, big_ints)
def test_large_json_integers_parse_like_complex(re_part, im_part):
    doc = json.loads(FROZEN_SCENARIO_BYTES)
    doc["matrices"]["hamiltonian"][1][0] = [re_part, im_part]
    doc["matrices"]["hamiltonian"][0][0] = [2**63 + 1, 0]
    parsed = parse_scenario(json.dumps(doc).encode())
    assert parsed.matrices["hamiltonian"][1, 0:1].tobytes() == np.array([complex(re_part, im_part)]).tobytes()
    assert parsed.matrices["hamiltonian"][0, 0:1].tobytes() == np.array([complex(2**63 + 1, 0)]).tobytes()


# The compact route (tvd.scenario._splice and _read_compact) against the
# nested parse of the same text, which is its reference and the only route
# that reports errors.


def outcome(parse, data: bytes) -> tuple:
    """Everything a parse returns, arrays as bytes; or the error text and path."""
    try:
        s = parse(data)
    except ScenarioError as exc:
        return ("error", str(exc), exc.path)
    return (
        s.dim,
        {name: m.tobytes() for name, m in s.matrices.items()},
        {label: (g.unitary_part.tobytes(), g.antilinear) for label, g in s.symmetries.items()},
        {name: v.tobytes() for name, v in s.states.items()},
        s.requests,
        s.tolerance_overrides,
        s.seed,
    )


def assert_parses_like_nested(data: bytes) -> tuple:
    got = outcome(parse_scenario, data)
    assert got == outcome(tvd.scenario._parse_nested, data)
    return got


def parse_compact_only(data: bytes):
    """parse_scenario with the nested parse unreachable: only the compact route can answer."""
    with mock.patch.object(tvd.scenario, "_parse_nested", side_effect=AssertionError("fell back")):
        return parse_scenario(data)


@given(io_scenarios())
def test_canonical_documents_take_the_compact_route_bit_for_bit(scenario):
    data = serialize_scenario(scenario)
    assert outcome(parse_compact_only, data) == outcome(tvd.scenario._parse_nested, data)


@st.composite
def hand_formatted(draw, value, numbers=None):
    """``value`` as JSON text with random whitespace and number spellings, and repeated keys."""
    gap = st.sampled_from(["", " ", "\n  "])
    if isinstance(value, dict):
        items = []
        for key, item in value.items():
            if draw(st.booleans()):
                items.append((key, "[[[0,0]]]"))  # an earlier duplicate: the last one wins
            items.append((key, draw(hand_formatted(item, numbers))))
        sep = "," + draw(gap)
        return "{" + draw(gap) + sep.join(f"{json.dumps(k)}{draw(gap)}:{draw(gap)}{v}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + draw(gap) + ("," + draw(gap)).join(draw(hand_formatted(v, numbers)) for v in value) + "]"
    if isinstance(value, float):
        if numbers is not None:
            value = draw(numbers)
        if isinstance(value, int):
            return str(value)
        exponent = "%.17e" % value
        spellings = [repr(value), "%.17g" % value, "%.17E" % value, exponent, exponent.replace("e+", "e")]
        if value.is_integer() and value != 0.0:
            spellings.append(str(int(value)))
        return draw(st.sampled_from(spellings))
    return json.dumps(value)


@given(st.data(), io_scenarios())
def test_hand_formatted_documents_parse_like_nested_lists(data, scenario):
    doc = scenario_jsonable(scenario)
    # the Hamiltonian may hold integers above 2**53 and any spelling of a float
    hamiltonian = doc["matrices"].pop("hamiltonian")
    text = data.draw(hand_formatted(doc))
    matrix = data.draw(hand_formatted(hamiltonian, st.one_of(reals, big_ints)))
    text = text[:-1] + ',"matrices":{"hamiltonian":' + matrix + "}}"
    assert_parses_like_nested(text.encode())


HAMILTONIAN = b"[[[1,0],[0,0.5]],[[0,-0.5],[2,0]]]"
STATE = b"[[1,0],[0,0]]"
UNITARY = b"[[[1,0],[0,0]],[[0,0],[1,0]]]"
PAYLOADS = {b"hamiltonian": HAMILTONIAN, b"ground": STATE, b"unitary_part": UNITARY}


def with_payload(key: bytes, text: bytes) -> bytes:
    """FROZEN_SCENARIO_BYTES with the array under ``key`` replaced by ``text``."""
    old = b'"%s":%s' % (key, PAYLOADS[key])
    assert FROZEN_SCENARIO_BYTES.count(old) == 1
    return FROZEN_SCENARIO_BYTES.replace(old, b'"%s":%s' % (key, text))


# one token of each array replaced by X
TOKEN_SITES = {
    b"hamiltonian": b"[[[1,0],[0,0.5]],[[X,-0.5],[2,0]]]",
    b"ground": b"[[1,0],[X,0]]",
    b"unitary_part": b"[[[1,0],[0,0]],[[0,0],[1,X]]]",
}
TOKENS = [
    # rejected by JSON, though numpy's text reader takes most of them
    "+1", "01", "-01", "1.", ".5", "1.e5", "1e", "-", "inf", "nan", "Infinity", "-Infinity", "NaN", "0x1p3",
    # valid JSON: -0 reads as integer zero, so +0.0; the rest read as floats or big integers
    "-0", "0", "1E-5", "1e+05", "1e5", "-0.0", "5e-324", "-1e-300", "9007199254740993", "1" + "0" * 30,
    # too large for a float
    "1e400", "1" + "0" * 400,
]


@pytest.mark.parametrize("site", sorted(TOKEN_SITES))
@pytest.mark.parametrize("token", TOKENS)
def test_each_number_token_reads_as_in_nested_lists(site, token):
    assert_parses_like_nested(with_payload(site, TOKEN_SITES[site].replace(b"X", token.encode())))


def test_minus_zero_reads_as_plus_zero():
    parsed = parse_compact_only(with_payload(b"hamiltonian", b"[[[1,-0],[0,0.5]],[[0,-0.5],[2,0]]]"))
    assert not np.signbit(parsed.matrices["hamiltonian"][0, 0].imag)


# whole arrays: misplaced tokens, whitespace, wrong depth or count
PAYLOAD_CASES = {
    "state_trailing_comma": (b"ground", b"[[1,],[0,0]]"),
    "state_token_after_bracket": (b"ground", b"[[1,]0,[0,0]]"),
    "state_token_before_bracket": (b"ground", b"[[,1],0[0,0]]"),
    "state_sign_before_bracket": (b"ground", b"[[1,0],-[0,0]]"),
    "state_leading_comma": (b"ground", b"[[,1],[0,0]]"),
    "state_extra_comma": (b"ground", b"[[1,0],[0,0],]"),
    "state_whitespace": (b"ground", b"[[1, 0],\n [0,0] ]"),
    "state_wrong_depth": (b"ground", b"[[[1,0],[0,0]]]"),
    "state_wrong_count": (b"ground", b"[[1,0]]"),
    "state_ragged": (b"ground", b"[[1,0,0],[0]]"),
    "state_unclosed": (b"ground", b"[[1,0],[0,0]"),
    "matrix_ragged": (b"hamiltonian", b"[[[1,0],[0,0.5,0]],[[-0.5],[2,0]]]"),
    "matrix_token_after_bracket": (b"hamiltonian", b"[[[1,1]5,[0,0.5]],[[0,-0.5],[2,0]]]"),
    "matrix_token_between_rows": (b"hamiltonian", b"[[[1,0],[0,0.5]]1,[[0,-0.5],[2,0]]]"),
    "matrix_whitespace": (b"hamiltonian", b"[[[1,0], [0,0.5]], [[0,-0.5],[2,0]]]"),
    "matrix_wrong_depth": (b"hamiltonian", b"[[1,0],[0,0.5]]"),
    "matrix_too_deep": (b"hamiltonian", b"[[[[1,0],[0,0.5]],[[0,-0.5],[2,0]]]]"),
    "matrix_not_finite": (b"hamiltonian", b"[[[1,0],[0,0.5]],[[0,-0.5],[2,1e999]]]"),
    # empty matrix slots; all but the ,, keep the layout
    "matrix_empty_pair": (b"hamiltonian", b"[[[1,0],[,]],[[0,-0.5],[2,0]]]"),
    "matrix_double_comma_in_row": (b"hamiltonian", b"[[[1,0],[0,0.5]],[[0,-0.5],[2,,0]]]"),
    "matrix_second_row_leading_comma": (b"hamiltonian", b"[[[1,0],[0,0.5]],[[,-0.5],[2,0]]]"),
    "matrix_first_slot_empty": (b"hamiltonian", b"[[[,0],[0,0.5]],[[0,-0.5],[2,0]]]"),
    "matrix_last_slot_empty": (b"hamiltonian", b"[[[1,0],[0,0.5]],[[0,-0.5],[2,]]]"),
    # a token moved across a bracket into the slot it empties: the JSON decoder
    # still reads one number per slot, so only the empty-slot check rejects these
    "matrix_token_moved_after_bracket": (b"hamiltonian", b"[[[1,0],[0,]0.5],[[0,-0.5],[2,0]]]"),
    "matrix_token_moved_before_bracket": (b"hamiltonian", b"[[[1,0],[0,0.5]],[[0,-0.5],2[,0]]]"),
    "unitary_as_state": (b"unitary_part", STATE),
}


@pytest.mark.parametrize("case", sorted(PAYLOAD_CASES))
def test_malformed_payload_gives_the_nested_result(case):
    assert_parses_like_nested(with_payload(*PAYLOAD_CASES[case]))


# cases whose text between the arrays does not parse as JSON, so that no array is decoded
UNREAD_TEXT_CASES = {"matrix_too_deep", "state_extra_comma", "state_unclosed", "state_whitespace"}


def decode_children(case: str, cpus: int) -> int:
    """The decode workers the three arrays of a ``PAYLOAD_CASES`` document get at ``cpus`` CPUs, one array per share."""
    return 0 if case in UNREAD_TEXT_CASES else min(cpus, 3) - 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(PAYLOAD_CASES) + ["valid"])
def test_numbers_decoded_before_the_walk_give_the_serial_result(case, cpus, monkeypatch):
    data = with_payload(*PAYLOAD_CASES[case]) if case != "valid" else FROZEN_SCENARIO_BYTES
    serial = outcome(parse_scenario, data)
    if case == "valid" and cpus > 1:
        # the nested parse would give the same arrays: only the compact route may answer
        monkeypatch.setattr(tvd.scenario, "_parse_nested", mock.Mock(side_effect=AssertionError("fell back")))
    usable_cpus(monkeypatch, cpus, floor=1)
    forks = count_forks(monkeypatch)
    assert outcome(partial(tvd.scenario._parse_scenario, cpus=cpus), data) == serial
    assert len(forks) == decode_children(case, cpus)


@pytest.mark.parametrize("case", sorted(PAYLOAD_CASES))
def test_malformed_payload_fails_the_oracle_at_two_cpus_as_at_one(case, tmp_path, capsysbinary, monkeypatch):
    path = tmp_path / "scenario.json"
    path.write_bytes(with_payload(*PAYLOAD_CASES[case]))
    forks = count_forks(monkeypatch)
    results = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus, floor=1)
        code = tvd.cli.main(["oracle", "--scenario", str(path), "--format", "json"])
        results.append((code, *capsysbinary.readouterr()))
        assert len(forks) == decode_children(case, cpus)
        assert_no_children()
    assert results[1] == results[0]


def test_a_dim_128_model_is_written_and_read_with_workers_at_two_cpus(monkeypatch):
    scenario = build_model_scenario("t-symmetric-s", {"dim": 128})
    usable_cpus(monkeypatch, 1)
    data = serialize_scenario(scenario)
    forks = count_forks(monkeypatch)
    usable_cpus(monkeypatch, 2)
    assert serialize_scenario(scenario) == data
    assert len(forks) == 1
    assert outcome(partial(tvd.scenario._parse_scenario, cpus=2), data) == outcome(parse_scenario, data)
    assert len(forks) == 2


def test_every_array_a_decode_worker_sends_comes_back_as_frozen_keeps_it(monkeypatch):
    data = serialize_scenario(build_model_scenario("t-symmetric-s", {"dim": 128}))
    serial = {key: a.tobytes() for key, a in tvd.scenario._read_arrays(tvd.scenario._splice(data)[1], 128, 1).items()}
    read_here, freezes = [], []
    real_read, real_frozen = tvd.scenario._read_compact, tvd.scenario.frozen

    def reading_here(payload, dim):
        read_here.append(real_read(payload, dim))
        return read_here[-1]

    monkeypatch.setattr(tvd.scenario, "_read_compact", reading_here)
    monkeypatch.setattr(tvd.scenario, "frozen", lambda a: freezes.append(a) or real_frozen(a))
    forks = count_forks(monkeypatch)
    arrays = tvd.scenario._read_arrays(tvd.scenario._splice(data)[1], 128, 2)
    sent = [a for a in arrays.values() if all(a is not b for b in read_here)]
    assert len(forks) == 1 and sent
    # only the arrays read here were frozen: each sent one already views immutable bytes, and is not copied again
    assert len(freezes) == len(read_here)
    assert all(real_frozen(a) is a and not a.flags.writeable for a in sent)
    assert {key: a.tobytes() for key, a in arrays.items()} == serial


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("arrays", [True, False], ids=["with_arrays", "without_arrays"])
@pytest.mark.parametrize("dim", [b"0", b"-1", b"true", b"2.0", b'"2"', b"null"])
def test_a_dim_that_is_not_an_integer_of_at_least_one_is_a_dim_error(dim, arrays, cpus, monkeypatch):
    data = FROZEN_SCENARIO_BYTES if arrays else b'{"dim":2,"requests":[],"schema_version":1}'
    usable_cpus(monkeypatch, cpus, floor=1)
    forks = count_forks(monkeypatch)
    got = outcome(partial(tvd.scenario._parse_scenario, cpus=cpus), data.replace(b'"dim":2', b'"dim":' + dim))
    assert got == ("error", "dim: dim must be an integer >= 1", "dim")
    assert forks == []


# the pattern at the first and at the last byte, at both length parities
@example(b"[,")
@example(b",]")
@example(b"[,0")
@example(b"0,]")
@example(b",]01")
@example(b"01[,")
@given(st.text(alphabet="[],+-.0123456789eE", min_size=2, max_size=64).map(str.encode))
def test_empty_slot_check_finds_what_the_substring_scans_find(payload):
    assert tvd.scenario._has_empty_slot(payload) == (b"[," in payload or b",]" in payload)


@pytest.mark.parametrize(
    "data, error",
    [
        (b'{"schema_version":1,"dim":"[[1', "Unterminated string"),
        (b'{"schema_version":1,"dim":1,"states":{"s":[[1,0]', "Expecting"),
    ],
    ids=["bracket_in_unterminated_string", "unclosed_array"],
)
def test_a_document_the_splice_cannot_cut_gets_the_nested_error(data, error):
    assert tvd.scenario._splice(data) is None
    kind, message, _ = assert_parses_like_nested(data)
    assert kind == "error" and message.startswith("invalid JSON: ") and error in message


def test_label_holding_brackets_keeps_the_compact_route():
    data = FROZEN_SCENARIO_BYTES.replace(b'"T"', b'"[[1,0]]"')
    assert outcome(parse_compact_only, data) == assert_parses_like_nested(data)
    assert list(parse_scenario(data).symmetries) == ["[[1,0]]"]


def test_label_with_a_backslash_escape_parses_like_nested():
    data = FROZEN_SCENARIO_BYTES.replace(b'"label":"T"', b'"label":"\\u0054"')
    assert assert_parses_like_nested(data)[0] == 2


def test_a_string_spelling_a_placeholder_is_not_a_payload():
    # the Hamiltonian is the document's first array; its duplicate key wins
    data = with_payload(b"hamiltonian", HAMILTONIAN + b',"hamiltonian":"\\u00000"')
    assert assert_parses_like_nested(data) == ("error", "matrices.hamiltonian: expected 2 rows", "matrices.hamiltonian")


def test_a_payload_dropped_by_a_duplicate_key_is_still_checked():
    bad = HAMILTONIAN.replace(b"0.5", b"05", 1)
    data = with_payload(b"hamiltonian", bad + b',"hamiltonian":' + HAMILTONIAN)
    assert assert_parses_like_nested(data)[1].startswith("invalid JSON")


def test_an_array_outside_a_matrix_or_state_is_never_read():
    data = FROZEN_SCENARIO_BYTES.replace(b'"label":"T"', b'"label":[[1,0]]').replace(
        b'[{"detector":"wigner","symmetry":"T"}]', b"[]"
    )
    assert assert_parses_like_nested(data) == (
        "error", "symmetries[0].label: label must be a non-empty string", "symmetries[0].label",
    )


def test_a_huge_dim_allocates_nothing_before_the_payload_confirms_it():
    data = FROZEN_SCENARIO_BYTES.replace(b'"dim":2', b'"dim":1000000')
    tracemalloc.start()
    try:
        got = assert_parses_like_nested(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got[0] == "error"
    assert peak < 10**7


def test_invalid_utf8_is_a_document_error():
    for data in (
        b'{"dim":1,"requests":[],"schema_version":1,"x":"\xff"}',
        FROZEN_SCENARIO_BYTES.replace(b'"seed":5', b'"seed":5,"x":"\xff"'),
    ):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert err.value.path == "document"
        assert str(err.value).startswith("document: invalid UTF-8: 'utf-8' codec can't decode byte 0xff")


# Parsed and built scenarios hold read-only views over immutable bytes, which memo keys reuse.


def test_parsed_arrays_cannot_be_made_writable():
    compact = parse_scenario(FROZEN_SCENARIO_BYTES)
    nested = parse_scenario(json.dumps(json.loads(FROZEN_SCENARIO_BYTES)).encode())
    built = small_scenario()
    arrays = [built.symmetries["T"].unitary_part, built.matrices["hamiltonian"], built.states["ground"]]
    for parsed in (compact, nested):
        arrays += [parsed.matrices["hamiltonian"], parsed.states["ground"], parsed.symmetries["T"].unitary_part]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("copy_of", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
def test_pickled_and_deep_copied_scenarios_keep_frozen_arrays(copy_of):
    scenario = parse_scenario(shipped_scenario_paths()["kaon_decay"].read_bytes())
    copied = copy_of(scenario)
    arrays = [*copied.matrices.values(), *copied.states.values()]
    arrays += [g.unitary_part for g in copied.symmetries.values()]
    assert arrays and all(_frozen_bytes(arr) is not None for arr in arrays)
    assert serialize_scenario(copied) == serialize_scenario(scenario)
    assert copied.requests == scenario.requests
    t = copy_of(scenario.symmetries["CP"])
    assert _frozen_bytes(t.unitary_part) is not None
    assert (t.antilinear, t.label) == (False, "CP")
    assert np.array_equal(t.unitary_part, scenario.symmetries["CP"].unitary_part)


def test_memo_key_of_a_parsed_matrix_holds_its_own_buffer():
    parsed = parse_scenario(FROZEN_SCENARIO_BYTES)
    built = small_scenario().matrices["hamiltonian"]
    for arr in (parsed.matrices["hamiltonian"], parsed.symmetries["T"].unitary_part, built):
        ((shape, dtype, content),) = _content_key(arr)
        assert content is arr.base
        assert (shape, dtype, content) == (arr.shape, arr.dtype.str, arr.tobytes())
    # equal content from another parse meets the same memo entry
    again = parse_scenario(FROZEN_SCENARIO_BYTES).matrices["hamiltonian"]
    assert again.base is not parsed.matrices["hamiltonian"].base
    assert herm_eig(again) is herm_eig(parsed.matrices["hamiltonian"])


def test_other_arrays_key_by_a_copy_of_their_content():
    h = parse_scenario(FROZEN_SCENARIO_BYTES).matrices["hamiltonian"]
    # views that do not cover the buffer in C order
    for view in (h.T, h[1], h[:, 0]):
        assert _content_key(view) == ((view.shape, view.dtype.str, view.tobytes()),)
    built = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
    key = _content_key(built)
    assert key == ((built.shape, built.dtype.str, built.tobytes()),)
    built[0, 0] += 0.25
    assert _content_key(built) != key
    # read-only, but it owns its memory and could be made writable again
    built.setflags(write=False)
    assert _content_key(built)[0][2] is not _content_key(built)[0][2]
    fixed = frozen(built)
    assert fixed is not built and frozen(fixed) is fixed
