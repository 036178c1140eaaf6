import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvd import (
    Request,
    Scenario,
    ScenarioError,
    SymmetryTransform,
    canonical_dumps,
    parse_scenario,
    run_scenario,
    scenario_jsonable,
    serialize_report,
    serialize_scenario,
    shipped_scenario_paths,
)

DATA_DIR = Path(__file__).parent / "data"

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
    assert "psi9" in str(err.value)


def test_rejects_non_unitary_symmetry():
    data = corrupt(lambda d: d["symmetries"][0]["unitary_part"].__setitem__(0, [[9.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ScenarioError):
        parse_scenario(data)


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
    assert "psychic" in str(err.value)


def test_rejects_request_without_required_matrix():
    def drop_matrix(d):
        del d["matrices"]["hamiltonian"]

    with pytest.raises(ScenarioError) as err:
        parse_scenario(corrupt(drop_matrix))
    assert "hamiltonian" in str(err.value)


def test_rejects_unnormalized_state():
    data = corrupt(lambda d: d["states"].__setitem__("ground", [[2.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "not normalized" in str(err.value)


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


def test_shipped_scenarios_round_trip():
    for path in shipped_scenario_paths().values():
        raw = path.read_bytes()
        assert serialize_scenario(parse_scenario(raw)) == raw


# Malformed matrices and states: the whole-array reader must hand every one
# of these to the per-entry walker, which names the first offending entry.
# numpy alone would read true and "1" as 1.0 and accept them.
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

EDGE_REALS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**60, 0.1]
reals = st.one_of(st.sampled_from(EDGE_REALS), st.floats(allow_nan=False, allow_infinity=False))
complexes = st.builds(complex, reals, reals)


@st.composite
def complex_arrays(draw):
    shape = draw(st.one_of(st.tuples(st.integers(1, 5)), st.tuples(st.integers(1, 4), st.integers(1, 4))))
    values = draw(st.lists(complexes, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    arr = np.array(values, dtype=np.complex128).reshape(shape)
    return arr.T if draw(st.booleans()) else arr


@given(complex_arrays())
def test_canonical_array_matches_per_entry_walk(arr):
    assert canonical_dumps(arr) == canonical_dumps(arr.tolist())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_canonical_array_non_finite_error_matches_per_entry_walk(bad):
    arr = np.array([[1.0, complex(0.5, bad)]])
    with pytest.raises(ScenarioError) as want:
        canonical_dumps(arr.tolist())
    with pytest.raises(ScenarioError) as got:
        canonical_dumps(arr)
    assert str(got.value) == str(want.value)


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
