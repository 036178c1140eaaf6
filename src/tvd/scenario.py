"""Scenario documents and report serialization.

A scenario is a JSON document declaring matrices, symmetries, states
and a list of detector requests. Parsing is strict: unknown fields are
rejected and every error names the offending path inside the document.

Serialization is canonical so that equal values produce identical
bytes: object keys are sorted, symmetries are ordered by label, complex
numbers are two-element ``[re, im]`` arrays and reals are rendered with
17 significant digits.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from . import __version__ as _tool_version
from .config import Tolerances
from .errors import ScenarioError
from .linalg import frozen
from .symmetry import SymmetryTransform
from .verdict import Verdict

SCHEMA_VERSION = 1

MATRIX_NAMES = ("hamiltonian", "h0", "v", "smatrix")

# detector name -> (required request fields, required matrices)
DETECTORS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "unitary_curie": (("symmetry", "state", "time"), ("hamiltonian",)),
    "scattering_curie": (("symmetry", "state_in", "state_out"), ("smatrix",)),
    "s_matrix_inference": (("symmetry",), ("h0", "smatrix")),
    "kabir": (("symmetry", "state_in", "state_out"), ("smatrix",)),
    "cpt_link": (("cpt_symmetry", "cp_symmetry"), ("hamiltonian",)),
    "wigner": (("symmetry",), ("hamiltonian",)),
}
_OPTIONAL_FIELDS: dict[str, tuple[str, ...]] = {"wigner": ("gap_tol",)}


@dataclass(frozen=True)
class Request:
    detector: str
    params: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    dim: int
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    symmetries: dict[str, SymmetryTransform] = field(default_factory=dict)
    states: dict[str, np.ndarray] = field(default_factory=dict)
    requests: tuple[Request, ...] = ()
    tolerance_overrides: dict[str, float] | None = None
    seed: int | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        # read-only like parsed arrays, so memo keys hold their buffers, not copies
        for name in ("matrices", "states"):
            object.__setattr__(self, name, {k: frozen(np.asarray(v)) for k, v in getattr(self, name).items()})

    def effective_tolerances(self, base: Tolerances | None = None) -> Tolerances:
        tol = base or Tolerances()
        if self.tolerance_overrides:
            tol = tol.replace(**self.tolerance_overrides)
        return tol


# ---------------------------------------------------------------------------
# canonical JSON


def _format_real(x: float) -> str:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ScenarioError(f"expected a real number, got {type(x).__name__}")
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ScenarioError(f"non-finite number {x!r} cannot be serialized")
    if x == 0.0:
        # JSON reads -0 back as integer zero, so the sign cannot survive
        return "0"
    return f"{x:.17g}"


def _canonical(value: object, out: list[str], buf: io.BytesIO) -> None:
    """Render ``value`` canonically: scalar pieces collect in ``out``, arrays go to ``buf``."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, (int, float)):
        out.append(_format_real(value))
    elif isinstance(value, complex):
        out.append(f"[{_format_real(value.real)},{_format_real(value.imag)}]")
    elif isinstance(value, np.complexfloating):
        _canonical(complex(value), out, buf)
    elif isinstance(value, (np.floating, np.integer)):
        _canonical(float(value), out, buf)
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise ScenarioError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _canonical(value[key], out, buf)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _canonical(item, out, buf)
        out.append("]")
    elif isinstance(value, np.ndarray):
        if value.dtype == np.complex128 and value.ndim in (1, 2):
            # + 0.0 folds -0.0 into 0.0, which '%.17g' renders as "0" like _format_real
            pairs = (np.ascontiguousarray(value) + 0.0).view(np.float64)
            if np.isfinite(pairs).all():
                _write_rows(pairs, out, buf)
                return
        _canonical(value.tolist(), out, buf)
    else:
        raise ScenarioError(f"cannot serialize value of type {type(value).__name__}")


def _flush(out: list[str], buf: io.BytesIO) -> None:
    buf.write("".join(out).encode("ascii"))
    out.clear()


def _write_rows(pairs: np.ndarray, out: list[str], buf: io.BytesIO) -> None:
    """Write a finite complex array, given as its float view, one row at a time."""
    _flush(out, buf)
    row = "[" + ",".join(["[%.17g,%.17g]"] * (pairs.shape[-1] // 2)) + "]"
    if pairs.ndim == 1:
        buf.write((row % tuple(pairs.tolist())).encode("ascii"))
        return
    buf.write(b"[")
    for i, entries in enumerate(pairs):
        if i:
            buf.write(b",")
        buf.write((row % tuple(entries.tolist())).encode("ascii"))
    buf.write(b"]")


def canonical_dumps(value: object) -> bytes:
    out: list[str] = []
    buf = io.BytesIO()
    _canonical(value, out, buf)
    out.append("\n")
    _flush(out, buf)
    # the buffer itself, trimmed to size, not a copy of it
    return buf.getvalue()


def _complex_pairs(a: np.ndarray) -> list:
    """The array as nested ``[re, im]`` lists of Python floats."""
    c = np.ascontiguousarray(a, dtype=complex)
    return c.view(np.float64).reshape(c.shape + (2,)).tolist()


# ---------------------------------------------------------------------------
# scenario parsing


def _reject_unknown(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"unknown field {key!r}", path or "document")


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise ScenarioError(message, path)


def _finite_real(x: object) -> bool:
    """True for an int or float that is finite as a float; an int too large for a float is not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _parse_complex_entry(entry: object, path: str) -> complex:
    _expect(
        isinstance(entry, (list, tuple)) and len(entry) == 2,
        "complex entries must be [re, im] pairs",
        path,
    )
    re_part, im_part = entry  # type: ignore[misc]
    for part in (re_part, im_part):
        _expect(_finite_real(part), "complex entries must hold finite numbers", path)
    return complex(re_part, im_part)


_JSON_REALS = {int, float}


def _whole_complex_array(raw: object, shape: tuple[int, ...]) -> np.ndarray | None:
    """Read nested ``[re, im]`` pairs of finite numbers in one numpy call.

    Returns None for any other input, so that the per-entry walker alone
    decides what is rejected and with which message. numpy would read
    ``true`` and ``"1"`` as 1.0, hence the leaf type check.
    """
    if type(raw) is not list:
        return None
    leaves: object = raw
    try:
        for _ in shape:
            leaves = chain.from_iterable(leaves)  # type: ignore[arg-type]
        if not set(map(type, leaves)) <= _JSON_REALS:  # type: ignore[arg-type]
            return None
        pairs = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if pairs.shape != shape + (2,) or not np.isfinite(pairs).all():
        return None
    # a view keeps the sign of a -0.0 real part; re + 1j * im would not
    return frozen(pairs.view(np.complex128).reshape(shape))


# Every byte a JSON number token can hold.
_NUMBER_BYTES = b"+-.0123456789Ee"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")


def _read_compact(payload: bytes, shape: tuple[int, ...]) -> np.ndarray | None:
    """Read a compact JSON array of ``[re, im]`` pairs at ``shape`` as one flat list.

    Returns None unless the array's brackets and commas are exactly those
    of the shape (their count is checked before anything sized by the
    shape is built) and no pair has an empty slot. With every bracket
    turned into a space, the JSON decoder then reads one number token per
    slot, as inside the nested array, and rejects any other token, which a
    space now parts from its slot's token.
    """
    shape += (2,)
    skeleton = payload.translate(None, _NUMBER_BYTES)
    length = 0
    for n in reversed(shape):
        length = n * length + n + 1  # n parts, n - 1 commas, two brackets
    if len(skeleton) != length:
        return None
    expected = b""
    for n in reversed(shape):
        expected = b"[" + b",".join([expected] * n) + b"]"
    if skeleton != expected or b"[," in payload or b",]" in payload:
        return None
    try:
        pairs = np.array(json.loads(b"[" + payload.translate(_BRACKETS_TO_SPACES) + b"]"), dtype=np.float64)
    except (json.JSONDecodeError, OverflowError):
        return None
    if not np.isfinite(pairs).all():
        return None
    return frozen(pairs.view(np.complex128).reshape(shape[:-1]))


def _splice(data: bytes) -> tuple[bytes, dict[str, bytes]] | None:
    """Cut each ``[[``-opening array outside a string out of a document.

    Each array becomes the string ``"\\u0000<k>"``. Without a backslash in
    the document, quote parity tells which brackets sit inside a string,
    and no string of the document can spell a placeholder. Returns the
    remaining text and the arrays by placeholder value, or None for a
    document with a backslash or an unclosed array or string.
    """
    if b"\\" in data:
        return None
    parts: list[bytes] = []
    payloads: dict[str, bytes] = {}
    last = pos = 0
    while (start := data.find(b"[[", pos)) >= 0:
        if data.count(b'"', pos, start) % 2:  # inside a string: go on after it
            pos = data.find(b'"', start) + 1
            if not pos:
                return None
            continue
        closer = b"]]]" if data[start + 2 : start + 3] == b"[" else b"]]"
        end = data.find(closer, start)
        if end < 0:
            return None
        pos = end + len(closer)
        parts += (data[last:start], b'"\\u0000%d"' % len(payloads))
        payloads["\x00%d" % len(payloads)] = data[start:pos]
        last = pos
    parts.append(data[last:])
    return b"".join(parts), payloads


def _read_spliced(payloads: dict[str, bytes], raw: object, shape: tuple[int, ...]) -> np.ndarray | None:
    """The array that a placeholder stands for, claimed once; any other value is read as nested lists."""
    if type(raw) is str and raw in payloads:
        return _read_compact(payloads.pop(raw), shape)
    return _whole_complex_array(raw, shape)


_Reader = Callable[[object, tuple[int, ...]], np.ndarray | None]


def _parse_matrix(raw: object, dim: int, path: str, read: _Reader) -> np.ndarray:
    fast = read(raw, (dim, dim))
    if fast is not None:
        return fast
    _expect(isinstance(raw, list) and len(raw) == dim, f"expected {dim} rows", path)
    rows = []
    for i, row in enumerate(raw):  # type: ignore[union-attr]
        _expect(isinstance(row, list) and len(row) == dim, f"expected {dim} columns", f"{path}[{i}]")
        rows.append([_parse_complex_entry(entry, f"{path}[{i}][{k}]") for k, entry in enumerate(row)])
    return frozen(np.array(rows, dtype=complex))


def _parse_vector(raw: object, dim: int, path: str, read: _Reader) -> np.ndarray:
    fast = read(raw, (dim,))
    if fast is not None:
        return fast
    _expect(isinstance(raw, list) and len(raw) == dim, f"expected {dim} entries", path)
    return frozen(np.array([_parse_complex_entry(entry, f"{path}[{k}]") for k, entry in enumerate(raw)], dtype=complex))


def _parse_number(raw: object, path: str, *, positive: bool = False) -> float:
    _expect(_finite_real(raw), "expected a finite number", path)
    if positive:
        _expect(raw > 0, "expected a positive number", path)
    return float(raw)


_TOP_FIELDS = ("schema_version", "dim", "matrices", "symmetries", "states", "requests", "tolerances", "seed")
_TOLERANCE_FIELDS = ("tau_zero", "tau_violation", "gap_tol")


def parse_scenario(data: bytes | str) -> Scenario:
    """Parse and validate a scenario document.

    Matrices and states come back as read-only arrays. Compact arrays are
    read straight from the text (``_splice``, ``_read_compact``); anything
    unexpected on that route parses the original text again with
    ``_parse_nested``, so both routes give the same arrays, bit for bit,
    and every error comes from ``_parse_nested``.
    """
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    spliced = _splice(raw)
    if spliced is not None:
        text, payloads = spliced
        try:
            scenario = _parse_document(json.loads(text.decode("utf-8")), partial(_read_spliced, payloads))
        except (UnicodeDecodeError, json.JSONDecodeError, ScenarioError):
            pass
        else:
            # a placeholder anywhere but at a matrix or a state is never claimed
            if not payloads:
                return scenario
    return _parse_nested(data)


def _parse_nested(data: bytes | str) -> Scenario:
    """Parse the whole text into nested lists, then validate it."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"invalid UTF-8: {exc}", "document") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from None
    return _parse_document(doc, _whole_complex_array)


def _parse_document(doc: object, read: _Reader) -> Scenario:
    _expect(isinstance(doc, dict), "document must be a JSON object", "document")
    _reject_unknown(doc, _TOP_FIELDS, "")

    _expect("schema_version" in doc, "missing schema_version", "document")
    _expect(
        type(doc["schema_version"]) is int and doc["schema_version"] == SCHEMA_VERSION,
        f"unsupported schema_version {doc['schema_version']!r}",
        "schema_version",
    )
    _expect("dim" in doc, "missing dim", "document")
    dim = doc["dim"]
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1, "dim must be an integer >= 1", "dim")

    tolerance_overrides: dict[str, float] | None = None
    if "tolerances" in doc:
        raw_tol = doc["tolerances"]
        _expect(isinstance(raw_tol, dict), "tolerances must be an object", "tolerances")
        _reject_unknown(raw_tol, _TOLERANCE_FIELDS, "tolerances")
        tolerance_overrides = {
            key: _parse_number(raw_tol[key], f"tolerances.{key}", positive=True) for key in sorted(raw_tol)
        }
    try:
        tol = Scenario(dim=dim, tolerance_overrides=tolerance_overrides).effective_tolerances()
    except Exception as exc:
        raise ScenarioError(str(exc), "tolerances") from None

    seed: int | None = None
    if "seed" in doc:
        _expect(
            isinstance(doc["seed"], int) and not isinstance(doc["seed"], bool),
            "seed must be an integer",
            "seed",
        )
        seed = doc["seed"]

    matrices: dict[str, np.ndarray] = {}
    if "matrices" in doc:
        raw = doc["matrices"]
        _expect(isinstance(raw, dict), "matrices must be an object", "matrices")
        _reject_unknown(raw, MATRIX_NAMES, "matrices")
        for name in MATRIX_NAMES:
            if name in raw:
                matrices[name] = _parse_matrix(raw[name], dim, f"matrices.{name}", read)

    symmetries: dict[str, SymmetryTransform] = {}
    if "symmetries" in doc:
        raw = doc["symmetries"]
        _expect(isinstance(raw, list), "symmetries must be a list", "symmetries")
        for i, item in enumerate(raw):
            path = f"symmetries[{i}]"
            _expect(isinstance(item, dict), "each symmetry must be an object", path)
            _reject_unknown(item, ("label", "unitary_part", "antilinear"), path)
            for req_field in ("label", "unitary_part", "antilinear"):
                _expect(req_field in item, f"missing field {req_field!r}", path)
            label = item["label"]
            _expect(isinstance(label, str) and label != "", "label must be a non-empty string", f"{path}.label")
            _expect(label not in symmetries, f"duplicate symmetry label {label!r}", f"{path}.label")
            _expect(isinstance(item["antilinear"], bool), "antilinear must be a boolean", f"{path}.antilinear")
            unitary = _parse_matrix(item["unitary_part"], dim, f"{path}.unitary_part", read)
            try:
                transform = SymmetryTransform(unitary, antilinear=item["antilinear"], label=label)
            except Exception as exc:
                raise ScenarioError(str(exc), f"{path}.unitary_part") from None
            symmetries[label] = transform

    states: dict[str, np.ndarray] = {}
    if "states" in doc:
        raw = doc["states"]
        _expect(isinstance(raw, dict), "states must be an object", "states")
        for name in raw:
            _expect(isinstance(name, str) and name != "", "state names must be non-empty strings", "states")
            vec = _parse_vector(raw[name], dim, f"states.{name}", read)
            norm_dev = abs(float(np.linalg.norm(vec)) - 1.0)
            _expect(norm_dev <= tol.tau_zero, f"state is not normalized (deviation {norm_dev:.3e})", f"states.{name}")
            states[name] = vec

    _expect("requests" in doc, "missing requests", "document")
    raw_requests = doc["requests"]
    _expect(isinstance(raw_requests, list), "requests must be a list", "requests")
    requests: list[Request] = []
    for i, item in enumerate(raw_requests):
        path = f"requests[{i}]"
        _expect(isinstance(item, dict), "each request must be an object", path)
        _expect("detector" in item, "missing field 'detector'", path)
        detector = item["detector"]
        _expect(detector in DETECTORS, f"unknown detector {detector!r}", f"{path}.detector")
        required_fields, required_matrices = DETECTORS[detector]
        optional = _OPTIONAL_FIELDS.get(detector, ())
        _reject_unknown(item, ("detector",) + required_fields + optional, path)
        params: dict[str, object] = {}
        for req_field in required_fields:
            _expect(req_field in item, f"missing field {req_field!r}", path)
        for name in required_fields + optional:
            if name not in item:
                continue
            value = item[name]
            if name in ("symmetry", "cpt_symmetry", "cp_symmetry"):
                _expect(isinstance(value, str), "symmetry reference must be a string", f"{path}.{name}")
                _expect(value in symmetries, f"unknown symmetry {value!r}", f"{path}.{name}")
            elif name in ("state", "state_in", "state_out"):
                _expect(isinstance(value, str), "state reference must be a string", f"{path}.{name}")
                _expect(value in states, f"unknown state {value!r}", f"{path}.{name}")
            elif name == "time":
                value = _parse_number(value, f"{path}.time")
            elif name == "gap_tol":
                value = _parse_number(value, f"{path}.gap_tol", positive=True)
            params[name] = value
        for name in required_matrices:
            _expect(name in matrices, f"detector {detector!r} needs matrix {name!r}", path)
        requests.append(Request(detector=detector, params=params))

    return Scenario(
        dim=dim,
        matrices=matrices,
        symmetries=symmetries,
        states=states,
        requests=tuple(requests),
        tolerance_overrides=tolerance_overrides,
        seed=seed,
        schema_version=SCHEMA_VERSION,
    )


def _scenario_doc(scenario: Scenario, array: Callable[[np.ndarray], object]) -> dict:
    """The scenario document, with every matrix and state passed through ``array``."""
    doc: dict[str, object] = {
        "schema_version": scenario.schema_version,
        "dim": scenario.dim,
        "requests": [dict(r.params, detector=r.detector) for r in scenario.requests],
    }
    if scenario.matrices:
        doc["matrices"] = {name: array(m) for name, m in scenario.matrices.items()}
    if scenario.symmetries:
        doc["symmetries"] = [
            {
                "label": label,
                "unitary_part": array(g.unitary_part),
                "antilinear": g.antilinear,
            }
            for label, g in sorted(scenario.symmetries.items())
        ]
    if scenario.states:
        doc["states"] = {name: array(v) for name, v in scenario.states.items()}
    if scenario.tolerance_overrides is not None:
        doc["tolerances"] = dict(scenario.tolerance_overrides)
    if scenario.seed is not None:
        doc["seed"] = scenario.seed
    return doc


def scenario_jsonable(scenario: Scenario) -> dict:
    """The scenario document as plain JSON types; complex numbers are ``[re, im]`` lists."""
    return _scenario_doc(scenario, _complex_pairs)


def serialize_scenario(scenario: Scenario) -> bytes:
    return canonical_dumps(_scenario_doc(scenario, partial(np.asarray, dtype=complex)))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class VerdictRecord:
    detector: str
    verdict: Verdict


@dataclass(frozen=True)
class OracleRecord:
    """Ground-truth recomputation for one request."""

    detector: str
    agreed: bool
    truths: dict[str, float]
    note: str = ""


@dataclass(frozen=True)
class Provenance:
    tolerances: Tolerances
    seed: int | None
    tool_version: str = _tool_version


@dataclass(frozen=True)
class Report:
    records: tuple[VerdictRecord, ...]
    provenance: Provenance
    oracle: tuple[OracleRecord, ...] | None = None
    schema_version: int = SCHEMA_VERSION


def _witness_jsonable(witness: dict) -> dict:
    out: dict[str, object] = {}
    for key, value in witness.items():
        if isinstance(value, complex):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = list(value)
        else:
            out[key] = value
    return out


def report_jsonable(report: Report) -> dict:
    doc: dict[str, object] = {
        "schema_version": report.schema_version,
        "records": [
            {
                "index": i,
                "detector": rec.detector,
                "outcome": rec.verdict.outcome,
                "violated_symmetry": rec.verdict.violated_symmetry,
                "margin": rec.verdict.margin,
                "reason": rec.verdict.reason,
                "witness": _witness_jsonable(dict(rec.verdict.witness)),
            }
            for i, rec in enumerate(report.records)
        ],
        "provenance": {
            "tolerances": {
                "tau_zero": report.provenance.tolerances.tau_zero,
                "tau_violation": report.provenance.tolerances.tau_violation,
                "tau_eig": report.provenance.tolerances.tau_eig,
                "gap_tol": report.provenance.tolerances.gap_tol,
            },
            "seed": report.provenance.seed,
            "tool_version": report.provenance.tool_version,
        },
    }
    if report.oracle is not None:
        doc["oracle"] = [
            {
                "index": i,
                "detector": rec.detector,
                "agreed": rec.agreed,
                "truths": dict(rec.truths),
                "note": rec.note,
            }
            for i, rec in enumerate(report.oracle)
        ]
    return doc


def serialize_report(report: Report) -> bytes:
    return canonical_dumps(report_jsonable(report))
