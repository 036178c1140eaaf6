"""Scenario documents and report serialization.

A scenario is a JSON document declaring matrices, symmetries, states
and a list of detector requests. Parsing is strict about form (syntax,
shape, finiteness): unknown fields are rejected and every error names
the offending path inside the document. Whether a symmetry is unitary
and a state of unit norm depends on the run's ``tau_zero``, so the
runner judges those, under the same paths.

Serialization is canonical so that equal values produce identical
bytes: object keys are sorted, symmetries are ordered by label, complex
numbers are two-element ``[re, im]`` arrays and reals are rendered with
17 significant digits.
"""

from __future__ import annotations

import io
import json
import math
import pickle
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import __version__ as _tool_version
from . import _workers
from .config import Tolerances
from .detectors import REFERENCES, request_params
from .errors import ConfigError, ScenarioError
from .linalg import _frozen_bytes, frozen
from .symmetry import SymmetryTransform
from .verdict import Verdict

SCHEMA_VERSION = 1

MATRIX_NAMES = ("hamiltonian", "h0", "v", "smatrix")

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

    def __post_init__(self) -> None:
        # read-only like parsed arrays, so memo keys hold their buffers, not copies
        for name in ("matrices", "states"):
            object.__setattr__(self, name, {k: frozen(np.asarray(v)) for k, v in getattr(self, name).items()})

    def __reduce__(self) -> tuple:
        # through the constructor, so a pickled or deep-copied scenario's arrays are frozen again
        return (Scenario, tuple(getattr(self, f.name) for f in fields(self)))

    def effective_tolerances(self, **overrides: float) -> Tolerances:
        """The document's tolerances over the library defaults, and ``overrides`` over both."""
        return Tolerances(**{**(self.tolerance_overrides or {}), **overrides})


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


# a stretch of document text, or a row ``(rows, i, format)``: row ``i`` of a 2-D float view and its ``%`` format
_Unit = str | tuple[np.ndarray, int, str]


def _canonical(value: object, out: list[str], units: list[_Unit]) -> None:
    """Render ``value`` canonically: text pieces collect in ``out``, and each finite complex array goes to ``units`` as rows."""
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
        _canonical(complex(value), out, units)
    elif isinstance(value, (np.floating, np.integer)):
        _canonical(float(value), out, units)
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise ScenarioError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _canonical(value[key], out, units)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _canonical(item, out, units)
        out.append("]")
    elif isinstance(value, np.ndarray):
        if value.dtype == np.complex128 and value.ndim in (1, 2):
            pairs = np.ascontiguousarray(value).view(np.float64)
            if np.isfinite(pairs).all():
                _add_rows(pairs, out, units)
                return
        _canonical(value.tolist(), out, units)
    else:
        raise ScenarioError(f"cannot serialize value of type {type(value).__name__}")


def _add_rows(pairs: np.ndarray, out: list[str], units: list[_Unit]) -> None:
    """Move the text in ``out`` to ``units``, then add a finite complex array, given as its float view, as rows.

    A state is one row; a matrix's rows sit between its brackets, each but
    the first with a leading comma in its format.
    """
    row = "[" + ",".join(["[%.17g,%.17g]"] * (pairs.shape[-1] // 2)) + "]"
    if pairs.ndim == 2:
        out.append("[")
    units.append("".join(out))
    out.clear()
    if pairs.ndim == 1:
        units.append((pairs[np.newaxis], 0, row))
        return
    later = "," + row  # one string per array, shared by its rows
    units += ((pairs, i, later if i else row) for i in range(len(pairs)))
    out.append("]")


def _units(value: object) -> list[_Unit]:
    """The canonical document of ``value``, newline-terminated, as units."""
    out: list[str] = []
    units: list[_Unit] = []
    _canonical(value, out, units)
    out.append("\n")
    units.append("".join(out))
    return units


def _format(units: list[_Unit], buf: io.BytesIO) -> io.BytesIO:
    """Write ``units`` to ``buf``, and return it: text as it is, a row unit formatted."""
    for unit in units:
        if type(unit) is str:
            buf.write(unit.encode("ascii"))
        else:
            rows, i, row = unit
            # + 0.0 folds -0.0 into 0.0, which '%.17g' renders as "0" like _format_real
            buf.write((row % tuple((rows[i] + 0.0).tolist())).encode("ascii"))
    return buf


def _slices(units: list[_Unit], cpus: int) -> list[tuple[int, int]]:
    """Cut ``units`` at rows into ``_workers.share_count`` contiguous slices of about equal float count.

    Each slice closes at the first row that takes it to an equal share, and
    a remainder short of ``_workers.SHARE_FLOATS`` floats joins the last
    slice closed, so every slice holds at least that many.
    """
    sizes = [0 if type(unit) is str else unit[0].shape[1] for unit in units]
    total = sum(sizes)
    count = _workers.share_count(total, cpus)
    cuts, filled = [0], 0
    for i, size in enumerate(sizes):
        filled += size
        if count > 1 and filled * count >= total:
            cuts.append(i + 1)
            filled = 0
    if len(cuts) > 1 and filled < _workers.SHARE_FLOATS:
        cuts.pop()
    return list(zip(cuts, cuts[1:] + [len(units)]))


def _copy_formatted(buf: io.BytesIO, pipe: io.BufferedReader, size: int) -> bool:
    """Read a worker's ``size`` formatted bytes from ``pipe`` straight into ``buf``, grown once to fit them; False, ``buf`` as it was, if the pipe ends first.

    No copy of the slice is held beside the buffer, so the caller's peak
    memory is that of one process writing the document alone.
    """
    start = buf.tell()
    if size:
        buf.seek(start + size - 1)
        buf.write(b"\0")
    with buf.getbuffer()[start:] as view:
        if pipe.readinto(view) == size:
            return True
    buf.seek(start)
    buf.truncate()
    return False


def canonical_dumps(value: object) -> bytes:
    """The canonical JSON bytes of ``value``, newline-terminated.

    Once the walk has laid out the document, its array rows are formatted
    in slices (``_slices``), one share each of ``_workers.scatter``, so
    the bytes are those of one process whatever becomes of a child.
    """
    units = _units(value)
    buf = io.BytesIO()
    slices = [units[start:stop] for start, stop in _slices(units, _workers.usable_cpus())]
    _workers.scatter(slices, range(len(slices)), partial(_format, buf=buf),
                     lambda units: _format(units, io.BytesIO()).getbuffer(), partial(_copy_formatted, buf))
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


# Every byte a JSON number token can hold.
_NUMBER_BYTES = b"+-.0123456789Ee"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
# "[," and ",]" as little-endian uint16 values; each adjacent byte pair of a payload
# is one element of exactly one of its two uint16 views, from byte 0 and from byte 1
_EMPTY_SLOT_PAIRS = np.frombuffer(b"[,,]", dtype="<u2")


def _has_empty_slot(payload: bytes) -> bool:
    """True when ``[,`` or ``,]`` occurs in the non-empty payload, read as two zero-copy views."""
    views = (np.frombuffer(payload, "<u2", (len(payload) - offset) // 2, offset) for offset in (0, 1))
    return any(_EMPTY_SLOT_PAIRS[0] in view or _EMPTY_SLOT_PAIRS[1] in view for view in views)


def _shape(payload: bytes | memoryview, dim: int) -> tuple[int, ...]:
    return (dim, dim, 2) if payload[:3] == b"[[[" else (dim, 2)


def _read_compact(payload: bytes | memoryview, dim: int) -> np.ndarray | None:
    """A spliced payload as a finished read-only array: a ``dim``×``dim`` matrix if it opens with three brackets, else a state.

    Returns None unless the payload's brackets and commas are exactly those
    of that shape (their count is checked before anything sized by ``dim``
    is built), ``_has_empty_slot`` finds no empty slot (the decoder would
    take a token moved across a bracket into one, ``[1,]0``, as that
    slot's), the JSON decoder reads every token, and every number is
    finite. With every bracket a space, the decoder reads one number token
    per slot and rejects any other token, parted from its slot's by a
    space. Only ``json`` and numpy's array constructor run here, never BLAS.
    """
    payload = bytes(payload)  # a view of the document is copied only while it is read
    shape = _shape(payload, dim)
    skeleton = payload.translate(None, _NUMBER_BYTES)
    length = 0
    for n in reversed(shape):
        length = n * length + n + 1  # n parts, n - 1 commas, two brackets
    if len(skeleton) != length:
        return None
    expected = b""
    for n in reversed(shape):
        expected = b"[" + b",".join([expected] * n) + b"]"
    if skeleton != expected or _has_empty_slot(payload):
        return None
    try:
        pairs = np.array(json.loads(b"[" + payload.translate(_BRACKETS_TO_SPACES) + b"]"), dtype=np.float64)
    except (json.JSONDecodeError, OverflowError):
        return None
    return frozen(pairs.view(np.complex128).reshape(shape[:-1])) if np.isfinite(pairs).all() else None


def _read_arrays(payloads: dict[str, memoryview], dim: int, cpus: int) -> dict[str, np.ndarray | None]:
    """Every payload read (``_read_compact``), by placeholder, over at most ``cpus`` processes; ``payloads`` is emptied.

    The payloads' floats (``_shape``) give at most one share per payload of
    ``_workers.SHARE_FLOATS`` floats or more (``_workers.share_count``).
    Those payloads are dealt first, then the others, each kind by byte
    size, largest first, each payload to the share with the fewest bytes so
    far; so each share opens with a payload of the floor. A child sends
    each array as the arguments that rebuild it here, over the bytes it
    views (``frozen``).
    """
    floats = {key: math.prod(_shape(payload, dim)) for key, payload in payloads.items()}
    large = {key: n >= _workers.SHARE_FLOATS for key, n in floats.items()}
    shares: list[dict[str, memoryview]] = [
        {} for _ in range(_workers.share_count(sum(floats.values()), min(cpus, sum(large.values()))))]
    sizes = [0] * len(shares)
    for key in sorted(payloads, key=lambda key: (large[key], len(payloads[key])), reverse=True):
        lightest = sizes.index(min(sizes))
        sizes[lightest] += len(payloads[key])
        shares[lightest][key] = payloads.pop(key)
    arrays: dict[str, np.ndarray | None] = {}

    def read(share: dict[str, memoryview]) -> dict[str, np.ndarray | None]:
        return {key: _read_compact(payload, dim) for key, payload in share.items()}

    def take(pipe: io.BufferedReader, size: int) -> bool:
        sent = pipe.read(size)
        if len(sent) == size:
            arrays.update((key, a if a is None else np.ndarray(*a)) for key, a in pickle.loads(sent).items())
        return len(sent) == size

    _workers.scatter(shares, range(len(shares)), lambda share: arrays.update(read(share)), lambda share: pickle.dumps(
        {key: a if a is None else (a.shape, a.dtype, _frozen_bytes(a)) for key, a in read(share).items()}), take)
    return arrays


def _splice(data: bytes) -> tuple[bytes, dict[str, memoryview]] | None:
    """Cut each ``[[``-opening array outside a string out of a document.

    Each array becomes the string ``"\\u0000<k>"``. Without a backslash in
    the document, quote parity tells which brackets sit inside a string,
    and no string of the document can spell a placeholder. Returns the
    remaining text and the arrays, as views of ``data``, by placeholder
    value, or None for a document with a backslash or an unclosed array or
    string.
    """
    if b"\\" in data:
        return None
    parts: list[bytes] = []
    payloads: dict[str, memoryview] = {}
    view = memoryview(data)
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
        payloads["\x00%d" % len(payloads)] = view[start:pos]
        last = pos
    parts.append(data[last:])
    return b"".join(parts), payloads


def _claim(arrays: dict[str, np.ndarray], raw: object, shape: tuple[int, ...]) -> np.ndarray | None:
    """The finished array that a placeholder stands for, claimed once, if it has ``shape``; None for any other value."""
    array = arrays.pop(raw, None) if type(raw) is str else None
    return array if array is not None and array.shape == shape else None


def _parse_matrix(raw: object, dim: int, path: str, arrays: dict[str, np.ndarray]) -> np.ndarray:
    fast = _claim(arrays, raw, (dim, dim))
    if fast is not None:
        return fast
    _expect(isinstance(raw, list) and len(raw) == dim, f"expected {dim} rows", path)
    rows = []
    for i, row in enumerate(raw):  # type: ignore[union-attr]
        _expect(isinstance(row, list) and len(row) == dim, f"expected {dim} columns", f"{path}[{i}]")
        rows.append([_parse_complex_entry(entry, f"{path}[{i}][{k}]") for k, entry in enumerate(row)])
    return frozen(np.array(rows, dtype=complex))


def _parse_vector(raw: object, dim: int, path: str, arrays: dict[str, np.ndarray]) -> np.ndarray:
    fast = _claim(arrays, raw, (dim,))
    if fast is not None:
        return fast
    _expect(isinstance(raw, list) and len(raw) == dim, f"expected {dim} entries", path)
    return frozen(np.array([_parse_complex_entry(entry, f"{path}[{k}]") for k, entry in enumerate(raw)], dtype=complex))


def _parse_number(raw: object, path: str, *, positive: bool = False) -> float:
    _expect(_finite_real(raw), "expected a finite number", path)
    if positive:
        _expect(raw > 0, "expected a positive number", path)
    return float(raw)


def _parse_field(tables: dict[str, dict], path: str, name: str, value: object) -> object:
    """A request field as the parser keeps it: a checked reference, or a number."""
    field_path = f"{path}.{name}"
    if name not in REFERENCES:
        # a time may be any finite number, a gap tolerance only a positive one
        return _parse_number(value, field_path, positive=name == "gap_tol")
    table, noun = REFERENCES[name]
    _expect(isinstance(value, str), f"{noun} reference must be a string", field_path)
    _expect(value in tables[table], f"unknown {noun} {value!r}", field_path)
    return value


_TOP_FIELDS = ("schema_version", "dim", "matrices", "symmetries", "states", "requests", "tolerances", "seed")
_TOLERANCE_FIELDS = ("tau_zero", "tau_violation", "gap_tol")


def parse_scenario(data: bytes | str) -> Scenario:
    """Parse and validate a scenario document.

    Matrices and states come back as read-only arrays. Compact arrays are
    cut out of the text (``_splice``) and each is read whole, before the
    document walk, in one step (``_read_compact``); the walk then claims
    the finished arrays by placeholder and shape. Any other array is
    walked entry by entry. Anything unexpected on the compact route parses
    the original text again with ``_parse_nested``, so both routes give
    the same arrays, bit for bit, and every error comes from
    ``_parse_nested``. This process reads every array: nothing is forked.
    """
    return _parse_scenario(data, 1)


def _parse_scenario(data: bytes | str, cpus: int) -> Scenario:
    """``parse_scenario``, with the compact arrays read over at most ``cpus`` processes (``_read_arrays``)."""
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    scenario = _parse_compact(raw, cpus)
    return scenario if scenario is not None else _parse_nested(data)


def _parse_compact(raw: bytes, cpus: int) -> Scenario | None:
    """The scenario read on the compact route, or None for a document it does not read.

    The document's ``dim`` gives each array its size, so a ``dim`` that is
    not an integer >= 1 is left to ``_parse_nested``. It reads a document
    only when it reads every spliced array, so one unreadable array is
    enough to stop.
    """
    spliced = _splice(raw)
    if spliced is None:
        return None
    text, payloads = spliced
    try:
        doc = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return None
    dim = doc.get("dim") if isinstance(doc, dict) else None
    if type(dim) is not int or dim < 1:
        return None
    arrays = _read_arrays(payloads, dim, cpus)
    if any(array is None for array in arrays.values()):
        return None
    try:
        scenario = _parse_document(doc, arrays)
    except ScenarioError:
        return None
    # a placeholder anywhere but at a matrix or a state is never claimed
    return scenario if not arrays else None


def _parse_nested(data: bytes | str) -> Scenario:
    """Parse the whole text into nested lists, then walk and validate it."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"invalid UTF-8: {exc}", "document") from None
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nesting level, and gives up past the recursion limit
        raise ScenarioError(f"invalid JSON: {exc}") from None
    return _parse_document(doc, {})


def _parse_document(doc: object, arrays: dict[str, np.ndarray]) -> Scenario:
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
        Tolerances(**(tolerance_overrides or {}))
    except ConfigError as exc:
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
                matrices[name] = _parse_matrix(raw[name], dim, f"matrices.{name}", arrays)

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
            unitary = _parse_matrix(item["unitary_part"], dim, f"{path}.unitary_part", arrays)
            symmetries[label] = SymmetryTransform(unitary, antilinear=item["antilinear"], label=label)

    states: dict[str, np.ndarray] = {}
    if "states" in doc:
        raw = doc["states"]
        _expect(isinstance(raw, dict), "states must be an object", "states")
        for name in raw:
            _expect(isinstance(name, str) and name != "", "state names must be non-empty strings", "states")
            states[name] = _parse_vector(raw[name], dim, f"states.{name}", arrays)

    _expect("requests" in doc, "missing requests", "document")
    raw_requests = doc["requests"]
    _expect(isinstance(raw_requests, list), "requests must be a list", "requests")
    requests: list[Request] = []
    tables = {"symmetries": symmetries, "states": states}
    for i, item in enumerate(raw_requests):
        path = f"requests[{i}]"
        _expect(isinstance(item, dict), "each request must be an object", path)
        _expect("detector" in item, "missing field 'detector'", path)
        fields = {name: value for name, value in item.items() if name != "detector"}
        params = request_params(item["detector"], fields, matrices, partial(_parse_field, tables, path), path)
        requests.append(Request(detector=item["detector"], params=params))

    return Scenario(
        dim=dim,
        matrices=matrices,
        symmetries=symmetries,
        states=states,
        requests=tuple(requests),
        tolerance_overrides=tolerance_overrides,
        seed=seed,
    )


def _scenario_doc(scenario: Scenario, array: Callable[[np.ndarray], object]) -> dict:
    """The scenario document, with every matrix and state passed through ``array``."""
    doc: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
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
    """The scenario's canonical document (``canonical_dumps``).

    A document whose arrays hold at least ``2 * _workers.SHARE_FLOATS``
    floats has its rows formatted over the usable CPUs, in forked children
    as well as here; every child is reaped before the call returns, and the
    bytes are those of one process whatever becomes of a child.
    """
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


def _fields(record: object) -> dict[str, object]:
    """A record's dataclass fields by name; a mapping field is copied one level deep."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    return {name: dict(value) if isinstance(value, Mapping) else value for name, value in values.items()}


def report_jsonable(report: Report) -> dict:
    doc: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "records": [
            {"index": i, "detector": rec.detector, **_fields(rec.verdict)} for i, rec in enumerate(report.records)
        ],
        "provenance": asdict(report.provenance),
    }
    if report.oracle is not None:
        doc["oracle"] = [{"index": i, **_fields(rec)} for i, rec in enumerate(report.oracle)]
    return doc


def serialize_report(report: Report) -> bytes:
    return canonical_dumps(report_jsonable(report))
