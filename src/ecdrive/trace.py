"""JSON Lines traces and the dataclass codec that traces and configs share.

A trace is a header object (schema_version "1", config snapshot, seed,
summary), then one object per step record. The config snapshot is a run's
description, read by :func:`read_run`, the reader of experiment files too,
so a header passes exactly the checks ``ecdrive validate`` makes. The
loader also requires a non-negative integer seed, no other header key, and
``steps`` records, no blank line among them, whose ``step`` values run 0,
1, ... in order and that agree with themselves and the header through the
rules the run used (:func:`drift.report_rule` and
:func:`orchestrator.offload_rule`; see :func:`_check_record`). A run with a
remote endpoint writes its whole ``remote`` block into the header. A record
line that begins with the writer's member of the next step,
``{"step":<n>,``, and whose body, the text after it, repeats the previous
line's is the previous record again, with its own copies of the arrays,
without a ``json`` parse; every record is still checked (see
:func:`load_trace`).

The header is written by ``json``. Each step record is written by a text
writer generated once per dataclass from the same type hints
(:func:`_text_writer`): it gives the bytes ``json`` would give for the
record's JSON object. Through a :class:`TextMemo` it writes each nested
decision and drift report and each 1-D float64 array once, by object
identity, and formats each distinct float64 array element once, by its bit
pattern; traces that share record parts, as a seed's modes do, can share
one memo.

Every dataclass crosses JSON through :func:`to_json` and :func:`from_json`,
whose per-class converters are built once from the field type hints: an
Enum travels as its value, a tuple or ndarray as a list, ``X | None`` as
null or X, a nested dataclass as an object, and anything else as it is.
Decoding rejects unknown keys, and a missing key takes the field's default
(a field without one raises ``TypeError``). An Enum value decodes through a
``{value: member}`` dict, so an unknown value raises ``KeyError``. Outside
config classes, which check their own fields in ``validate``, a scalar,
array or tuple-of-scalars field of the wrong JSON type raises
``TypeError``: a bool is not a number, a float field takes an int or a
float, an array is a flat list of numbers (ints or floats, never a bool,
which numpy would read as 0 or 1), and a tuple of scalars is a list whose
every element has the scalar's JSON type (so a string is not a tuple of
characters).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import os
import struct
import typing
from enum import Enum
from pathlib import Path

import numpy as np

from .codec import FEATURE_DIM
from .drift import DriftReport, report_rule
from .highway import Action, DriftInjection, ScenarioConfig, validate_injection
from .orchestrator import (
    EpisodeTrace, Metrics, OffloadConfig, StepRecord, _check_seed, _check_steps, offload_rule,
)
from .policies import EndpointConfig

TRACE_SCHEMA_VERSION = "1"

# The JSON value types a scalar field accepts: a bool is not a number, and
# a float field takes an int as well.
_SCALAR_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _json_types(hint) -> tuple[tuple, frozenset | None] | None:
    """The JSON types a value of a scalar, array or tuple-of-scalars hint
    may have, and those of its elements (None for a scalar); None for any
    other hint."""
    if hint in _SCALAR_TYPES:
        return _SCALAR_TYPES[hint], None
    if hint is np.ndarray:
        return (list,), frozenset(_SCALAR_TYPES[float])
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[0] in _SCALAR_TYPES:
        return (list,), frozenset(_SCALAR_TYPES[args[0]])
    return None


def _has_json_types(value, types: tuple, elements: frozenset | None) -> bool:
    return type(value) in types and (elements is None or elements.issuperset(map(type, value)))


def _wrong_type(cls, name: str, types: tuple, elements: frozenset | None, value) -> TypeError:
    expected = " or ".join(t.__name__ for t in types)
    if elements is not None:
        expected += " of " + " or ".join(sorted(t.__name__ for t in elements))
    return TypeError(f"{cls.__name__}.{name} must be {expected}, got {value!r}")


def _decode_array(value: list) -> np.ndarray:
    array = np.asarray(value)
    # numpy's conversion judges the elements: a null, a string, a nested
    # list or a list of only booleans has another kind or shape
    if array.ndim != 1 or array.dtype.kind not in "fi":
        raise TypeError(f"an array must be a flat list of numbers, got {value!r}")
    return array


def _full_decoder(cls, pairs: tuple, checked: tuple):
    """The decoder of an object that holds every field of ``cls``, generated
    as one function, the way ``dataclasses`` generates ``__init__``: it
    checks the JSON type of each checked field, and of each element of a
    checked list, inline, and returns None when a check fails. It then
    fills a new instance's ``__dict__`` in field order, which is all a
    dataclass ``__init__`` without ``__post_init__`` does, minus a frozen
    class's ``object.__setattr__`` call per field (a class with
    ``__post_init__`` is built through its constructor)."""
    scope = {"cls": cls, "new": object.__new__}
    values, tests = [], []
    for i, (name, decode) in enumerate(pairs):
        scope[f"decode{i}"] = decode
        values.append(f"data[{name!r}]" if decode is None else f"decode{i}(data[{name!r}])")
    for i, (name, types, elements) in enumerate(checked):
        scope[f"types{i}"], scope[f"elements{i}"] = types, elements
        tests.append(f"type(data[{name!r}]) in types{i}")
        if elements is not None:
            tests.append(f"elements{i}.issuperset(map(type, data[{name!r}]))")
    if hasattr(cls, "__post_init__"):
        build = f"return cls({', '.join(values)})"
    else:
        fields = ", ".join(f"{name!r}: {value}" for (name, _), value in zip(pairs, values))
        build = f"obj = new(cls); obj.__dict__.update({{{fields}}}); return obj"
    exec(
        "def decode_full(data):\n"
        f"    if {' and '.join(tests) or 'True'}:\n"
        f"        {build}\n",
        scope,
    )
    return scope["decode_full"]


@functools.cache
def _codec(hint, typed: bool = True) -> tuple:
    """(encode, decode) for values of one type hint; ``None`` passes a value
    through unchanged. With ``typed``, dataclass decoders check the JSON
    types of scalar and array fields (see :func:`_dataclass_codec`)."""
    if dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint, typed)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return operator.attrgetter("value"), {m.value: m for m in hint}.__getitem__
    if hint is np.ndarray:
        return np.ndarray.tolist, _decode_array
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # homogeneous: tuple[X, ...] or (X, X)
        encode, decode = _codec(args[0], typed)
        return (
            list if encode is None else lambda v: [encode(x) for x in v],
            tuple if decode is None else lambda v: tuple(map(decode, v)),
        )
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        encode, decode = _codec(inner, typed)
        return (
            encode and (lambda v: None if v is None else encode(v)),
            decode and (lambda v: None if v is None else decode(v)),
        )
    return None, None


def _dataclass_codec(cls, typed: bool) -> tuple:
    """The codec of one dataclass. Its decoder checks the JSON type of every
    scalar and array field unless ``cls`` has a ``validate`` method: a
    config class checks its own fields, and those of the dataclasses inside
    it, with messages that name them."""
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    typed = typed and not hasattr(cls, "validate")
    encoders, decoders = zip(*(_codec(hints[name], typed) for name in names))
    # one extra name keeps the getter's result a tuple for a one-field class
    values = operator.attrgetter(*names, names[0])
    known = frozenset(names)
    pairs = tuple(zip(names, decoders))
    # the scalar, array and tuple-of-scalars fields, whose JSON types decode checks
    checked = tuple((n, *t) for n in names if typed and (t := _json_types(hints[n])))
    decode_full = _full_decoder(cls, pairs, checked)

    def encode(obj) -> dict:
        return {
            name: value if enc is None else enc(value)
            for name, enc, value in zip(names, encoders, values(obj))
        }

    def decode(data):
        if type(data) is not dict:
            raise TypeError(f"{cls.__name__} must be an object, got {type(data).__name__}")
        if len(data) == len(names):
            # with every field's key read, no key is unknown; any KeyError
            # (a missing key or an unknown Enum value) is raised again below
            try:
                if (obj := decode_full(data)) is not None:
                    return obj
            except KeyError:
                pass
        if not known.issuperset(data):
            unknown = next(k for k in data if k not in known)
            raise TypeError(f"{cls.__name__} has no field {unknown!r}")
        for name, types, elements in checked:
            if name in data and not _has_json_types(data[name], types, elements):
                raise _wrong_type(cls, name, types, elements, data[name])
        return cls(**{
            k: data[k] if dec is None else dec(data[k]) for k, dec in pairs if k in data
        })

    return encode, decode


def to_json(obj) -> dict:
    """The JSON object of a dataclass instance, fields in declaration order."""
    return _codec(type(obj))[0](obj)


def from_json(cls, data):
    """Build a ``cls`` dataclass from its JSON object (see the module doc)."""
    return _codec(cls)[1](data)


class ConfigError(ValueError):
    """An invalid run description; the message names the field."""


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


#: ``json.loads`` for experiment files and trace lines, which must hold no
#: ``NaN``, ``Infinity`` or ``-Infinity``; one decoder, since ``json.loads``
#: with an option builds a decoder per call
_loads = json.JSONDecoder(parse_constant=_reject_constant).decode


def _require(data: dict, field: str):
    if field not in data:
        raise ConfigError(f"{field}: missing required field")
    return data[field]


def _reject_unknown(data: dict, known) -> None:
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")


def _read_block(field: str, cls, data, check=None):
    """``from_json(cls, data)``, checked by ``check`` (by default the
    class's ``validate``); any error names ``field``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{field}: must be a JSON object")
    try:
        block = from_json(cls, data)
        (check or cls.validate)(block)
    except TypeError as exc:
        raise ConfigError(f"{field}: unknown or malformed field ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    return block


def read_run(data, others=()) -> tuple:
    """``(scenario, injections, offload, steps, endpoint)`` from a run's
    description: an experiment file's JSON object, or a trace header's
    ``config``. ``injections`` (a list) and ``remote`` (an object) are
    optional; each block passes :func:`from_json` and its own ``validate``.
    Raises :class:`ConfigError` naming the field, also for a key other than
    these five and ``others``, the keys the caller reads itself.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(data, ("scenario", "injections", "offload", "steps", "remote", *others))
    scenario = _read_block("scenario", ScenarioConfig, _require(data, "scenario"))
    items = data.get("injections", [])
    if not isinstance(items, list):
        raise ConfigError("injections: must be a list")
    injections = tuple(
        _read_block(f"injections[{i}]", DriftInjection, item,
                    lambda injection: validate_injection(injection, scenario.lane_count))
        for i, item in enumerate(items)
    )
    offload = _read_block("offload", OffloadConfig, _require(data, "offload"))
    steps = _require(data, "steps")
    try:
        _check_steps(steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    endpoint = None
    if "remote" in data:
        endpoint = _read_block("remote", EndpointConfig, data["remote"])
    return scenario, injections, offload, steps, endpoint


# one encoder for every line: json.dumps would build one per call
_dumps = json.JSONEncoder(separators=(",", ":")).encode
_DOUBLE, _INT64 = struct.Struct("d"), struct.Struct("q")


class _FloatTexts(dict):
    """The JSON text of float64 values, keyed by their bit pattern (so 0.0
    and -0.0 never share an entry); each distinct value is formatted once,
    the first time it is looked up: a finite one by ``float.__repr__``, as
    ``json`` does, any other by ``json`` itself."""

    def __missing__(self, bits: int) -> str:
        value = _DOUBLE.unpack(_INT64.pack(bits))[0]
        finite = -math.inf < value < math.inf
        text = self[bits] = float.__repr__(value) if finite else _dumps(value)
        return text


class TextMemo(dict):
    """The JSON text of the record parts that several trace records share,
    for every trace written through it.

    It maps the ``id`` of each nested dataclass (a :class:`Decision`, a
    :class:`DriftReport`) and of each 1-D float64 array written so far to
    its text, and keeps a reference to each such object in :attr:`kept`,
    so no id is reused while the memo lives. Keyed by identity, not
    content: 0.0 and -0.0 compare equal but are written apart, and ``==``
    on arrays does not give a bool. That is sound only because the record
    parts are immutable (frozen dataclasses, read-only arrays), and only
    while the memo lives: let it live no longer than the traces it writes.
    :attr:`floats` gives the text of each float64 element by its bit
    pattern."""

    def __init__(self) -> None:
        super().__init__()
        self.kept: list = []
        self.floats = _FloatTexts().__getitem__


# names the generated writers read, besides each field's own helpers
_WRITER_SCOPE = {
    "float_repr": float.__repr__,
    "int_repr": int.__repr__,
    "encode_str": json.encoder.encode_basestring_ascii,
    "inf": math.inf,
    "ndarray": np.ndarray,
    "float64": np.dtype(np.float64),
    "int64": np.int64,
    "strs": frozenset((str,)),
}


def _slow_writer(hint):
    """``json``'s text of a value of ``hint``, through its codec encoder;
    it raises wherever ``json`` would."""
    encode = _codec(hint)[0]
    return _dumps if encode is None else lambda value: _dumps(encode(value))


def _text_expr(hint, var: str, scope: dict) -> str:
    """A Python expression for the JSON text of local ``var``, a value of
    ``hint``, as ``_dumps`` would write the value's JSON object (see
    :func:`_text_writer`). A value of the hint's usual runtime type is
    written inline; any other goes through :func:`_slow_writer`."""
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        return f'("null" if {var} is None else {_text_expr(inner, var, scope)})'
    n = len(scope)
    scope[f"slow{n}"] = _slow_writer(hint)
    slow = f"slow{n}({var})"
    if hint is float:  # NaN and infinities fall through to json's spelling
        return f"(float_repr({var}) if type({var}) is float and -inf < {var} < inf else {slow})"
    if hint is int:
        return f"(int_repr({var}) if type({var}) is int else {slow})"
    if hint is bool:
        return f'("true" if {var} is True else "false" if {var} is False else {slow})'
    if hint is str:
        return f"(encode_str({var}) if type({var}) is str else {slow})"
    if isinstance(hint, type) and issubclass(hint, Enum):
        scope[f"enum{n}"], scope[f"texts{n}"] = hint, {m: _dumps(m.value) for m in hint}
        return f"(texts{n}[{var}] if type({var}) is enum{n} else {slow})"
    if typing.get_origin(hint) is tuple and args[0] is str:
        return (
            f'("[" + ",".join(map(encode_str, {var})) + "]"'
            f" if type({var}) is tuple and strs.issuperset(map(type, {var})) else {slow})"
        )
    return slow


def _memo_lines(hint, var: str, text: str, scope: dict) -> list[str] | None:
    """Statements that set local ``text`` to the JSON text of local ``var``,
    a value of ``hint``, through the :class:`TextMemo` ``texts``, when the
    hint is a 1-D float64 array or a dataclass, or either or None; None
    for any other hint. A value of the usual runtime type is looked up by
    its id, and written and added on a miss; any other goes through
    :func:`_slow_writer` and is not kept."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = (a for a in args if a is not type(None))
    n = len(scope)
    if hint is np.ndarray:
        test = f"type({var}) is ndarray and {var}.ndim == 1 and {var}.dtype == float64"
        fast = f'"[" + ",".join(map(floats, {var}.view(int64).tolist())) + "]"'
    elif dataclasses.is_dataclass(hint):
        scope[f"cls{n}"], scope[f"write{n}"] = hint, _text_writer(hint)
        test, fast = f"type({var}) is cls{n}", f"write{n}({var}, texts, floats)"
    else:
        return None
    scope[f"slow{n}"] = _slow_writer(hint)
    lookup = f"texts.get(id({var}))"
    return [
        f"{text} = " + (f'"null" if {var} is None else {lookup}' if optional else lookup),
        f"if {text} is None:",
        f"    if {test}:",
        f"        {text} = texts[id({var})] = {fast}",
        f"        texts.kept.append({var})",
        "    else:",
        f"        {text} = slow{n}({var})",
    ]


@functools.cache
def _text_writer(cls):
    """``write(obj, texts, floats)``: the JSON text that
    ``_dumps(to_json(obj))`` gives for a ``cls`` instance, generated once
    per dataclass the way :func:`_full_decoder` is. ``texts`` is a
    :class:`TextMemo`, ``floats`` its :attr:`~TextMemo.floats`: each
    nested dataclass and 1-D float64 array is written once per memo (see
    :func:`_memo_lines`), each of the array's elements through ``floats``.
    A value's runtime type picks its spelling wherever it picks json's: an
    int in a float field is written as an int, a non-finite float as
    ``NaN`` or ``Infinity``, and an array that is not 1-D float64 as its
    ``tolist()``."""
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    scope = {**_WRITER_SCOPE, "values": operator.attrgetter(*names, names[0])}
    unpack = "".join(f"v{i}, " for i in range(len(names)))
    body, parts = [f"{unpack}_ = values(obj)"], []
    for i, name in enumerate(names):
        # a field name holds no brace or quote; a non-ASCII one is \u-escaped
        key = _dumps(name).replace("\\", "\\\\")
        memo = _memo_lines(hints[name], f"v{i}", f"t{i}", scope)
        if memo is None:
            parts.append(f"{key}:{{{_text_expr(hints[name], f'v{i}', scope)}}}")
        else:
            body += memo
            parts.append(f"{key}:{{t{i}}}")
    body.append(f"return f'{{{{{','.join(parts)}}}}}'")
    exec("def write(obj, texts, floats):\n" + "".join(f"    {line}\n" for line in body), scope)
    return scope["write"]


def trace_lines(trace: EpisodeTrace, texts: TextMemo | None = None) -> list[str]:
    """Serialize a trace to its JSONL lines (header first). The records are
    written by the generated :func:`_text_writer` through ``texts``, or
    through a memo of their own: the lines are the same either way."""
    config = {
        "scenario": to_json(trace.scenario),
        "injections": [to_json(i) for i in trace.injections],
        "offload": to_json(trace.offload),
        "steps": trace.steps,
    }
    if trace.endpoint is not None:
        config["remote"] = to_json(trace.endpoint)
    header = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "config": config,
        "seed": trace.seed,
        "summary": to_json(trace.summary),
    }
    write = _text_writer(StepRecord)
    if texts is None:
        texts = TextMemo()
    floats = texts.floats
    return [_dumps(header)] + [write(r, texts, floats) for r in trace.records]


def temp_name(name: str, pid: int) -> str:
    """The name of the temporary file process ``pid`` writes a trace file
    ``name`` to before renaming it into place."""
    return f".{name}.{pid}.tmp"


def write_trace(trace: EpisodeTrace, path, texts: TextMemo | None = None) -> None:
    """Write a trace atomically: to a temporary file beside ``path``, then
    renamed over it, so a failed write leaves no partial trace behind and
    any earlier file at ``path`` intact. Traces that share record parts
    can share ``texts`` (see :func:`trace_lines`)."""
    path = Path(path)
    text = "\n".join(trace_lines(trace, texts)) + "\n"
    tmp = path.with_name(temp_name(path.name, os.getpid()))
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_record(record: StepRecord, offload: OffloadConfig, report_size: int,
                  threshold: float) -> None:
    """Reject a record that no run of ``offload`` writes: a feature vector
    that does not hold ``FEATURE_DIM`` numbers; a drift report that is not
    null exactly before step ``window - 1``, that does not hold
    ``report_size`` p-values and statistics, whose p-values lie outside
    [0, 1], whose ``threshold_used`` is not ``threshold`` or whose
    ``is_drift`` is not its least p-value's test against it (the sizes and
    threshold of :func:`drift.report_rule`, and the flag a
    :class:`~drift.DriftReport` holds); a decision confidence outside
    [0, 1]; an offload and reason other than :func:`offload_rule`'s; a
    cloud decision that is not present exactly on an offloaded step; an
    executed action other than the deciding decision's or Keep; and
    ``bytes_up`` other than ``uplink_bytes_per_sample`` on an offloaded
    step and 0 on the others. Latency is not checked: a remote call's is
    wall-clock."""
    if record.feature.size != FEATURE_DIM:
        raise ValueError(f"feature must have length {FEATURE_DIM}, got {record.feature.size}")
    report = record.drift_report
    if (report is None) != (record.step < offload.window - 1):
        raise ValueError(
            f"drift_report must be {'null' if report is not None else 'present'} at step "
            f"{record.step} of a window of {offload.window}"
        )
    if report is not None:
        for name, values in (("p_values", report.p_values), ("statistic", report.statistic)):
            if values.size != report_size:
                raise ValueError(
                    f"drift_report.{name} must have length {report_size}, got {values.size}"
                )
        p_values = report.p_values.tolist()
        least = min(p_values)
        if not 0.0 <= least or not max(p_values) <= 1.0:
            raise ValueError(f"drift_report.p_values must lie in [0, 1], got {p_values!r}")
        if report.threshold_used != threshold:
            raise ValueError(
                f"drift_report.threshold_used must be {threshold!r}, got {report.threshold_used!r}"
            )
        if report.is_drift != (least < threshold):
            raise ValueError(
                f"drift_report.is_drift must be {least < threshold} for a least p-value of "
                f"{least!r} against {threshold!r}"
            )
    edge, cloud = record.edge_decision, record.cloud_decision
    for name, decision in (("edge_decision", edge), ("cloud_decision", cloud)):
        if decision is not None and not 0.0 <= decision.confidence <= 1.0:
            raise ValueError(
                f"{name}.confidence must lie in [0, 1], got {decision.confidence!r}"
            )
    rule = offload_rule(report, edge.confidence, offload)
    if (record.offloaded, record.offload_reason) != rule:
        raise ValueError(
            f"offloaded {record.offloaded} and offload_reason {record.offload_reason!r} "
            f"are not the offload rule's {rule[0]} and {rule[1]!r}"
        )
    if (cloud is not None) != record.offloaded:
        raise ValueError(
            f"cloud_decision must be {'present' if record.offloaded else 'null'} "
            f"when offloaded is {record.offloaded}"
        )
    chosen = (cloud or edge).action
    if record.executed_action not in (chosen, Action.KEEP):
        raise ValueError(
            f"executed_action must be the {(cloud or edge).source} decision's {chosen.value}"
            f" or Keep, got {record.executed_action.value}"
        )
    bytes_up = offload.uplink_bytes_per_sample if record.offloaded else 0
    if record.bytes_up != bytes_up:
        raise ValueError(f"bytes_up must be {bytes_up}, got {record.bytes_up}")


def _read_header(path: Path) -> tuple[EpisodeTrace, list[str]]:
    """The header of trace file ``path``, as a trace without records, and
    the file's lines; raises as :func:`load_trace` does for the file and
    its first line."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    try:
        header = _loads(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path}: line 1: malformed header ({exc})") from exc
    version = header.get("schema_version") if isinstance(header, dict) else None
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: line 1: schema_version {version!r} is not {TRACE_SCHEMA_VERSION!r}"
        )
    try:
        _reject_unknown(header, ("schema_version", "config", "seed", "summary"))
        seed = header["seed"]
        _check_seed(seed)
        summary = from_json(Metrics, header["summary"])
        scenario, injections, offload, steps, endpoint = read_run(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: line 1: malformed header ({exc})") from exc
    trace = EpisodeTrace(
        scenario=scenario,
        injections=injections,
        offload=offload,
        seed=seed,
        steps=steps,
        records=(),
        summary=summary,
        endpoint=endpoint,
    )
    return trace, lines


def _again(record: StepRecord, step: int) -> StepRecord:
    """``record`` at ``step``. It shares ``record``'s decisions, which are
    frozen, and holds its own copies of the feature and the drift report's
    arrays, so every loaded array stays writable and shares no memory. The
    copies are built as the generated decoders build a record (see
    :func:`_full_decoder`): neither class has ``__post_init__``."""
    again = object.__new__(StepRecord)
    again.__dict__.update(record.__dict__, step=step, feature=record.feature.copy())
    if (report := record.drift_report) is not None:
        copied = object.__new__(DriftReport)
        copied.__dict__.update(report.__dict__, p_values=report.p_values.copy(),
                               statistic=report.statistic.copy())
        again.__dict__["drift_report"] = copied
    return again


def load_trace(path) -> EpisodeTrace:
    """Parse a JSONL trace file back into an :class:`EpisodeTrace`.

    Raises ``ValueError`` naming the file on text that is not UTF-8, and
    naming the offending line on malformed content, a ``NaN``,
    ``Infinity`` or ``-Infinity`` anywhere in a line, a header whose
    ``schema_version`` is missing or not ``TRACE_SCHEMA_VERSION``, a
    header with a key other than ``schema_version``, ``config``, ``seed``
    and ``summary``, a wrong seed or summary, a ``config`` that
    :func:`read_run` rejects, a blank line, a record whose ``step`` is out
    of order or that :func:`_check_record` rejects against the header's
    ``offload`` (each named on its line), or a record count other than
    ``steps`` (named on line 1).
    A file that cannot be read raises ``OSError``.

    A record line that begins with the member the writer gives the next
    step, ``{"step":<n>,``, where the body after it repeats the previous
    line's and holds no ``"step"`` key of its own (parsed once per run of
    repeats), is the previous record again with that step and its own
    copies of the arrays (see :func:`_again`), with no ``json`` parse or
    decode: ``json`` would give it those very values.
    Every other line is parsed and decoded. Either way each record passes
    the step-order check and :func:`_check_record`, so the records, the
    errors and the lines they name are those a parse of every line gives.
    """
    path = Path(path)
    trace, lines = _read_header(path)
    offload = trace.offload
    decode = _codec(StepRecord)[1]
    report_size, threshold = report_rule(offload.method, offload.alpha, FEATURE_DIM)
    records = []
    # the body of the last line json decoded (None when that line did not
    # begin with the member the writer gives its step), the record decoded
    # from it, and whether the body was found to hold no "step" key
    body, last, keyless = None, None, False
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            if not line.strip():
                raise ValueError("blank line")
            member = '{"step":%d,' % len(records)
            if (body is not None and line.startswith(member)
                    and len(line) - len(member) == len(body) and line.endswith(body)
                    and (keyless or "step" not in _loads("{" + body))):
                keyless = True
                record = _again(last, len(records))
            else:
                record = last = decode(_loads(line))
                body = line[len(member):] if line.startswith(member) else None
                keyless = False
            if record.step != len(records):
                raise ValueError(f"step is {record.step}, not {len(records)}")
            _check_record(record, offload, report_size, threshold)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: line {lineno}: malformed record ({exc})") from exc
        records.append(record)
    if len(records) != trace.steps:
        raise ValueError(
            f"{path}: line 1: malformed header (steps is {trace.steps}, "
            f"but the trace has {len(records)} records)"
        )
    return dataclasses.replace(trace, records=tuple(records))
