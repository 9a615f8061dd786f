"""An executable spec of the trace loader's record loop, written for reading.

:func:`spec_load_trace` reads a trace file's header as
:func:`ecdrive.trace.load_trace` does, then parses and decodes every record
line on its own: ``json``, the generated decoder, the step-order check and
the self-consistency check, line by line. So it states what the loader's
reuse of a repeated line's record must keep: the same records, and on a
malformed trace the same exception and message.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from ecdrive import StepRecord
from ecdrive.codec import FEATURE_DIM
from ecdrive.drift import report_rule
from ecdrive.trace import _check_record, _codec, _loads, _read_header


def spec_load_trace(path):
    """The trace at ``path``, every record line parsed and decoded."""
    path = Path(path)
    trace, lines = _read_header(path)
    offload = trace.offload
    decode = _codec(StepRecord)[1]
    report_size, threshold = report_rule(offload.method, offload.alpha, FEATURE_DIM)
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            if not line.strip():
                raise ValueError("blank line")
            record = decode(_loads(line))
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
