"""Deterministic text output: shortest round-trip floats, stable JSON, CSV
with an embedded config header.  Everything downstream of these helpers is
byte-identical across runs with the same inputs."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

OUTDIR_ENV = "TIMINGQ_OUTDIR"


def json_text(obj) -> str:
    """Stable-key JSON with a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def config_comment(config: dict) -> str:
    return "# " + json.dumps(config, sort_keys=True)


def cells(values):
    """CSV cells of float values: their shortest round-trip reprs, which
    spell the specials nan, inf and -inf."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def csv_text(header, columns, config: dict | None = None) -> str:
    """CSV with an optional leading '# {json config}' comment line.

    `columns` are equal-length iterables of cell strings, one per header
    name, written as they are.
    """
    lines = []
    if config is not None:
        lines.append(config_comment(config))
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*columns)))
    lines.append("")  # the trailing newline, without copying the text again
    return "\n".join(lines)


def emit(text: str, out: str | None) -> None:
    """Write to stdout, or to `out` (creating parents); a relative `out`
    resolves under $TIMINGQ_OUTDIR when that is set."""
    if out is None:
        print(text, end="")
        return
    path = Path(out)
    base = os.environ.get(OUTDIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
