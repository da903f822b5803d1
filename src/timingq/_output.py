"""Deterministic text output: shortest round-trip floats, stable JSON, CSV
with an embedded config header.  Everything downstream of these helpers is
byte-identical across runs with the same inputs."""

from __future__ import annotations

import json
import os
from pathlib import Path

OUTDIR_ENV = "TIMINGQ_OUTDIR"


def json_text(obj) -> str:
    """Stable-key JSON with a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def config_comment(config: dict) -> str:
    return "# " + json.dumps(config, sort_keys=True)


def csv_text(columns, rows, config: dict | None = None) -> str:
    """CSV with an optional leading '# {json config}' comment line.

    Cells are strings, written as they are, ints, or floats in their
    shortest round-trip repr, which spells the specials nan, inf and -inf.
    """
    lines = []
    if config is not None:
        lines.append(config_comment(config))
    lines.append(",".join(columns))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    lines.append("")  # the trailing newline, without copying the text again
    return "\n".join(lines)


def _cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    if isinstance(cell, int):
        return str(cell)
    return repr(float(cell))


def resolve_out_path(out: str | None) -> Path | None:
    """Apply the output-directory environment default to a relative path."""
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get(OUTDIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def emit(text: str, out: str | None) -> None:
    """Write to the resolved path (creating parents) or stdout."""
    path = resolve_out_path(out)
    if path is None:
        print(text, end="")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
