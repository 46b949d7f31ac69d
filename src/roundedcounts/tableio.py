"""Round-trippable CSV/JSON table emission.

Tables carry their fully resolved configuration in ``#``-prefixed header
comment lines (CSV) or a ``config`` object (JSON).  Reals are written with
17 significant digits and always carry a decimal marker, so re-parsing
recovers the original values and types exactly; reruns of the same
deterministic computation therefore produce byte-identical files (UTF-8,
LF line endings, minimal quoting).
"""

from __future__ import annotations

import csv
import io
import json

__all__ = ["format_cell", "write_csv", "write_json", "read_csv", "parse_cell"]


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = f"{value:.17g}"
        # The .17g format writes exponents with a lower-case "e" only.
        if "." not in text and "e" not in text and text not in ("inf", "-inf", "nan"):
            text += ".0"
        return text
    return str(value)


def parse_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def write_csv(stream: io.TextIOBase, config: dict, columns: list[str], rows) -> None:
    for key in sorted(config):
        stream.write(f"# {key}={format_cell(config[key])}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])


def write_json(stream: io.TextIOBase, config: dict, columns: list[str], rows) -> None:
    payload = {
        "config": {key: config[key] for key in sorted(config)},
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    json.dump(payload, stream, sort_keys=True, indent=2, allow_nan=True)
    stream.write("\n")


def read_csv(stream: io.TextIOBase):
    """Parse a table written by :func:`write_csv` back into
    (config, columns, rows) with cell types recovered."""
    config: dict = {}
    data_lines: list[str] = []
    for line in stream:
        stripped = line.rstrip("\n")
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            key, _, raw = body.partition("=")
            config[key] = parse_cell(raw)
            continue
        data_lines.append(stripped)
    reader = csv.reader(data_lines)
    table = list(reader)
    if not table:
        return config, [], []
    columns = table[0]
    rows = [[parse_cell(cell) for cell in row] for row in table[1:]]
    return config, columns, rows
