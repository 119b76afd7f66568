"""Persistent run outputs: JSON-lines, CSV, and the resolved config.

Layout of a run directory:

    <run>/report.jsonl       header lines + one JSON object per record
    <run>/report.csv         same records, flat columns for plotting
    <run>/config.resolved    the exact RunConfig text

The JSONL header is three lines: a format-version object, a timestamp
object (the only nondeterministic bytes in the file), and the embedded
config.  Records keep their insertion key order, so identical configs
and seeds produce byte-identical files apart from the timestamp line.
List-valued record fields are ';'-joined in the CSV.  ``value_text`` is
the one rule that turns a value into text, for CSV cells and for the
config lines alike.
"""

from __future__ import annotations

import csv
import io
import json
import time
from pathlib import Path

from .config import RunConfig
from .errors import ParameterError

FORMAT_VERSION = "dirichlet-lab-report/1"


def value_text(value, sep: str = ";") -> str:
    """Text of a value: lists joined by sep, floats by repr, None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return sep.join(value_text(v, sep) for v in value)
    return str(value)


def render_jsonl(config: RunConfig, records, timestamp: str) -> str:
    lines = [
        json.dumps({"format": FORMAT_VERSION}),
        json.dumps({"timestamp": timestamp}),
        json.dumps({"config": config.to_text()}),
    ]
    lines.extend(json.dumps(rec) for rec in records)
    return "\n".join(lines) + "\n"


def render_csv(config: RunConfig, records, timestamp: str) -> str:
    out = io.StringIO()
    out.write("# format: %s\n" % FORMAT_VERSION)
    out.write("# timestamp: %s\n" % timestamp)
    for line in config.to_text().splitlines():
        out.write("# config: %s\n" % line)
    if records:
        columns = list(records[0])
        for rec in records:
            if list(rec) != columns:
                raise ParameterError("records disagree on columns: %r vs %r"
                                     % (columns, list(rec)))
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([value_text(rec[c]) for c in columns])
    return out.getvalue()


def write_report(run_dir, config: RunConfig, records) -> Path:
    """Write report.jsonl, report.csv, and config.resolved under run_dir."""
    records = list(records)
    path = Path(run_dir)
    path.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    (path / "report.jsonl").write_text(render_jsonl(config, records, stamp))
    (path / "report.csv").write_text(render_csv(config, records, stamp))
    (path / "config.resolved").write_text(config.to_text())
    return path
