"""CSV readers/writers for simulation and analysis artifacts.

All files are comma-delimited UTF-8 with LF line endings, a header row,
and optional '#'-prefixed comment lines (ignored on read). Floats are
written with shortest round-trip decimal formatting so identical runs
produce byte-identical files and reads reproduce binary64 values
exactly. Every file is written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import KoopnetError
from .ifo import AvalancheRecord
from .snapshots import SnapshotMatrix


class FileFormatError(KoopnetError, ValueError):
    """A CSV artifact does not parse; carries the offending line number."""


@contextmanager
def _atomic_open(path: Path):
    """Open a temp file beside `path` for writing; on success rename it
    over `path`, so readers never see a partial artifact."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Write a whole text file atomically."""
    with _atomic_open(path) as fh:
        fh.write(text)


def write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows atomically, one line at a time. Floats
    use repr(), the shortest decimal that round-trips; anything else
    uses str()."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row]) + "\n")


def write_snapshots(path: Path, snapshots: SnapshotMatrix) -> None:
    write_csv(path, snapshots.node_labels(), (row.tolist() for row in snapshots.data))


def _lines(path: Path):
    """(line number, line) for every non-blank, non-'#' line of a file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line and not line.startswith("#"):
                yield lineno, line


def read_snapshots(path: Path, dt: float = 1.0) -> SnapshotMatrix:
    """Parse a snapshots CSV back into a matrix; `dt` is supplied by the
    caller (it lives in meta.csv, not in the snapshot file)."""
    lines = _lines(path)
    _, header = next(lines, (0, ""))  # an empty file has no header and no rows
    labels = header.split(",")
    rows = []
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != len(labels):
            raise FileFormatError(
                f"{path}:{lineno}: expected {len(labels)} fields, got {len(fields)}"
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    return SnapshotMatrix(data=np.array(rows), dt=dt, labels=labels)


def write_ifo_events(path: Path, records: list[AvalancheRecord]) -> None:
    rows = [
        (float(r.start_time), r.size, ";".join(str(i) for i in sorted(r.participants)))
        for r in records
    ]
    write_csv(path, ["start_time", "size", "participants"], rows)


def write_bs_events(path: Path, min_history: list[int]) -> None:
    write_csv(path, ["iteration", "min_index"],
              ((k, i) for k, i in enumerate(min_history)))


def write_meta(path: Path, meta: dict) -> None:
    write_csv(path, ["key", "value"], meta.items())


def read_meta(path: Path) -> dict[str, str]:
    """key -> value of a meta.csv; a `key,value` header is skipped."""
    rows = [line.partition(",") for _, line in _lines(path)]
    if rows and rows[0] == ("key", ",", "value"):
        del rows[0]
    return {key: value for key, _, value in rows}
