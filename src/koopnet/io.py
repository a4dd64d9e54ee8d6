"""CSV readers/writers for simulation and analysis artifacts.

All files are comma-delimited UTF-8 with LF line endings, a header row,
and optional '#'-prefixed comment lines (ignored on read). Every file
goes through `write_csv`. Each of its rows is either a ready line (a
`str`, without the newline) or a sequence of cells; cells are strings or
Python ints and floats, and a float is written as its repr, the shortest
decimal that round-trips, so identical runs produce byte-identical files
and reads reproduce binary64 values exactly. Callers format each value
once: they pass Python scalars (from `.tolist()`), not numpy scalars, or
lines they built from them. Lines are written as they are made, and
every file is written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import KoopnetError
from .ifo import AvalancheRecord
from .snapshots import _BLOCK_ROWS


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


def write_csv(path: Path, header: list[str], rows: Iterable[str | Iterable]) -> None:
    """Write a header and rows atomically, each line as it is made. A
    `str` row is a ready line and passes through as is; any other row is
    a sequence of cells, each written as str(cell). Cells are strings,
    which pass through unchanged, or Python ints and floats; for a
    Python float str() is repr(), the shortest decimal that round-trips.
    `rows` is iterated once."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines((row if isinstance(row, str) else ",".join(map(str, row))) + "\n"
                      for row in rows)


def _snapshot_lines(blocks: Iterable[np.ndarray]):
    """The CSV line of every row of the record whose row blocks, in
    order, `blocks` yields. A cell is formatted only when its bits
    differ from the same cell of the row before, across block edges too
    (a Bak-Sneppen update redraws 3 sites of the ring); the others keep
    their text. Bits, not values, are compared: -0.0 == 0.0, but their
    reprs differ. A block is compared `_BLOCK_ROWS` rows at a time."""
    cells = prev = None
    for block in blocks:
        for start in range(0, block.shape[0], _BLOCK_ROWS):
            rows = block[start:start + _BLOCK_ROWS]
            bits = rows.view(np.int64)
            changed = np.empty(rows.shape, dtype=bool)
            if prev is None:
                cells = [""] * rows.shape[1]
                changed[0] = True
            else:
                np.not_equal(bits[0], prev, out=changed[0])
            np.not_equal(bits[1:], bits[:-1], out=changed[1:])
            prev = bits[-1]
            # (column, text) of each changed cell, formatted as the rows are pulled
            texts = zip(np.nonzero(changed)[1].tolist(), map(repr, rows[changed].tolist()))
            for count in changed.sum(axis=1).tolist():
                for j, text in islice(texts, count):
                    cells[j] = text
                yield ",".join(cells)
            del texts   # its lists, before the next batch builds its own


def write_snapshots(path: Path, labels: list[str], blocks: Iterable[np.ndarray]) -> None:
    """Write a record as CSV: the node `labels`, then one row per
    snapshot from the record's row blocks, in order (a SnapshotMatrix is
    the one block ``[snapshots.data]``). Only the cells that changed since
    the row before are formatted again (`_snapshot_lines`); its lines
    reach `write_csv` as ready `str` rows."""
    write_csv(path, labels, _snapshot_lines(blocks))


def _lines(path: Path):
    """(line number, line) for every non-blank, non-'#' line of a file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line and not line.startswith("#"):
                yield lineno, line


def read_snapshots(path: Path) -> tuple[list[str], Iterable[np.ndarray]]:
    """The node labels of a snapshots CSV, and a generator of its rows
    in blocks of `_BLOCK_ROWS`, parsed as they are pulled. A malformed or
    non-finite row, or a file with no rows, raises FileFormatError."""
    lines = _lines(path)
    _, header = next(lines, (0, ""))  # an empty file has no header and no rows
    labels = header.split(",")

    def blocks():
        block = None
        while chunk := list(islice(lines, _BLOCK_ROWS)):
            rows = []
            for lineno, line in chunk:
                fields = line.split(",")
                if len(fields) != len(labels):
                    raise FileFormatError(
                        f"{path}:{lineno}: expected {len(labels)} fields, got {len(fields)}"
                    )
                try:
                    rows.append(list(map(float, fields)))
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{lineno}: {exc}") from None
            block = np.array(rows)
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                raise FileFormatError(f"{path}:{chunk[finite.argmin()][0]}: non-finite value")
            yield block
        if block is None:
            raise FileFormatError(f"{path}: no data rows")
    return labels, blocks()


def write_ifo_events(path: Path, records: list[AvalancheRecord]) -> None:
    """One row per avalanche: its start time, its size and its
    participants in ascending order, joined by ';'. The rows are made as
    `write_csv` pulls them."""
    write_csv(path, ["start_time", "size", "participants"],
              ((float(r.start_time), r.size, ";".join(map(str, r.participants.tolist())))
               for r in records))


def write_bs_events(path: Path, min_history: list[int]) -> None:
    write_csv(path, ["iteration", "min_index"],
              (f"{k},{i}" for k, i in enumerate(min_history)))


def write_meta(path: Path, meta: dict) -> None:
    write_csv(path, ["key", "value"], meta.items())


def read_meta(path: Path) -> dict[str, str]:
    """key -> value of a meta.csv; a `key,value` header is skipped."""
    rows = [line.partition(",") for _, line in _lines(path)]
    if rows and rows[0] == ("key", ",", "value"):
        del rows[0]
    return {key: value for key, _, value in rows}
