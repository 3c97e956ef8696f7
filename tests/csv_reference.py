"""The CSV writer as it was before `twochoice.csvfile.write_csv` formatted
each chunk with one printf-style `%`: str() of every cell, and the rows
joined from the converted columns with zip. It is the oracle the package's
writer is fuzzed against in `tests/test_csvfile.py`; its bytes are the
ones the package must write.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

# rows per chunk: bounds the strings held at once on a long run
_CHUNK_ROWS = 1024


def _strings(part) -> map:
    return map(str, part.tolist() if hasattr(part, "tolist") else part)


def write_csv(path, comments: Iterable[str], header: str,
              columns: Sequence[Sequence]) -> None:
    """Write comment lines, the header and the rows that the equal-length
    columns form; creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write(header + "\n")
        for lo in range(0, rows, _CHUNK_ROWS):
            parts = [_strings(col[lo:lo + _CHUNK_ROWS]) for col in columns]
            f.write("\n".join(map(",".join, zip(*parts))) + "\n")
