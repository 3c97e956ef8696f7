"""The one CSV writer behind every artifact the package writes.

A file is `# `-prefixed comment lines, one header line, then one
comma-joined line per row; every line ends with a bare newline. Values are
written as str() writes them, which for Python floats is the shortest repr
that reads back to the same double. The writer takes columns, not rows:
each chunk of rows is one printf-style `%` over the chunk's values (numpy
columns converted with .tolist()), interleaved row by row into one flat
tuple, with one spec per column. An integer column is `%d`; a float column
whose values str() writes as the integer plus ".0" is `%d.0`; anything
else is `%s`, which is str(). Callers that build rows transpose them first.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# rows per chunk: bounds the strings held at once on a long run
_CHUNK_ROWS = 1024


def _spec(part) -> str:
    """The spec that writes every value of one chunk of a column as str()."""
    kind = part.dtype.kind if isinstance(part, np.ndarray) else "O"
    if kind in ("i", "u"):
        return "%d"
    # str() of a whole float is the integer and ".0" below 1e16, where the
    # exponent form starts; -0.0 would lose its sign to %d
    if (kind == "f" and (np.trunc(part) == part).all() and np.abs(part).max() < 1e16
            and not np.signbit(part[part == 0]).any()):
        return "%d.0"
    return "%s"


def write_csv(path, comments: Iterable[str], header: str,
              columns: Sequence[Sequence]) -> None:
    """Write comment lines, the header and the rows that the equal-length
    columns form; creates the parent directory. Columns of unequal length
    raise ValueError before anything is created."""
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = lengths[0] if lengths else 0
    width = len(columns)
    with open(path, "w", newline="") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write(header + "\n")
        for lo in range(0, rows, _CHUNK_ROWS):
            parts = [col[lo:lo + _CHUNK_ROWS] for col in columns]
            n = len(parts[0])
            values = [None] * (n * width)
            for c, part in enumerate(parts):
                values[c::width] = part.tolist() if hasattr(part, "tolist") else part
            f.write((",".join(map(_spec, parts)) + "\n") * n % tuple(values))
