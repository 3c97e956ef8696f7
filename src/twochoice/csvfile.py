"""The one CSV writer behind every artifact the package writes.

A file is `# `-prefixed comment lines, one header line, then one
comma-joined line per row; every line ends with a bare newline. Values are
written with str(), which for Python floats is the shortest repr that
reads back to the same double, so columnar callers pass numpy columns
converted once with .tolist() rather than element by element.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable


def write_csv(path, comments: Iterable[str], header: str, rows: Iterable[Iterable]) -> None:
    """Write comment lines, the header and the rows; creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write(header + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)
