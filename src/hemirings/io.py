"""The algebra table file format.

Interchange contract between every command:

    # optional comments anywhere
    kind semilattice          (optional; hemiring files omit it)
    order N
    zero I
    one J                     (optional, hemiring only)
    add
    <N rows of N whitespace-separated indices>
    mul                       (hemiring only)
    <N rows>

Emission is canonical, so files round-trip byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteHemiring
from .lattices import FiniteSemilattice

__all__ = ["ParseError", "format_algebra", "parse_algebra", "parse_algebra_file",
           "write_algebra"]


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _significant_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


def parse_algebra(text: str) -> FiniteHemiring | FiniteSemilattice:
    """Parse a table file, returning a hemiring or (for kind semilattice)
    a semilattice; the tables are validated as they enter the package."""
    kind, ln, zero, one, add, mul = _read_tables(text)
    if kind == "semilattice":
        try:
            return FiniteSemilattice(add, zero=zero)
        except ValueError as exc:
            raise ParseError(str(exc), ln)
    return FiniteHemiring(add, mul, zero=zero, one=one)


def _read_tables(text: str) -> tuple:
    """The kind, the line of the first table block, zero, one and the add
    and mul tables (mul None for a semilattice) of a table file.

    Checks the file's shape and index ranges, not the algebra's laws.
    """
    lines = list(_significant_lines(text))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (0, "")

    def take():
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError("unexpected end of file", last)
        item = lines[pos]
        pos += 1
        return item

    kind = "hemiring"
    ln, line = peek()
    if line.startswith("kind"):
        take()
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("hemiring", "semilattice"):
            raise ParseError(f"bad kind line {line!r}", ln)
        kind = parts[1]

    def keyword_int(key: str):
        ln, line = take()
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(f"expected '{key} <int>', got {line!r}", ln)
        try:
            return ln, int(parts[1])
        except ValueError:
            raise ParseError(f"bad integer in {line!r}", ln)

    ln, order = keyword_int("order")
    if order < 1:
        raise ParseError("order must be positive", ln)
    ln, zero = keyword_int("zero")
    if not 0 <= zero < order:
        raise ParseError("zero index out of range", ln)

    one = None
    ln, line = peek()
    if line.startswith("one"):
        ln, one = keyword_int("one")
        if not 0 <= one < order:
            raise ParseError("one index out of range", ln)
        if kind == "semilattice":
            raise ParseError("semilattice files take no 'one' line", ln)

    def block(name: str) -> np.ndarray:
        ln, line = take()
        if line != name:
            raise ParseError(f"expected block '{name}', got {line!r}", ln)
        rows = []
        for _ in range(order):
            ln, line = take()
            try:
                row = [int(v) for v in line.split()]
            except ValueError:
                raise ParseError(f"bad table row {line!r}", ln)
            if len(row) != order:
                raise ParseError(f"expected {order} entries, got {len(row)}", ln)
            if any(not 0 <= v < order for v in row):
                raise ParseError("table entry out of range", ln)
            rows.append(row)
        return np.array(rows, dtype=np.int32)

    add = block("add")
    if kind == "semilattice":
        if pos != len(lines):
            raise ParseError("trailing content after semilattice table", lines[pos][0])
        return kind, ln, zero, one, add, None
    mul = block("mul")
    if pos != len(lines):
        raise ParseError("trailing content after tables", lines[pos][0])
    return kind, ln, zero, one, add, mul


def parse_algebra_file(path) -> FiniteHemiring | FiniteSemilattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def format_algebra(alg: FiniteHemiring | FiniteSemilattice) -> str:
    """Canonical emission; parse(format(x)) == x."""
    out = []
    if isinstance(alg, FiniteSemilattice):
        out.append("kind semilattice")
        out.append(f"order {alg.order}")
        out.append(f"zero {alg.zero}")
        out.append("add")
        for row in alg.join:
            out.append(" ".join(str(int(v)) for v in row))
    else:
        out.append(f"order {alg.order}")
        out.append(f"zero {alg.zero}")
        if alg.one is not None:
            out.append(f"one {alg.one}")
        out.append("add")
        for row in alg.add:
            out.append(" ".join(str(int(v)) for v in row))
        out.append("mul")
        for row in alg.mul:
            out.append(" ".join(str(int(v)) for v in row))
    return "\n".join(out) + "\n"


def write_algebra(alg, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_algebra(alg))
