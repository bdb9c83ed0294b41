"""Source-text bookkeeping: reading and hashing inputs, files,
locations and spans.

Everything downstream of the lexer (parser, checkers, diagnostics) refers
back to positions in the input through these small value types, mirroring
how xg++ reports errors against the original FLASH source.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..errors import SourceReadError


def read_source(path: str) -> str:
    """The text of one input file (a translation unit, a protocol spec,
    a metal checker).

    An unreadable file — missing, a directory, no permission — raises
    :class:`SourceReadError` carrying the path, so drivers can report
    *which* input broke (or, inside a fleet worker, quarantine just that
    work item) instead of leaking a bare ``OSError`` traceback.
    Non-UTF-8 bytes are decoded permissively, so the tolerant frontend
    can still run over them (strict mode rejects the byte soup with an
    ordinary ``LexError``).
    """
    try:
        try:
            return Path(path).read_text()
        except UnicodeDecodeError:
            return Path(path).read_bytes().decode("utf-8", errors="replace")
    except OSError as exc:
        raise SourceReadError(
            f"cannot read source file {path}: {exc}", path=path
        ) from exc


def read_sources(paths: Iterable[str]) -> dict[str, str]:
    """``{path: text}`` for every path, in order (:func:`read_source`)."""
    return {path: read_source(path) for path in paths}


def source_fingerprint(text: str) -> str:
    """Stable content hash of one unit's source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Location:
    """A single point in a source file (1-based line and column)."""

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Span:
    """A half-open region of source text, from ``start`` up to ``end``."""

    start: Location
    end: Location

    def __str__(self) -> str:
        return str(self.start)

    @staticmethod
    def point(loc: Location) -> "Span":
        return Span(loc, loc)


_UNKNOWN = Location("<unknown>", 0, 0)


def unknown_location() -> Location:
    """Location used for synthesized nodes that have no source position."""
    return _UNKNOWN


_NEWLINE = re.compile("\n")


@dataclass
class SourceFile:
    """A named piece of source text plus per-line offsets for diagnostics."""

    name: str
    text: str
    _line_starts: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._line_starts = [0, *(m.end() for m in _NEWLINE.finditer(self.text))]

    def location(self, offset: int) -> Location:
        """Map a character offset to a (line, column) :class:`Location`."""
        if offset < 0 or offset > len(self.text):
            raise ValueError(f"offset {offset} out of range for {self.name}")
        line = bisect_right(self._line_starts, offset)
        return Location(self.name, line, offset - self._line_starts[line - 1] + 1)

    def line_text(self, line: int) -> str:
        """Return the text of 1-based ``line`` without its newline."""
        if line < 1 or line > len(self._line_starts):
            raise ValueError(f"line {line} out of range for {self.name}")
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]

    @property
    def line_count(self) -> int:
        """Number of lines in the file (a trailing newline does not add one)."""
        if not self.text:
            return 0
        n = len(self._line_starts)
        if self.text.endswith("\n"):
            n -= 1
        return max(n, 0)
