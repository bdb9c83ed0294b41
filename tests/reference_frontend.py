"""Reference implementations of the frontend, kept as test oracles.

``repro.lang.lexer`` scans with one compiled master regex and
``repro.lang.parser`` parses binary operators by precedence climbing.
This module keeps a plain, slower implementation of each, the way
``repro.mc.engine._PATHS_ORACLE`` keeps the unsliced paths walk:

* :class:`ReferenceLexer` moves one character per loop step, probes
  ``PUNCTUATION`` entry by entry with ``startswith``, and maps offsets
  to lines with its own per-character line table and binary search;
* :class:`ReferenceParser` parses binary operators with one recursive
  call per precedence level of ``_BINOP_LEVELS``.

``tests/test_frontend_oracle.py`` checks that the production frontend
produces the same token streams, ``LexError`` messages and locations,
and ASTs as these.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang import ast
from repro.lang.lexer import KEYWORDS, PUNCTUATION, Token, TokenKind
from repro.lang.parser import _BINOP_LEVELS, Parser
from repro.lang.source import Location, SourceFile

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")


def _line_starts(text: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


class ReferenceLexer:
    """The character-at-a-time tokenizer (same interface as ``Lexer``)."""

    def __init__(self, source: SourceFile, tolerant: bool = False):
        self.source = source
        self.text = source.text
        self.pos = 0
        self.tolerant = tolerant
        self._starts = _line_starts(source.text)

    def tokenize(self) -> list[Token]:
        """Tokenize the whole file, appending a single EOF token."""
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.text):
                tokens.append(Token(TokenKind.EOF, "", self._loc(self.pos)))
                return tokens
            tokens.append(self._next_token())

    # -- internals ---------------------------------------------------------

    def _loc(self, offset: int) -> Location:
        offset = min(offset, len(self.text))
        lo, hi = 0, len(self._starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return Location(self.source.name, lo + 1, offset - self._starts[lo] + 1)

    def _skip_whitespace_and_comments(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n\f\v":
                self.pos += 1
            elif ch == "#":
                self._skip_directive()
            elif text.startswith("//", self.pos):
                while self.pos < n and text[self.pos] != "\n":
                    self.pos += 1
            elif text.startswith("/*", self.pos):
                end = text.find("*/", self.pos + 2)
                if end == -1:
                    if self.tolerant:
                        self.pos = n
                        return
                    raise LexError("unterminated block comment", self._loc(self.pos))
                self.pos = end + 2
            else:
                return

    def _skip_directive(self) -> None:
        text, n = self.text, len(self.text)
        self.pos += 1  # '#'
        while self.pos < n and text[self.pos] in " \t":
            self.pos += 1
        start = self.pos
        while self.pos < n and text[self.pos] in _IDENT_CONT:
            self.pos += 1
        directive = text[start:self.pos]
        if directive == "include":
            while self.pos < n and text[self.pos] in " \t":
                self.pos += 1
            if self.pos < n and text[self.pos] == '"':
                end = text.find('"', self.pos + 1)
                self.pos = n if end == -1 else end + 1
            elif self.pos < n and text[self.pos] == "<":
                end = text.find(">", self.pos + 1)
                self.pos = n if end == -1 else end + 1
            return
        while self.pos < n and text[self.pos] != "\n":
            if text[self.pos] == "\\" and self.pos + 1 < n and text[self.pos + 1] == "\n":
                self.pos += 1
            self.pos += 1

    def _next_token(self) -> Token:
        ch = self.text[self.pos]
        if ch in _IDENT_START:
            return self._lex_ident()
        if ch in _DIGITS or (ch == "." and self._peek(1) in _DIGITS):
            return self._lex_number()
        if ch == '"':
            return self._lex_string()
        if ch == "'":
            return self._lex_char()
        return self._lex_punct()

    def _peek(self, ahead: int) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def _lex_ident(self) -> Token:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        text = self.text[start:self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, self._loc(start))

    def _lex_number(self) -> Token:
        start = self.pos
        text = self.text
        is_float = False
        if text.startswith(("0x", "0X"), self.pos):
            self.pos += 2
            while self.pos < len(text) and text[self.pos] in _HEX_DIGITS:
                self.pos += 1
        else:
            while self.pos < len(text) and text[self.pos] in _DIGITS:
                self.pos += 1
            if self.pos < len(text) and text[self.pos] == "." and self._peek(1) != ".":
                is_float = True
                self.pos += 1
                while self.pos < len(text) and text[self.pos] in _DIGITS:
                    self.pos += 1
            if self.pos < len(text) and text[self.pos] in "eE":
                nxt = self._peek(1)
                if nxt in _DIGITS or (nxt in "+-" and self._peek(2) in _DIGITS):
                    is_float = True
                    self.pos += 1
                    if text[self.pos] in "+-":
                        self.pos += 1
                    while self.pos < len(text) and text[self.pos] in _DIGITS:
                        self.pos += 1
        while self.pos < len(text) and text[self.pos] in "uUlLfF":
            if text[self.pos] in "fF":
                is_float = True
            self.pos += 1
        kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
        return Token(kind, text[start:self.pos], self._loc(start))

    def _lex_quoted(self, quote: str, kind: TokenKind, what: str) -> Token:
        start = self.pos
        self.pos += 1
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "\\":
                self.pos += 2
                continue
            if ch == quote:
                self.pos += 1
                return Token(kind, text[start:self.pos], self._loc(start))
            if ch == "\n":
                break
            self.pos += 1
        if self.tolerant:
            return Token(kind, text[start:self.pos] + quote, self._loc(start))
        raise LexError(f"unterminated {what} literal", self._loc(start))

    def _lex_string(self) -> Token:
        return self._lex_quoted('"', TokenKind.STRING_LIT, "string")

    def _lex_char(self) -> Token:
        return self._lex_quoted("'", TokenKind.CHAR_LIT, "character")

    def _lex_punct(self) -> Token:
        for punct in PUNCTUATION:
            if self.text.startswith(punct, self.pos):
                tok = Token(TokenKind.PUNCT, punct, self._loc(self.pos))
                self.pos += len(punct)
                return tok
        if self.tolerant:
            start = self.pos
            while (self.pos < len(self.text)
                   and not self._classifiable(self.text[self.pos])):
                self.pos += 1
            return Token(TokenKind.UNKNOWN, self.text[start:self.pos],
                         self._loc(start))
        raise LexError(
            f"unexpected character {self.text[self.pos]!r}", self._loc(self.pos)
        )

    def _classifiable(self, ch: str) -> bool:
        if ch in " \t\r\n\f\v#":
            return True
        if ch in _IDENT_START or ch in _DIGITS or ch in "\"'.":
            return True
        return any(p.startswith(ch) for p in PUNCTUATION)


class ReferenceParser(Parser):
    """``Parser`` with the one-call-per-precedence-level binary parser."""

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_BINOP_LEVELS):
            return self._parse_unary()
        ops = _BINOP_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self.tok.kind is TokenKind.PUNCT and self.tok.text in ops:
            op = self.advance().text
            right = self._parse_binary(level + 1)
            left = ast.BinaryOp(op=op, left=left, right=right, location=left.location)
        return left
