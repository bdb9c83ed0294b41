"""Tokenizer for the C subset understood by the frontend.

The lexer produces a flat list of :class:`Token` objects.  It understands
the full C operator set, character/string/number literals, and both comment
styles.  FLASH macros (``WAIT_FOR_DB_FULL`` and friends) arrive here as
ordinary identifiers — exactly how xg++ saw them after preprocessing.

Scanning is one compiled regular expression: each match is a run of
skipped text (whitespace, comments, preprocessor directives) followed by
one named alternative — identifier, number, string, character, an
unterminated literal or ``/*``, punctuation longest-first, a run of
characters no token can start with, or the end of the input.  Line and
column come from :meth:`SourceFile.location`, a bisection over the
file's line starts.

In **tolerant** mode (``Lexer(source, tolerant=True)``) the lexer never
raises: byte sequences it cannot tokenize become ``UNKNOWN`` tokens and
unterminated literals/comments are closed at end of line or end of file,
so the recovering parser (:mod:`repro.lang.parser`) always receives a
complete token stream for arbitrary input.  Both modes scan with the
same expression; they differ only in what they do with an unterminated
or unclassifiable match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from ..errors import LexError
from .source import Location, SourceFile


class TokenKind(Enum):
    IDENT = auto()
    KEYWORD = auto()
    INT_LIT = auto()
    FLOAT_LIT = auto()
    CHAR_LIT = auto()
    STRING_LIT = auto()
    PUNCT = auto()
    #: Tolerant-mode lane: input the lexer cannot classify.  Never
    #: produced in strict mode (strict raises :class:`LexError` instead).
    UNKNOWN = auto()
    EOF = auto()


KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register return short signed sizeof
    static struct switch typedef union unsigned void volatile while
    """.split()
)

# Longest-match-first punctuation table.
PUNCTUATION = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "?", ":",
    "+", "-", "*", "/", "%", "<", ">", "=", "&", "^", "|", "!", "~",
)


# Text skipped between tokens: whitespace, both comment styles, and
# preprocessor directives.  ``#include`` consumes only its filename (so
# the metal preamble ``{ #include "flash-includes.h" }`` keeps its
# closing brace); every other directive runs to end of line, honouring
# backslash continuations.
_SKIP = (
    r"(?:[ \t\r\n\f\v]+"
    r"|//[^\n]*"
    r"|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
    r'|#[ \t]*(?:include(?![A-Za-z0-9_])[ \t]*(?:"[^"]*"?|<[^>]*>?)?'
    r"|(?:\\\n|[^\n])*))*"
)

# Characters that can start a token or skipped text; a maximal run of
# any others is one UNKNOWN token (tolerant) or a LexError (strict).
_CLASSIFIABLE = frozenset(
    " \t\r\n\f\v#\"'._0123456789"
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
) | {punct[0] for punct in PUNCTUATION}

# A backslash escapes any character, newline included.
_QUOTED_BODY = r"[^{q}\\\n]*(?:\\.[^{q}\\\n]*)*"
_STRING_BODY = _QUOTED_BODY.format(q='"')
_CHAR_BODY = _QUOTED_BODY.format(q="'")

# The token alternatives, tried in order after the skipped text.  Upper-
# case names are the TokenKind of the token they produce; what the
# lower-case ones produce depends on the mode.
_ALTERNATIVES = (
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    # A number is a float if it has a fraction, an exponent or an f/F
    # suffix; ``0x`` numbers take no fraction or exponent, and a ``.``
    # followed by another ``.`` is not a fraction.
    ("FLOAT_LIT",
     r"0[xX][0-9a-fA-F]*[uUlL]+[fF][uUlLfF]*"
     r"|(?:[0-9]+\.(?!\.)[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[uUlLfF]*"
     r"|[0-9]+(?:[eE][+-]?[0-9]+[uUlLfF]*|[uUlL]*[fF][uUlLfF]*)"),
    ("INT_LIT", r"0[xX][0-9a-fA-F]*[uUlL]*|[0-9]+[uUlL]*"),
    ("STRING_LIT", f'"{_STRING_BODY}"'),
    ("CHAR_LIT", f"'{_CHAR_BODY}'"),
    # Unterminated: the literal stops at end of line or end of input.
    ("open_string", f'"{_STRING_BODY}\\\\?'),
    ("open_char", f"'{_CHAR_BODY}\\\\?"),
    ("open_comment", r"/\*"),
    ("PUNCT", "|".join(re.escape(punct) for punct in PUNCTUATION)),
    ("unknown",
     "[^" + "".join(re.escape(ch) for ch in sorted(_CLASSIFIABLE)) + "]+"),
    ("end", r"\Z"),
)

# Every character starts skipped text or some alternative, so a match
# never fails after the skipped text and never backtracks into it.
_SCANNER = re.compile(
    _SKIP + "(?:" + "|".join(f"(?P<{name}>{pattern})"
                             for name, pattern in _ALTERNATIVES) + ")",
    re.DOTALL,
)

# TokenKind by match.lastindex; None for the lower-case alternatives.
_KINDS = (None,) + tuple(getattr(TokenKind, name, None)
                         for name, _ in _ALTERNATIVES)

_UNTERMINATED = {
    "open_string": ('"', TokenKind.STRING_LIT, "unterminated string literal"),
    "open_char": ("'", TokenKind.CHAR_LIT, "unterminated character literal"),
}


@dataclass(frozen=True)
class Token:
    """One lexical token with its spelling and source location."""

    kind: TokenKind
    text: str
    location: Location

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text


class Lexer:
    """Single-pass tokenizer over a :class:`SourceFile`."""

    def __init__(self, source: SourceFile, tolerant: bool = False):
        self.source = source
        self.text = source.text
        self.tolerant = tolerant

    def tokenize(self) -> list[Token]:
        """Tokenize the whole file, appending a single EOF token."""
        locate = self.source.location
        kinds, keywords = _KINDS, KEYWORDS
        ident, keyword = TokenKind.IDENT, TokenKind.KEYWORD
        tokens: list[Token] = []
        append = tokens.append
        for match in _SCANNER.finditer(self.text):
            index = match.lastindex
            location = locate(match.start(index))
            kind = kinds[index]
            text = match.group(index)
            if kind is ident:
                if text in keywords:
                    kind = keyword
            elif kind is None:
                group = match.lastgroup
                if group == "end":
                    break
                if group == "open_comment":
                    if self.tolerant:
                        break  # the rest of the file is comment
                    raise LexError("unterminated block comment", location)
                if group == "unknown":
                    if not self.tolerant:
                        raise LexError(f"unexpected character {text[0]!r}",
                                       location)
                    kind = TokenKind.UNKNOWN
                else:
                    quote, kind, message = _UNTERMINATED[group]
                    if not self.tolerant:
                        raise LexError(message, location)
                    text += quote  # close the literal at end of line
            append(Token(kind, text, location))
        append(Token(TokenKind.EOF, "", locate(len(self.text))))
        return tokens


def tokenize(text: str, filename: str = "<input>",
             tolerant: bool = False) -> list[Token]:
    """Convenience wrapper: tokenize ``text`` into a token list (with EOF)."""
    return Lexer(SourceFile(filename, text), tolerant=tolerant).tokenize()
