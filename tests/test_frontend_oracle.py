"""The production frontend against its reference implementations.

``tests/reference_frontend.py`` keeps a character-at-a-time lexer and a
one-call-per-precedence-level binary parser as references for the
master-regex scanner and the precedence-climbing parser.  These
differential tests require, in strict and in tolerant mode:

* the same token stream — kind, text and ``Location`` of every token —
  or the same ``LexError`` message and location, with every production
  token's offset mapping back to its location and its text;
* the same AST, locations included, for generated binary, ternary and
  assignment expressions, and for every unit of generated bitvector.
"""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexError, ParseError
from repro.flash.codegen import generate_protocol
from repro.lang import ast
from repro.lang.lexer import Lexer, TokenKind
from repro.lang.parser import _ASSIGN_OPS, _BINOP_PRECEDENCE, Parser
from repro.lang.source import SourceFile

from .reference_frontend import ReferenceLexer, ReferenceParser

REALWORLD = Path(__file__).resolve().parent.parent / "examples" / "realworld"
PROTOCOLS = ("bitvector", "dyn_ptr", "sci", "coma", "rac")
MODES = (False, True)  # tolerant off, on


def _scan(lexer_class, text, tolerant):
    """Token triples, or the LexError's message and location."""
    lexer = lexer_class(SourceFile("oracle.c", text), tolerant=tolerant)
    try:
        tokens = lexer.tokenize()
    except LexError as exc:
        return ("LexError", exc.message, exc.location)
    return [(t.kind, t.text, t.location) for t in tokens]


def assert_offsets_round_trip(text, tolerant):
    """Each token's offset gives its location, and spells its text in
    the source, except the end marker and a literal the tolerant lexer
    closed itself (its source runs to the end of the line or input)."""
    source = SourceFile("oracle.c", text)
    try:
        tokens = Lexer(source, tolerant=tolerant).tokenize()
    except LexError:
        return
    for tok in tokens:
        assert source.location(tok.offset) == tok.location, (tok, text)
        if tok.kind is TokenKind.EOF:
            continue
        spelled = text[tok.offset:tok.offset + len(tok.text)]
        if (spelled != tok.text and tolerant
                and tok.kind in (TokenKind.STRING_LIT, TokenKind.CHAR_LIT)):
            end = tok.offset + len(tok.text) - 1
            assert text[tok.offset:end] == tok.text[:-1], (tok, text)
            assert text[end:end + 1] in ("", "\n"), (tok, text)
        else:
            assert spelled == tok.text, (tok, text)


def assert_same_tokens(text):
    for tolerant in MODES:
        assert (_scan(Lexer, text, tolerant)
                == _scan(ReferenceLexer, text, tolerant)), (tolerant, text)
        assert_offsets_round_trip(text, tolerant)


# Fragments that each exercise one branch of the scanner: directives,
# comment openers and closers, hex prefixes, the ellipsis against a
# fraction, line continuations, both quotes, a lone backslash, and
# characters no token can start with.
_C_FRAGMENTS = (
    "#include", "#define X 1", ' "f.h"', " <s.h>", "/*", "*/", "//",
    "0x", "...", "\\\n", '"', "'", "\\", "é", " ", "\x00", "@", "$",
    " ", "\t", "\n", "\r\n", "\f",
    "a", "x1", "_", "int", "while", "0", "7", ".", "e", "E", "f", "F",
    "u", "L", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|",
    "^", "~", "?", ":", ";", ",", "{", "}", "(", ")", "[", "]", "#",
)


class TestScannerMatchesReference:
    @given(st.text(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        assert_same_tokens(text)

    @given(st.lists(st.sampled_from(_C_FRAGMENTS), max_size=80).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_c_flavoured_fragments(self, text):
        assert_same_tokens(text)

    @pytest.mark.parametrize("text", [
        "", "x", "1..2", "1.e5", ".5f", "0x1fu", "0x1uf", "0X", "1e+", "1e+5L",
        '"abc\\', "'\\\n'", '"a\\"', "#include", "#include <a.h", '#include "a',
        "#  include\t<a.h> x", "#define A \\\n B\nx", "/*/", "/**/x", "/* a",
        "a /* b */ c // d\ne", "@@ x", "é+", "\\", "int\x0bx",
    ])
    def test_edge_cases(self, text):
        assert_same_tokens(text)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_generated_protocol(self, protocol):
        for text in generate_protocol(protocol).files.values():
            assert_same_tokens(text)

    @pytest.mark.parametrize("path", sorted(REALWORLD.rglob("*.c")),
                             ids=lambda p: p.name)
    def test_realworld_corpus(self, path):
        assert_same_tokens(path.read_bytes().decode("utf-8", errors="replace"))


def _dump(value):
    """An AST as nested tuples, with every node's location."""
    if isinstance(value, ast.Node):
        return (type(value).__name__, value.location, tuple(
            (f.name, _dump(getattr(value, f.name)))
            for f in dataclasses.fields(value) if f.name != "location"))
    if isinstance(value, (list, tuple)):
        return tuple(_dump(item) for item in value)
    return value


def _parse_expr(parser_class, tokens, mode):
    """The expression's AST, or how the parse failed."""
    parser = parser_class(tokens, "oracle.c", mode=mode)
    try:
        tree = parser.parse_expr()
        if parser.tok.kind is not TokenKind.EOF:
            return ("trailing", parser.pos)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.location)
    return _dump(tree)


def assert_same_ast(text):
    tokens = Lexer(SourceFile("oracle.c", text)).tokenize()
    for mode in ("strict", "tolerant"):
        assert (_parse_expr(Parser, tokens, mode)
                == _parse_expr(ReferenceParser, tokens, mode)), (mode, text)


_ATOMS = st.sampled_from(
    ["a", "b", "x1", "0", "7", "0x1f", "'c'", "2.5", "f(a, b)", "p->q",
     "s.t", "v[i]", "sizeof(int)", "(unsigned) c"])
_BINARY_OPS = st.sampled_from(sorted(_BINOP_PRECEDENCE))
_LVALUES = st.sampled_from(["a", "*p", "v[1]", "s.t"])


def _expressions(inner):
    return st.one_of(
        st.tuples(inner, _BINARY_OPS, inner).map(" ".join),
        st.tuples(inner, inner, inner).map("{0[0]} ? {0[1]} : {0[2]}".format),
        st.tuples(_LVALUES, st.sampled_from(sorted(_ASSIGN_OPS)), inner)
        .map(" ".join),
        st.tuples(st.sampled_from(["-", "!", "~", "*", "&"]), inner).map("".join),
        inner.map("({})".format),
    )


class TestPrecedenceClimbingMatchesReference:
    @given(st.recursive(_ATOMS, _expressions, max_leaves=24))
    @settings(max_examples=300, deadline=None)
    def test_generated_expressions(self, text):
        assert_same_ast(text)

    @given(st.lists(st.one_of(_ATOMS, _BINARY_OPS, st.sampled_from(
        ["?", ":", "=", "+=", "(", ")", ","])), min_size=1, max_size=30)
        .map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_operator_soup(self, text):
        # Mostly malformed: both parsers must fail identically too.
        assert_same_ast(text)

    def test_generated_protocol_units(self):
        from repro.project import _flash_prelude
        _, typedefs = _flash_prelude()
        for filename, text in generate_protocol("bitvector").files.items():
            tokens = Lexer(SourceFile(filename, text)).tokenize()
            trees = [
                _dump(parser_class(tokens, filename, typedefs=set(typedefs))
                      .parse_translation_unit())
                for parser_class in (Parser, ReferenceParser)
            ]
            assert trees[0] == trees[1], filename
