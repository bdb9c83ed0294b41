"""C-subset compiler frontend: lexer, parser, AST, types, sema, unparser.

This package is the front half of the "xg++" analog described in
DESIGN.md: it turns FLASH-style C source into typed ASTs that the CFG
layer and the metal pattern matcher consume.
"""

from .. import _lazy

_EXPORTS = {
    "lexer": ("Lexer", "Token", "TokenKind", "tokenize"),
    "parser": ("FRONTEND_MODES", "Parser", "default_mode", "parse",
               "parse_expression", "parse_statement", "set_default_mode"),
    "sema": ("SemaInfo", "annotate"),
    "memo": ("clear_memo", "parse_annotated"),
    "source": ("Location", "SourceFile", "Span", "read_source", "read_sources",
               "source_fingerprint"),
    "symtab": ("Scope", "Symbol", "SymbolKind"),
    "unparse": ("unparse_decl", "unparse_expr", "unparse_stmt",
                "unparse_unit"),
}
__getattr__ = _lazy(__name__, _EXPORTS)
__all__ = ["ast", "ctypes",
           *(name for names in _EXPORTS.values() for name in names)]
