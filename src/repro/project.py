"""A *program under analysis*: parsed protocol sources plus the
protocol-writer-supplied tables the checkers consult.

The paper's checkers are parameterized by small amounts of system
knowledge: which routines are hardware/software handlers, each handler's
per-lane send allowance, which routines free or expect data buffers,
which return 0/1 depending on whether they freed (§6), and which
subroutines write back directory entries on the caller's behalf (§9).
:class:`ProtocolInfo` carries those tables; :class:`Program` bundles them
with the parsed and type-annotated translation units and caches CFGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .flash.headers import FLASH_INCLUDES, FLASH_INCLUDES_NAME
from .flash.machine import LANE_COUNT
from .lang.source import read_sources  # noqa: F401 (re-exported)
from .mc.cache import seed_fingerprints

if TYPE_CHECKING:
    from .cfg.callgraph import CallGraph
    from .cfg.graph import Cfg
    from .lang import ast


@dataclass(frozen=True)
class HandlerInfo:
    """One entry of the protocol's handler table."""

    name: str
    kind: str  # "hw" (hardware handler), "sw" (software handler), "proc"
    lane_allowance: tuple = (1,) * LANE_COUNT
    nostack: bool = False

    def __post_init__(self):
        if self.kind not in ("hw", "sw", "proc"):
            raise ValueError(f"bad handler kind {self.kind!r}")
        if len(self.lane_allowance) != LANE_COUNT:
            raise ValueError("lane_allowance must cover all lanes")


@dataclass
class ProtocolInfo:
    """Protocol-writer-supplied tables (the checkers' configuration)."""

    name: str = "protocol"
    handlers: dict[str, HandlerInfo] = field(default_factory=dict)
    #: Routines that free the handler's current buffer when called (§6).
    free_routines: set[str] = field(default_factory=set)
    #: Routines that expect a live buffer (uses, for the §6 checker).
    buffer_use_routines: set[str] = field(default_factory=set)
    #: Routines returning nonzero iff they freed the buffer (§6's 12-line
    #: refinement that removed over twenty useless annotations).
    frees_if_true: set[str] = field(default_factory=set)
    #: Subroutines that write the directory entry back for their caller.
    dir_writeback_routines: set[str] = field(default_factory=set)
    #: Protocol message listing: handler name -> declared message-length
    #: constant (``LEN_NODATA``/``LEN_WORD``/``LEN_CACHELINE``) — the
    #: table the consistency pack cross-checks against the code.
    messages: dict[str, str] = field(default_factory=dict)
    #: Simulator dispatch-table registrations: opcode -> handler name.
    dispatch: dict[int, str] = field(default_factory=dict)

    def handler(self, name: str) -> Optional[HandlerInfo]:
        return self.handlers.get(name)

    def kind_of(self, name: str) -> str:
        info = self.handlers.get(name)
        return info.kind if info is not None else "proc"

    def is_handler(self, name: str) -> bool:
        return self.kind_of(name) in ("hw", "sw")

    def hardware_handlers(self) -> list[str]:
        return [h.name for h in self.handlers.values() if h.kind == "hw"]

    def software_handlers(self) -> list[str]:
        return [h.name for h in self.handlers.values() if h.kind == "sw"]


_HEADER_CACHE: dict[str, tuple] = {}


def _flash_prelude() -> tuple:
    """Parse flash-includes.h once; returns (unit, typedef names)."""
    cached = _HEADER_CACHE.get(FLASH_INCLUDES_NAME)
    if cached is None:
        from .lang.parser import Lexer, Parser
        from .lang.source import SourceFile
        tokens = Lexer(SourceFile(FLASH_INCLUDES_NAME, FLASH_INCLUDES)).tokenize()
        parser = Parser(tokens, FLASH_INCLUDES_NAME)
        unit = parser.parse_translation_unit()
        cached = (unit, frozenset(parser.typedefs))
        _HEADER_CACHE[FLASH_INCLUDES_NAME] = cached
    return cached


class Program:
    """Parsed, annotated protocol sources plus cached CFGs.

    The FLASH header (:data:`repro.flash.headers.FLASH_INCLUDES`) is
    parsed separately and fed to sema as a prelude, so every diagnostic
    keeps the protocol file's own line numbers.  The frontend and the
    CFG layer are imported when a program is built, not with this
    module, which a run whose every item is a cache hit imports too.
    """

    def __init__(self, files: dict[str, str], info: Optional[ProtocolInfo] = None,
                 include_flash_header: bool = True, unit_memo: bool = False):
        from .lang.memo import parse_annotated
        from .lang.parser import parse
        from .lang.sema import annotate

        self.info = info if info is not None else ProtocolInfo()
        self.sources: dict[str, str] = dict(files)
        self.units: dict[str, ast.TranslationUnit] = {}
        self._cfgs: dict[str, Cfg] = {}
        self._calls: dict[str, tuple] = {}
        self._callgraph: Optional[CallGraph] = None
        self._unit_memo = unit_memo
        prelude = None
        typedefs: set[str] = set()
        if include_flash_header:
            prelude, header_typedefs = _flash_prelude()
            typedefs = set(header_typedefs)
        self.sema: dict[str, "object"] = {}
        for filename, text in files.items():
            if unit_memo:
                # Content-hash memo: many Programs in one process (one
                # per (checker, unit) work item) share a parse.  Callers
                # must treat memoized ASTs as read-only.
                unit, sema = parse_annotated(
                    filename, text, typedefs=typedefs, prelude=prelude,
                    prelude_key=FLASH_INCLUDES_NAME if prelude is not None else "",
                )
            else:
                unit = parse(text, filename, typedefs=set(typedefs))
                sema = annotate(unit, prelude=prelude)
            self.sema[filename] = sema
            self.units[filename] = unit
            # Stash source-derived function fingerprints so the summary
            # engine's store keys never need a per-function AST walk.
            seed_fingerprints(
                unit, filename, text,
                context=FLASH_INCLUDES if include_flash_header else "")

    # -- access -------------------------------------------------------------

    def functions(self) -> list[ast.FunctionDef]:
        result: list[ast.FunctionDef] = []
        for unit in self.units.values():
            result.extend(unit.functions())
        return result

    def function(self, name: str) -> ast.FunctionDef:
        for unit in self.units.values():
            for func in unit.functions():
                if func.name == name:
                    return func
        raise KeyError(name)

    def cfg(self, function: ast.FunctionDef) -> Cfg:
        cached = self._cfgs.get(function.name)
        if cached is not None and cached.function is function:
            return cached
        from .cfg.builder import build_cfg
        if self._unit_memo:
            # Memoized units share function ASTs across Programs (one
            # per (checker, unit) work item); pinning the CFG on the
            # node builds it once per process and can never go stale —
            # an edited file re-parses into fresh nodes.
            cfg = getattr(function, "_memo_cfg", None)
            if cfg is None:
                cfg = build_cfg(function)
                function._memo_cfg = cfg
        else:
            cfg = build_cfg(function)
        self._cfgs[function.name] = cfg
        return cfg

    def cfgs(self) -> list[Cfg]:
        return [self.cfg(f) for f in self.functions()]

    def calls(self, function: ast.FunctionDef) -> tuple:
        """Every ``Call`` node of ``function``, memoized.

        Checkers count their applied sites by scanning call sites; with
        six checkers per program that used to mean six full AST walks.
        This shared index reads the engine's per-event node tuples
        (every statement node appears in some CFG block event), so after
        the first engine pass over a function no AST walk remains.
        """
        cached = self._calls.get(function.name)
        if cached is not None and cached[0] is function:
            return cached[1]
        from .lang import ast
        from .mc.summary import event_index
        index = event_index(self.cfg(function))
        calls = tuple(node for entry in index.values()
                      for node in entry[0] if isinstance(node, ast.Call))
        self._calls[function.name] = (function, calls)
        return calls

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            from .cfg.callgraph import CallGraph
            self._callgraph = CallGraph.from_cfgs(self.cfgs())
        return self._callgraph

    def loc(self) -> int:
        """Total non-blank source lines across protocol files."""
        total = 0
        for text in self.sources.values():
            total += sum(1 for line in text.splitlines() if line.strip())
        return total


def program_from_source(source: str, info: Optional[ProtocolInfo] = None,
                        filename: str = "protocol.c") -> Program:
    """Convenience for tests and examples: one in-memory file."""
    return Program({filename: source}, info=info)
