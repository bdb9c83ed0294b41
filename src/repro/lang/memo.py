"""Per-process parse/annotate memo keyed by source content hash.

A run of the checker fleet analyses the same translation unit many
times: the serial driver runs every checker over one shared
:class:`repro.project.Program`, but the parallel driver
(:mod:`repro.mc.parallel`) hands each (checker, unit) work item to a
worker that builds its own ``Program`` — without a memo, a process
hosting eight checkers over the same file would parse and annotate it
eight times.  The memo keys on ``(filename, sha256(text), typedefs,
prelude)`` so shared FLASH headers and common-code units are parsed
once per process, and an *edited* file (different content hash) never
reuses a stale AST.

Memoized units are shared, mutable ASTs: callers that rewrite trees
(:mod:`repro.mc.transform`) must parse privately via
:func:`repro.lang.parser.parse` instead.
"""

from __future__ import annotations

from typing import Optional

from ..obs.metrics import current_metrics
from ..obs.trace import current_tracer
from .parser import default_mode, parse
from .sema import SemaInfo, annotate
from .source import source_fingerprint
from . import ast


_MEMO: dict[tuple, tuple] = {}


def parse_annotated(
    filename: str,
    text: str,
    *,
    typedefs: Optional[set[str]] = None,
    prelude: Optional[ast.TranslationUnit] = None,
    prelude_key: str = "",
) -> tuple[ast.TranslationUnit, SemaInfo]:
    """Parse and annotate ``text``, memoized on its content hash.

    ``prelude_key`` must name the prelude fed to sema (e.g. the FLASH
    header's filename) so units parsed with different preludes never
    share an entry; the prelude object itself is not hashed.
    """
    mode = default_mode()
    key = (
        filename,
        source_fingerprint(text),
        frozenset(typedefs) if typedefs else frozenset(),
        prelude_key,
        # Frontend mode changes what a given byte string parses to, so
        # strict and tolerant ASTs never share an entry.
        mode,
    )
    metrics = current_metrics()
    cached = _MEMO.get(key)
    if cached is not None:
        if metrics is not None:
            metrics.inc("parse.memo_hits")
        return cached
    if metrics is not None:
        metrics.inc("parse.units")
    tracer = current_tracer()
    with tracer.span("unit", filename) if tracer.enabled else _noop():
        unit = parse(text, filename,
                     typedefs=set(typedefs) if typedefs else None)
        sema = annotate(unit, prelude=prelude)
    if metrics is not None:
        # Degradation observability: how much of this unit the tolerant
        # frontend had to recover or give up on (all zero in strict
        # mode).  Counted once per distinct parse, at memo-miss time.
        stats = getattr(unit, "frontend_stats", None)
        if stats:
            for name in ("recovered_statements", "opaque_expressions",
                         "quarantined_functions"):
                if stats.get(name):
                    metrics.inc(f"frontend.{name}", stats[name])
    _MEMO[key] = (unit, sema)
    return unit, sema


class _noop:
    """Stand-in context manager when tracing is off."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


def make_room_for(filenames) -> None:
    """Before work on ``filenames``: when one of them has no memoized
    parse, drop every memoized unit not among them, so the parse to come
    replaces the units held rather than adding to them.  Nothing is
    dropped while every one of them is memoized (a forked worker that
    inherited its parent's parses keeps them all)."""
    keep = set(filenames)
    if keep <= {key[0] for key in _MEMO}:
        return
    for key in [key for key in _MEMO if key[0] not in keep]:
        del _MEMO[key]


def clear_memo() -> None:
    """Drop every memoized unit (tests; long-lived embedding processes)."""
    _MEMO.clear()
