"""repro — a reproduction of "Using Meta-level Compilation to Check FLASH
Protocol Code" (Chou, Chelf, Engler, Heinrich; ASPLOS 2000).

Layers (see DESIGN.md for the full inventory):

- :mod:`repro.lang` — C-subset frontend (lexer, parser, types, sema);
- :mod:`repro.cfg` — control-flow graphs, path statistics, call graphs;
- :mod:`repro.metal` — the metal checker language (patterns + state
  machines + a parser that runs the paper's Figures 2 and 3 verbatim);
- :mod:`repro.mc` — the path-sensitive analysis engine (the xg++ analog);
- :mod:`repro.checkers` — the paper's nine checkers (§4-§9);
- :mod:`repro.flash` — the system under test: vocabulary, a deterministic
  protocol generator matching the paper's tables, and a FlashLite-style
  simulator;
- :mod:`repro.bench` — regenerates Tables 1-7 paper-vs-measured.

Quickstart::

    from repro import parse_metal, check_source

    sm = parse_metal(open("checker.metal").read())
    reports = check_source(sm, open("protocol.c").read())
"""

import importlib

__version__ = "1.0.0"


def _lazy(package: str, exports: dict):
    """A PEP 562 module ``__getattr__`` for ``package``: each name of
    ``exports`` (submodule -> names) is imported from its submodule on
    first access, so importing the package imports none of them and a
    command loads only the modules it runs."""
    where = {name: f"{package}.{module}"
             for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        return getattr(importlib.import_module(module), name)

    return __getattr__


_EXPORTS = {
    "lang.sema": ("annotate",),
    "lang.parser": ("parse",),
    "metal.parser": ("parse_metal",),
    "metal.runtime": ("MatchContext", "Report", "ReportSink"),
    "metal.sm": ("StateMachine",),
    "mc.engine": ("check_function", "check_unit"),
    "mc.report": ("format_reports",),
    "project": ("HandlerInfo", "Program", "ProtocolInfo",
                "program_from_source"),
}
__getattr__ = _lazy(__name__, _EXPORTS)


def check_source(sm, source: str, filename: str = "<input>"):
    """Run a state machine over C source text; returns the reports."""
    from .lang.parser import parse
    from .lang.sema import annotate
    from .mc.engine import check_unit

    unit = parse(source, filename)
    annotate(unit)
    return check_unit(sm, unit).reports


__all__ = ["check_source", "__version__",
           *(name for names in _EXPORTS.values() for name in names)]
