"""The metal language: patterns, state machines, and the textual parser."""

from .. import _lazy

_EXPORTS = {
    "lint": ("LintFinding", "lint_machine", "lint_source"),
    "parser": ("MetalParser", "parse_metal"),
    "patterns": ("MetaVar", "Pattern", "compile_pattern"),
    "runtime": ("MatchContext", "Report", "ReportSink"),
    "sm": ("ALL", "STOP", "Action", "Rule", "State", "StateMachine",
           "StepResult"),
}
__getattr__ = _lazy(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
