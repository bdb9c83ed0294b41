"""The analysis engine: path-sensitive SM execution and global analysis."""

from .cache import (
    AnalysisMemo,
    CacheStats,
    FunctionSummary,
    FunctionSummaryStore,
    ResultCache,
    checker_fingerprint,
    clear_function_summaries,
    default_cache_dir,
    engine_fingerprint,
    function_fingerprint,
    function_summaries,
    result_from_payload,
    result_to_payload,
    sink_from_payload,
    sink_to_payload,
    work_item_key,
)
from .engine import check_function, check_unit, run_machine
from .summary import CfgSlice, MachineFilter, slice_for
from .feasibility import (
    Contradiction,
    FactsView,
    FunctionFeasibility,
    call_branch_transfer,
    default_enabled,
    set_default_enabled,
)
from .flowcheck import find_unfollowed, find_unguarded, is_call_to, quarantining
from .interproc import bottom_up, walk_paths
from .parallel import (
    CheckRun,
    MetalRun,
    WorkItem,
    check_files,
    merge_parts,
    metal_files,
    resolve_jobs,
)
from .resilience import Budget, Quarantine
from .supervisor import (
    RunJournal,
    RunStats,
    StopFlag,
    SupervisorPolicy,
    default_runs_dir,
    graceful_shutdown,
    new_run_id,
)
from .ranking import base_score, cascade_factor, confidence_of, score_run
from .transform import RedundantWaitEliminator, TransformResult
from .report import (
    Report,
    ReportSink,
    filter_by_confidence,
    format_quarantines,
    format_reports,
    format_run_stats,
    format_sink,
    report_to_json_obj,
    run_to_json,
    summarize_by_severity,
)

__all__ = [
    "check_function", "check_unit", "run_machine",
    "find_unfollowed", "find_unguarded", "is_call_to", "quarantining",
    "bottom_up", "walk_paths",
    "Budget", "Quarantine",
    "AnalysisMemo", "FunctionSummary", "FunctionSummaryStore",
    "CfgSlice", "MachineFilter", "slice_for", "clear_function_summaries",
    "function_fingerprint", "function_summaries",
    "CacheStats", "ResultCache", "checker_fingerprint", "default_cache_dir",
    "engine_fingerprint", "result_from_payload", "result_to_payload",
    "sink_from_payload", "sink_to_payload",
    "work_item_key",
    "CheckRun", "MetalRun", "WorkItem", "check_files", "merge_parts",
    "metal_files", "resolve_jobs",
    "RunJournal", "RunStats", "StopFlag", "SupervisorPolicy",
    "default_runs_dir", "graceful_shutdown", "new_run_id",
    "Contradiction", "FactsView", "FunctionFeasibility",
    "call_branch_transfer", "default_enabled", "set_default_enabled",
    "base_score", "cascade_factor", "confidence_of", "score_run",
    "RedundantWaitEliminator", "TransformResult",
    "Report", "ReportSink", "filter_by_confidence", "format_quarantines",
    "format_reports", "format_run_stats", "format_sink",
    "summarize_by_severity", "report_to_json_obj", "run_to_json",
]
