"""The analysis engine: path-sensitive SM execution and global analysis."""

from .. import _lazy

_EXPORTS = {
    "cache": ("AnalysisMemo", "CacheStats", "FunctionSummary",
              "FunctionSummaryStore", "ResultCache", "checker_fingerprint",
              "clear_function_summaries", "default_cache_dir",
              "engine_fingerprint", "function_fingerprint",
              "function_summaries", "result_from_payload", "result_to_payload",
              "sink_from_payload", "sink_to_payload", "work_item_key"),
    "engine": ("check_function", "check_unit", "run_machine"),
    "summary": ("CfgSlice", "MachineFilter", "slice_for"),
    "feasibility": ("Contradiction", "FactsView", "FunctionFeasibility",
                    "call_branch_transfer", "default_enabled",
                    "set_default_enabled"),
    "flowcheck": ("find_unfollowed", "find_unguarded", "is_call_to",
                  "quarantining"),
    "interproc": ("bottom_up", "walk_paths"),
    "parallel": ("CheckRun", "MetalRun", "WorkItem", "check_files",
                 "merge_parts", "metal_files", "resolve_jobs"),
    "resilience": ("Budget", "Quarantine"),
    "supervisor": ("RunJournal", "RunStats", "StopFlag", "SupervisorPolicy",
                   "default_runs_dir", "graceful_shutdown", "new_run_id"),
    "ranking": ("base_score", "cascade_factor", "confidence_of", "score_run"),
    "transform": ("RedundantWaitEliminator", "TransformResult"),
    "report": ("Report", "ReportSink", "filter_by_confidence",
               "format_quarantines", "format_reports", "format_run_stats",
               "format_sink", "report_to_json_obj", "run_to_json",
               "summarize_by_severity"),
}
__getattr__ = _lazy(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
