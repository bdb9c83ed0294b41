"""Control-flow layer: CFG construction, path statistics, call graphs."""

from .. import _lazy

_EXPORTS = {
    "builder": ("CfgBuilder", "build_cfg"),
    "dominators": ("DominatorTree", "compute_dominators"),
    "callgraph": ("CallGraph", "FlowGraph", "FlowNode", "emit_flowgraph",
                  "load_flowgraph", "strongly_connected", "write_flowgraph"),
    "graph": ("BasicBlock", "Cfg", "Edge"),
    "paths": ("FileStats", "PathStats", "aggregate_stats", "enumerate_paths",
              "path_stats"),
}
__getattr__ = _lazy(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
