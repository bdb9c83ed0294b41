"""Deterministic fault injection for the FlashLite-lite simulator and
the checker fleet.

The paper's checkers target failure paths that testing rarely reaches;
this package forces those paths on demand.  Declare *what* to break in
a :class:`FaultPlan` (pure data, JSON-loadable), and the right injector
makes it happen deterministically: same plan, same seed, same run.
Simulator sites (:data:`SIM_SITES`) perturb the protocol under test via
:class:`FaultInjector`; worker sites (:data:`WORKER_SITES`) perturb the
analysis fleet's own processes via :class:`WorkerFaultInjector`, so the
supervision layer is tested by the same machinery.
"""

from .. import _lazy

_EXPORTS = {
    "injector": ("FaultInjector",),
    "plan": ("SIM_SITES", "SITES", "WORKER_SITES", "FaultEvent", "FaultPlan",
             "FaultRule", "load_fault_plan"),
    "worker": ("CRASH_EXIT_CODE", "WorkerFaultInjector"),
}
__getattr__ = _lazy(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
