"""FlashLite-lite: a dynamic simulator for generated protocol code.

The paper's only practical alternative to static checking was "testing
and simulation" in FlashLite; this package provides the analogous
substrate so benchmarks can show the seeded static-checker bugs
*manifesting* dynamically (double frees, pool-draining leaks, lane
overrun deadlocks, unsynchronized reads, length mismatches).  A
:class:`repro.faults.FaultPlan` passed to :class:`FlashMachine` forces
the failure paths — allocation failure, lane backpressure, message
delay/duplication — that random workloads almost never reach.
"""

from .buffers import BufferPool, DataBuffer
from .compiler import CompiledProgram
from .directory import Directory
from .interp import GlobalsView, Interpreter
from .machine import FlashMachine, SimStats
from .network import Message, OutputQueues
from .node import CONSTANTS, Node
from .workload import WorkloadSpec, generate

__all__ = [
    "BufferPool", "CompiledProgram", "DataBuffer", "Directory",
    "GlobalsView", "Interpreter", "FlashMachine", "SimStats", "Message",
    "OutputQueues", "CONSTANTS", "Node", "WorkloadSpec", "generate",
]
