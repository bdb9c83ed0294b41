"""One FLASH node: MAGIC state + handler dispatch.

Binds the FLASH macro vocabulary to this node's buffer pool, directory,
and output queues, then executes protocol handlers through the AST
interpreter.  All the failure modes the paper's checkers target are
observable dynamically:

- §4 races: reads before ``WAIT_FOR_DB_FULL`` return garbage and bump
  ``pool.unsynchronized_reads``;
- §5 length bugs: a send whose has-data flag disagrees with the header
  length bumps ``msglen_mismatches`` (corrupt transfer size);
- §6 refcount bugs: double frees raise / count, leaks shrink the pool
  until an arriving message finds no buffer (deadlock);
- §7 lane overruns: sends beyond the output queue capacity deadlock;
- §9 send-wait and directory bugs: handlers that never wait bump
  ``pending_wait_violations``; dirty entries never written back bump
  ``directory.stale_writebacks``.
"""

from __future__ import annotations

from typing import Optional

from ...errors import InjectedFault, ProtocolDeadlock
from ...lang import ast
from .. import machine as vocab
from .buffers import BufferPool, DataBuffer
from .compiler import CompiledProgram
from .directory import Directory
from .interp import GlobalsView, Interpreter
from .network import Message, OutputQueues

#: Constant environment shared by all nodes.
CONSTANTS = {
    "LEN_NODATA": vocab.LEN_NODATA,
    "LEN_WORD": vocab.LEN_WORD,
    "LEN_CACHELINE": vocab.LEN_CACHELINE,
    "F_NODATA": vocab.F_NODATA,
    "F_DATA": vocab.F_DATA,
    "NI_REQUEST": 0,
    "NI_REPLY": 1,
    "LANE_PI": vocab.LANE_PI,
    "LANE_IO": vocab.LANE_IO,
    "LANE_NI_REQUEST": vocab.LANE_NI_REQUEST,
    "LANE_NI_REPLY": vocab.LANE_NI_REPLY,
    "MSG_GET": 1, "MSG_PUT": 2, "MSG_GETX": 3, "MSG_PUTX": 4,
    "MSG_INVAL": 5, "MSG_ACK": 6, "MSG_NAK": 7, "MSG_UNC_READ": 8,
    "MSG_UNC_REPLY": 9, "MSG_WB": 10,
}


class _NodeGlobals(GlobalsView):
    """Handler globals with a dirty bit on the directory entry."""

    def __init__(self, node: "Node"):
        super().__init__()
        self.node = node

    def write(self, path: str, value: int) -> None:
        if path == "dirEntry" and self.node.dir_loaded_addr is not None:
            # The store that lands the DIR_LOAD result is the load
            # itself, not a modification.
            if self.node._expect_load_store:
                self.node._expect_load_store = False
            else:
                self.node.dir_dirty = True
        super().write(path, value)


class Node:
    """One FLASH node (processor + MAGIC + memory slice)."""

    def __init__(self, node_id: int, functions: dict[str, ast.FunctionDef],
                 n_buffers: int = 16, lane_capacity: int = 8,
                 strict: bool = False, injector=None,
                 program: Optional[CompiledProgram] = None):
        self.node_id = node_id
        self.injector = injector
        self.pool = BufferPool(n_buffers, injector=injector)
        self.pool.strict = strict
        self.directory = Directory()
        self.queues = OutputQueues(node_id, capacity=lane_capacity,
                                   injector=injector)
        self.globals = _NodeGlobals(self)
        self.strict = strict

        self.current_buffer: Optional[DataBuffer] = None
        self.pending_wait: Optional[str] = None
        self.dir_loaded_addr: Optional[int] = None
        self.dir_dirty = False
        self._expect_load_store = False
        self._drained: list[Message] = []

        self.handlers_run = 0
        self.msglen_mismatches = 0
        self.pending_wait_violations = 0
        self.sends = 0

        self.interp = Interpreter(
            functions,
            builtins=self._builtins(),
            constants=CONSTANTS,
            handler_globals=self.globals,
            tick_hook=injector.tick if injector is not None else None,
            program=program,
        )

    # -- builtin bindings -----------------------------------------------------

    def _builtins(self) -> dict:
        noop = lambda *a: 0
        return {
            "HANDLER_DEFS": noop, "HANDLER_PROLOGUE": noop,
            "SWHANDLER_PROLOGUE": noop, "SUBROUTINE_PROLOGUE": noop,
            "SET_STACKPTR": noop, "DEBUG_PRINT": noop, "SPIN": noop,
            "NOSTACK": noop,
            "FATAL_ERROR": self._fatal,
            "has_buffer": noop, "no_free_needed": noop,
            "DB_ALLOC": self._db_alloc,
            "DB_FREE": self._db_free,
            "DB_IS_ERROR": lambda v: int(v == 0),
            "DB_INC_REFCOUNT": self._db_inc,
            "WAIT_FOR_DB_FULL": self._wait_db_full,
            "MISCBUS_READ_DB": self._read_db,
            "MISCBUS_READ": self._read_db,
            "PI_SEND": self._make_send("PI_SEND"),
            "IO_SEND": self._make_send("IO_SEND"),
            "NI_SEND": self._make_send("NI_SEND"),
            "WAIT_FOR_PI_REPLY": self._make_wait("PI"),
            "WAIT_FOR_IO_REPLY": self._make_wait("IO"),
            "WAIT_FOR_NI_REPLY": self._make_wait("NI"),
            "PI_REPLY_READY": self._make_ready("PI"),
            "IO_REPLY_READY": self._make_ready("IO"),
            "NI_REPLY_READY": self._make_ready("NI"),
            "WAIT_FOR_SPACE": self._wait_for_space,
            "DIR_LOAD": self._dir_load,
            "DIR_WRITEBACK": self._dir_writeback,
        }

    def _fatal(self, *args) -> int:
        raise ProtocolDeadlock(f"node {self.node_id}: FATAL_ERROR() reached")

    def _db_alloc(self) -> int:
        buf = self.pool.allocate()
        if buf is None:
            # The hardware hands back a null buffer pointer; handlers
            # that skip the DB_IS_ERROR check then operate through it —
            # the §9 alloc-fail bug class made observable (reads count
            # as wild derefs, frees as double frees).
            self.current_buffer = None
            return 0
        # Overwriting the current buffer pointer without freeing leaks the
        # old buffer (paper §6, failure mode 1).
        self.current_buffer = buf
        buf.filled = True
        return buf.index + 1

    def _db_free(self, *args) -> int:
        self.pool.free(self.current_buffer)
        return 0

    def _db_inc(self, *_args) -> int:
        if self.current_buffer is not None:
            self.pool.inc_refcount(self.current_buffer)
        return 0

    def _wait_db_full(self, _addr=0) -> int:
        if self.current_buffer is not None:
            self.pool.complete_fill(self.current_buffer)
        return 0

    def _read_db(self, _addr=0, offset=0) -> int:
        return self.pool.read(self.current_buffer, offset)

    def _make_send(self, macro: str):
        def send(*args) -> int:
            flag_index = vocab.SEND_FLAG_ARG[macro]
            wait_index = vocab.SEND_WAIT_ARG[macro]
            has_data = bool(args[flag_index]) if flag_index < len(args) else False
            wait = bool(args[wait_index]) if wait_index < len(args) else False
            if macro == "NI_SEND":
                lane = (vocab.LANE_NI_REPLY if args and args[0] == 1
                        else vocab.LANE_NI_REQUEST)
                iface = "NI"
            elif macro == "IO_SEND":
                lane, iface = vocab.LANE_IO, "IO"
            else:
                lane, iface = vocab.LANE_PI, "PI"
            length = self.globals.read("header.nh.len")
            if has_data != (length != vocab.LEN_NODATA):
                # §5: the interface would transfer the wrong amount of data.
                self.msglen_mismatches += 1
            message = Message(
                opcode=self.globals.read("header.nh.op"),
                addr=self.globals.read("header.nh.addr"),
                src=self.node_id,
                dest=self.globals.read("header.nh.dest"),
                lane=lane,
                has_data=has_data,
                length=length,
                payload=[1, 2, 3, 4] if has_data else [],
            )
            self.queues.send(message)
            self.sends += 1
            if wait:
                if self.pending_wait is not None:
                    self.pending_wait_violations += 1
                self.pending_wait = iface
            return 0
        return send

    def _make_wait(self, iface: str):
        def wait() -> int:
            if self.pending_wait == iface:
                self.pending_wait = None
            elif self.pending_wait is not None:
                # Waiting on the wrong interface: the expected reply is
                # never consumed (dynamically this hangs; we count it).
                self.pending_wait_violations += 1
                self.pending_wait = None
            return 0
        return wait

    def _make_ready(self, iface: str):
        def ready() -> int:
            # The raw status register: polling it really does observe the
            # reply (which is why §9's spin idiom is a false positive).
            if self.pending_wait == iface:
                self.pending_wait = None
            return 1
        return ready

    def _wait_for_space(self, lane: int = 0) -> int:
        # Waiting lets the network drain this lane.
        drained = list(self.queues.queues[lane])
        self.queues.queues[lane].clear()
        self._drained.extend(drained)
        return 0

    def _dir_load(self, addr: int = 0) -> int:
        if self.dir_dirty and self.dir_loaded_addr is not None:
            self.directory.note_modified_without_writeback(self.dir_loaded_addr)
        self.dir_loaded_addr = addr
        self.dir_dirty = False
        self._expect_load_store = True
        return self.directory.load(addr)

    def _dir_writeback(self, addr: int = 0, value: int = 0) -> int:
        self.directory.writeback(addr, value)
        self.dir_dirty = False
        self.dir_loaded_addr = None
        return 0

    # -- message handling ---------------------------------------------------------

    def run_handler(self, handler: str, message: Message) -> list[Message]:
        """Run one handler for an incoming message; returns sent messages."""
        if self.injector is not None:
            self.injector.begin_handler(self.node_id, handler)
        injected_before = self.pool.injected_alloc_failures
        buf = self.pool.hw_allocate(fill_data=message.payload or [0])
        if buf is None:
            if self.pool.injected_alloc_failures > injected_before:
                # A fault-plan rule, not a drained pool: the incoming
                # message is dropped (NAKed by hardware), the run goes on.
                raise InjectedFault(
                    f"node {self.node_id}: injected allocation failure for "
                    f"incoming message (handler {handler})",
                    kind="dropped_message",
                )
            raise ProtocolDeadlock(
                f"node {self.node_id}: no data buffer for incoming message "
                f"(pool drained by leaks after {self.handlers_run} handlers)"
            )
        self.current_buffer = buf
        self.pending_wait = None
        self.dir_loaded_addr = None
        self.dir_dirty = False
        self._expect_load_store = False
        self._drained: list[Message] = []
        self.globals.write("header.nh.op", message.opcode)
        self.globals.write("header.nh.addr", message.addr)
        self.globals.write("header.nh.len", message.length)
        self.globals.write("header.nh.src", message.src)
        self.globals.write("header.nh.dest", (self.node_id + 1) % 64)

        self.interp.reset_steps()
        self.interp.call(handler)
        self.handlers_run += 1

        if self.pending_wait is not None:
            self.pending_wait_violations += 1
            if self.strict:
                raise ProtocolDeadlock(
                    f"node {self.node_id}: handler {handler} set the wait "
                    f"bit for {self.pending_wait} and never waited"
                )
            self.pending_wait = None
        if self.dir_dirty and self.dir_loaded_addr is not None:
            self.directory.note_modified_without_writeback(self.dir_loaded_addr)
        outgoing = self._drained + self.queues.drain()
        self.current_buffer = None
        if self.injector is not None:
            self.injector.end_handler()
        return outgoing

    def abort_handler(self) -> None:
        """Reclaim per-handler state after a handler died mid-run.

        Called by the machine loop when a send overran its lane or a
        fault plan crashed the handler: the hardware reclaims the data
        buffer, and the aborted handler's queued output is discarded.
        """
        if self.current_buffer is not None:
            self.current_buffer.refcount = 0
        self.current_buffer = None
        self.pending_wait = None
        self.dir_loaded_addr = None
        self.dir_dirty = False
        self._expect_load_store = False
        self._drained = []
        for queue in self.queues.queues:
            queue.clear()
        if self.injector is not None:
            self.injector.end_handler()
