"""Host application driving an NVDLA instance (paper §5.2.2).

Replays the paper's user-level program: load the trace (data image +
command stream) into main memory, play the register writes over CSB,
ring the doorbell, and wait for the completion interrupt.

Two load modes:

* ``timed_load=True`` — the image is copied by a host core executing a
  store-µop stream (8 B stores plus loop overhead), so the load phase
  consumes simulated time and memory bandwidth like the real app.  This
  is what makes short workloads' relative overheads larger (Table 3).
* ``timed_load=False`` — backdoor functional load, used by the DSE
  harness where only the doorbell→IRQ window is measured.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...soc.cpu.uop import alu, store
from ...soc.cpu.core import OoOCore
from ...soc.iomaster import IOMaster
from .rtl_object import NVDLARTLObject
from .trace import RegWrite, Trace, WaitIrq

#: where the serialised command stream lives in memory
TRACE_CMD_BASE = 0x7000_0000
TRACE_CMD_STRIDE = 0x10_0000


class NVDLAHostApp:
    """Drives one accelerator instance through one trace."""

    def __init__(
        self,
        soc,
        rtl: NVDLARTLObject,
        trace: Trace,
        instance: int = 0,
        host_core: Optional[OoOCore] = None,
        iomaster: Optional[IOMaster] = None,
        timed_load: bool = True,
    ) -> None:
        self.soc = soc
        self.rtl = rtl
        self.trace = trace
        self.instance = instance
        self.core = host_core
        self.io = iomaster or soc.iomaster
        self.timed_load = timed_load

        self.loaded = False
        self.done = False
        self.start_tick: Optional[int] = None    # doorbell tick
        self.finish_tick: Optional[int] = None   # completion IRQ tick
        self.load_start_tick: Optional[int] = None

        self._commands = trace.commands()
        self._cmd_index = 0
        self._waiting_irq = False
        self._started_app = False
        self._done_handlers: list[Callable[[], None]] = []
        rtl.on_interrupt(self._on_irq)

    def on_done(self, handler: Callable[[], None]) -> None:
        """Call *handler* when the last command has been played.

        Structural, like :meth:`NVDLARTLObject.on_interrupt`: register
        at build time; checkpoints do not carry it.  The last commands
        may still be queued in the IOMaster when it runs.
        """
        self._done_handlers.append(handler)

    # -- phase 1: trace load --------------------------------------------------

    def start(self) -> None:
        """Begin the application (load phase first).

        Idempotent: a second call — including one made after this app's
        state was restored from a checkpoint — is a no-op, so resumed
        runs can go through the same ``run_to_completion`` entry point.
        """
        if self._started_app:
            return
        self._started_app = True
        self.load_start_tick = self.soc.sim.now
        cmd_bytes = self.trace.serialize()
        cmd_base = TRACE_CMD_BASE + self.instance * TRACE_CMD_STRIDE
        if self.timed_load and self.core is not None:
            # functional content now; timing cost via the store stream
            self._load_functional(cmd_base, cmd_bytes)
            self.core.run_stream(self._loader_stream(cmd_base, len(cmd_bytes)))
            self.core.on_done = self._on_load_done
        else:
            self._load_functional(cmd_base, cmd_bytes)
            # configuration starts immediately
            self._on_load_done()

    def _load_functional(self, cmd_base: int, cmd_bytes: bytes) -> None:
        self.soc.physmem.write(cmd_base, cmd_bytes)
        for addr, data in self.trace.mem_image:
            self.soc.physmem.write(addr, data)

    def _loader_stream(self, cmd_base: int, cmd_len: int):
        """µop stream of the trace-loader: a memcpy of image + commands."""
        regions = [(addr, len(data)) for addr, data in self.trace.mem_image]
        regions.append((cmd_base, cmd_len))
        for base, length in regions:
            addr = base
            end = base + length
            while addr < end:
                yield store(addr)
                yield alu(1)          # pointer bump / loop bookkeeping
                addr += 8

    # -- phase 2: command playback ------------------------------------------------

    def _on_load_done(self) -> None:
        self.loaded = True
        self._advance()

    def _advance(self) -> None:
        while self._cmd_index < len(self._commands):
            cmd = self._commands[self._cmd_index]
            self._cmd_index += 1
            if isinstance(cmd, RegWrite):
                from .core import REG_OP_ENABLE

                if cmd.addr == REG_OP_ENABLE and self.start_tick is None:
                    self.start_tick = self.soc.sim.now
                self.io.write_word(self.rtl.mmio_base + cmd.addr, cmd.value)
            elif isinstance(cmd, WaitIrq):
                self._waiting_irq = True
                return
        self.done = True
        self.finish_tick = self.soc.sim.now
        for handler in self._done_handlers:
            handler()

    def _on_irq(self, tick: int) -> None:
        if self._waiting_irq:
            self._waiting_irq = False
            self._advance()

    # -- checkpointing (registered as a Simulation "extra") -------------------

    def serialize(self, ctx) -> dict:
        return {
            "loaded": self.loaded,
            "done": self.done,
            "start_tick": self.start_tick,
            "finish_tick": self.finish_tick,
            "load_start_tick": self.load_start_tick,
            "cmd_index": self._cmd_index,
            "waiting_irq": self._waiting_irq,
            "started_app": self._started_app,
        }

    def unserialize(self, state: dict, ctx) -> None:
        self.loaded = state["loaded"]
        self.done = state["done"]
        self.start_tick = state["start_tick"]
        self.finish_tick = state["finish_tick"]
        self.load_start_tick = state["load_start_tick"]
        self._cmd_index = state["cmd_index"]
        self._waiting_irq = state["waiting_irq"]
        self._started_app = state["started_app"]

    # -- results ------------------------------------------------------------------

    def progress(self) -> str:
        """Where playback and the engine stand (timeout reports)."""
        rtl, core = self.rtl, self.rtl.core
        return (
            f"{rtl.name}: command {self._cmd_index}/{len(self._commands)}, "
            f"waiting_irq={self._waiting_irq}, busy={core.busy}, "
            f"blocks {core.consumed}/{core.cfg.total_blocks}, "
            f"inflight={rtl.inflight}, "
            f"csb_pending={len(rtl.cpu_req_queue)}"
        )

    def exec_ticks(self) -> int:
        """Doorbell-to-completion time (the DSE metric)."""
        if self.start_tick is None or self.finish_tick is None:
            raise RuntimeError("application has not completed")
        return self.finish_tick - self.start_tick

    def total_ticks(self) -> int:
        """Whole-application time including the trace load."""
        if self.load_start_tick is None or self.finish_tick is None:
            raise RuntimeError("application has not completed")
        return self.finish_tick - self.load_start_tick
