"""Cycle-level simulator for elaborated :class:`RTLModule` designs.

Evaluation model (mirrors a Verilated model's ``eval()`` loop):

1. ``poke`` inputs, then ``settle()`` runs combinational processes —
   in levelized order when the word-level dependency graph is acyclic
   (one pass reaches the fixpoint), otherwise iteratively to a fixpoint
   (bit-level feedback such as ripple carries; genuine zero-delay loops
   fail to converge and raise).
2. ``tick()`` performs one full clock cycle: all sync processes sample the
   settled state, non-blocking assignments are staged and applied
   atomically, then combinational logic settles again.

The simulator also provides optional VCD tracing with runtime
enable/disable.  Its checkpoint (the paper notes Verilator checkpointing
as an enabled feature) is ``cycle``, ``values`` and ``mems``, declared
by the shared library that owns it
(:class:`~repro.bridge.shared_library.RTLSharedLibrary`).

Execution backends
------------------
Two backends share these semantics bit-for-bit:

* ``"codegen"`` (default) — processes are fused into generated
  straight-line functions (:mod:`repro.rtl.codegen`), and
  :meth:`RTLSimulator.run_cycles` advances whole batches of cycles in
  one compiled loop.  Requires a levelizable (acyclic word-level) comb
  graph; designs needing the iterative fixpoint fall back automatically.
* ``"interp"`` — the original per-process interpreter; always available
  and the reference for the differential test suite.
"""

from __future__ import annotations

from typing import Callable, Optional

from .codegen import (
    CodegenProgram, build_exchange, build_program, build_replay,
)
from .kernel import CombLoopError, Edge, RTLModule, Signal
from .vcd import VCDWriter

BACKENDS = ("codegen", "interp")


class RTLSimulator:
    """Drives one elaborated RTL design."""

    #: iteration cap for the fixpoint fallback (bit-level feedback
    #: through word-granularity dependencies, e.g. ripple carries)
    MAX_SETTLE_PASSES = 256

    def __init__(
        self,
        module: RTLModule,
        trace: Optional[VCDWriter] = None,
        clock: str = "clk",
        backend: str = "codegen",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.module = module
        self.values: list[int] = module.fresh_values()
        self.mems: list[list[int]] = module.fresh_mems()
        # Prefer a levelized single-pass order; designs whose *word-level*
        # dependency graph is cyclic (e.g. a ripple-carry vector written
        # bit-by-bit) fall back to iterative settling — genuine
        # combinational loops then fail to converge and raise at init.
        try:
            self._levelized = module.levelize()
            self._iterative = False
        except CombLoopError:
            self._levelized = list(module.comb_procs)
            self._iterative = True
        #: backend the caller asked for
        self.requested_backend = backend
        self._codegen: Optional[CodegenProgram] = None
        if backend == "codegen" and not self._iterative:
            self._codegen = build_program(module, self._levelized)
        #: backend actually in effect ("codegen" falls back to "interp"
        #: when the design needs iterative fixpoint settling)
        self.backend = "codegen" if self._codegen is not None else "interp"
        self.cycle = 0
        self.trace = trace
        self._clock_sig: Optional[Signal] = module.signals.get(clock)
        # Pre-split sync procs by edge for the hot loop.
        self._pos_procs = [p for p in module.sync_procs if p.edge == Edge.POS]
        self._neg_procs = [p for p in module.sync_procs if p.edge == Edge.NEG]
        self._sig_cache = module.signals
        # Statement-coverage counters increment on every comb pass, so
        # the iterative-settle fixpoint must be judged on the real
        # signals only (counters never converge by design).
        self._conv_idx: Optional[list[int]] = (
            [s.index for s in module.visible_signals()]
            if module.coverage_points else None
        )
        if self._iterative:
            # verify convergence up front: a genuine zero-delay loop
            # oscillates and is reported here rather than mid-simulation
            self.settle()

    # -- I/O -----------------------------------------------------------------

    def _sig(self, name: str) -> Signal:
        try:
            return self._sig_cache[name]
        except KeyError:
            raise KeyError(
                f"no signal {name!r} in module {self.module.name!r}"
            ) from None

    def poke(self, name: str, value: int) -> None:
        """Drive a signal (typically a module input)."""
        sig = self._sig(name)
        self.values[sig.index] = value & sig.mask

    def peek(self, name: str) -> int:
        return self.values[self._sig(name).index]

    def peek_mem(self, name: str, addr: int) -> int:
        mem = self.module.memories[name]
        return self.mems[mem.index][addr]

    def poke_mem(self, name: str, addr: int, value: int) -> None:
        mem = self.module.memories[name]
        self.mems[mem.index][addr] = value & mem.mask

    # -- evaluation -------------------------------------------------------------

    def settle(self) -> None:
        """Run combinational logic to its fixpoint.

        Levelized designs settle in one pass; iterative-mode designs
        repeat passes until values stop changing (raising
        :class:`CombLoopError` if they never do).
        """
        v, m = self.values, self.mems
        if self._codegen is not None:
            self._codegen.settle(v, m)
            return
        if not self._iterative:
            for proc in self._levelized:
                proc.fn(v, m)
            return
        conv = self._conv_idx
        for _ in range(self.MAX_SETTLE_PASSES):
            before = list(v) if conv is None else [v[i] for i in conv]
            for proc in self._levelized:
                proc.fn(v, m)
            after = v if conv is None else [v[i] for i in conv]
            if after == before:
                return
        raise CombLoopError(
            f"combinational logic in {self.module.name!r} did not "
            f"converge within {self.MAX_SETTLE_PASSES} passes "
            "(genuine zero-delay loop?)"
        )

    def reset(self, reset_signal: str = "rst", cycles: int = 2) -> None:
        """Assert *reset_signal* for *cycles* clock cycles, then deassert.

        This is the ``reset`` entry point the paper's shared-library
        wrapper must expose.  Designs without a reset input are simply
        re-initialised.
        """
        if reset_signal in self.module.signals:
            self.poke(reset_signal, 1)
            self.settle()
            for _ in range(cycles):
                self.tick()
            self.poke(reset_signal, 0)
            self.settle()
        else:
            self.values = self.module.fresh_values()
            self.mems = self.module.fresh_mems()
            self.settle()

    def run_cycles(self, n: int) -> None:
        """Advance *n* full clock cycles (batched when possible).

        Semantically identical to calling :meth:`tick` *n* times — with
        the codegen backend and tracing off the whole batch runs inside
        one generated loop, so ``run_cycles(a); run_cycles(b)`` equals
        ``run_cycles(a + b)`` exactly, including mid-batch checkpoints.
        """
        if n < 0:
            raise ValueError(f"cannot run a negative cycle count ({n})")
        self.tick(n)

    def tick(self, cycles: int = 1) -> None:
        """Advance one (or more) full clock cycles."""
        if cycles <= 0:
            return
        v, m = self.values, self.mems
        tracing = self.trace is not None and self.trace.enabled
        if self._codegen is not None and not tracing:
            # fused batch: all cycles run inside one generated loop
            self._codegen.tick_batch(v, m, cycles)
            self.cycle += cycles
            return
        cg_settle = self._codegen.settle if self._codegen is not None else None
        pos, neg = self._pos_procs, self._neg_procs
        clk = self._clock_sig
        for _ in range(cycles):
            # Rising edge: sample settled state, stage NBAs.
            # nba holds (signal_index, value) full-register writes or
            # (signal_index, bits, mask) partial writes (bit/part-select
            # targets); nbm holds (mem_index, addr, value).
            nba: list = []
            nbm: list = []
            for proc in pos:
                proc.fn(v, m, nba, nbm)
            self._apply_nba(v, nba)
            for mi, addr, val in nbm:
                m[mi][addr] = val
            if cg_settle is not None:
                cg_settle(v, m)
            elif self._iterative:
                self.settle()
            else:
                for proc in self._levelized:
                    proc.fn(v, m)
            if neg:
                nba = []
                nbm = []
                for proc in neg:
                    proc.fn(v, m, nba, nbm)
                self._apply_nba(v, nba)
                for mi, addr, val in nbm:
                    m[mi][addr] = val
                if cg_settle is not None:
                    cg_settle(v, m)
                elif self._iterative:
                    self.settle()
                else:
                    for proc in self._levelized:
                        proc.fn(v, m)
            self.cycle += 1
            if self.trace is not None and self.trace.enabled:
                # Show the clock toggling so waveforms look natural.
                if clk is not None:
                    v[clk.index] = 1
                self.trace.sample(self.cycle * 2 - 1, v)
                if clk is not None:
                    v[clk.index] = 0
                self.trace.sample(self.cycle * 2, v)

    def build_exchange(
        self, in_struct, in_slots, out_struct, out_slots, size_error
    ) -> Optional[Callable]:
        """Generated struct exchange over this design's compiled code
        (arguments and result as :func:`repro.rtl.codegen.build_exchange`),
        or None on the interpreter backend.

        The function takes ``values``/``mems`` per call because reset
        and restore rebind them, and leaves advancing :attr:`cycle` to
        the caller; VCD sampling happens only in :meth:`tick`.
        """
        if self._codegen is None:
            return None
        return build_exchange(
            self._codegen, in_struct, in_slots, out_struct, out_slots,
            size_error,
        )

    def build_replay(
        self, in_struct, in_slots, out_struct, out_slots, size_error, vary
    ) -> Optional[Callable]:
        """Generated replay over this design's compiled code (as
        :func:`repro.rtl.codegen.build_replay`), or None on the
        interpreter backend; :attr:`cycle` is the caller's, as in
        :meth:`build_exchange`."""
        if self._codegen is None:
            return None
        return build_replay(
            self._codegen, in_struct, in_slots, out_struct, out_slots,
            size_error, vary,
        )

    @staticmethod
    def _apply_nba(v: list[int], nba: list) -> None:
        """Apply staged non-blocking writes in program order.

        Partial (masked) entries merge with whatever earlier entries of
        the same edge produced, so multiple bit-select NBAs to one
        register compose (e.g. a VHDL for-loop shift register).
        """
        for entry in nba:
            if len(entry) == 2:
                idx, val = entry
                v[idx] = val
            else:
                idx, bits, mask = entry
                v[idx] = (v[idx] & ~mask) | (bits & mask)
