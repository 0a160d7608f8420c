"""RTL simulation kernel: signals, memories, processes, modules.

This is the execution substrate that our HDL frontends compile into — the
role Verilator's generated C++ (or GHDL's machine code) plays in the
paper.  A compiled design is a flat :class:`RTLModule` holding:

* **signals** — two-valued bit vectors stored as Python ints in one flat
  value array (``values[idx]``), masked to their width on every write;
* **memories** — ``reg [w] mem [0:d-1]`` arrays, stored as int lists;
* **comb processes** — functions ``fn(values, mems)`` that settle
  combinational logic (``assign`` / ``always @(*)`` / concurrent VHDL);
* **sync processes** — functions ``fn(values, mems, nba)`` run on a clock
  edge; non-blocking assignments are staged into ``nba`` and applied after
  all sync processes have sampled.

Processes carry static read/write sets so the simulator can levelize
combinational logic once at elaboration time (single-pass settling) and
detect combinational loops up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import ir


def mask_for(width: int) -> int:
    if width <= 0:
        raise ValueError(f"signal width must be positive, got {width}")
    return (1 << width) - 1


@dataclass
class Signal:
    """One named bit-vector; ``index`` addresses the module value array."""

    name: str
    width: int
    index: int
    is_input: bool = False
    is_output: bool = False

    @property
    def mask(self) -> int:
        return mask_for(self.width)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.name}[{self.width}] @{self.index}>"


@dataclass
class Memory:
    """A word-addressed memory array (Verilog ``reg [w-1:0] m [0:d-1]``)."""

    name: str
    width: int
    depth: int
    index: int

    @property
    def mask(self) -> int:
        return mask_for(self.width)


class Edge:
    POS = "pos"
    NEG = "neg"


#: name prefix of hidden instrumentation signals (coverage counters);
#: they live in the value array like any signal but are excluded from
#: waveforms, toggle coverage and user-facing introspection
COVERAGE_PREFIX = "__cov__"


@dataclass(frozen=True)
class CoveragePoint:
    """One statement-coverage point: a hidden counter at ``index``.

    The elaborator puts an :class:`repro.rtl.ir.Cover` statement into
    the process body right before the covered statement, so the
    interpreter and the codegen fast path (which inlines the same
    body) count identically by construction.
    """

    label: str       # e.g. "u0.sync@47"
    file: str
    line: int
    col: int
    index: int       # slot in the module value array


@dataclass(frozen=True)
class FSMInfo:
    """A state register inferred from a sync ``case`` statement."""

    signal: str            # flattened signal name
    index: int             # slot in the module value array
    width: int
    states: tuple[int, ...]  # known state encodings (sorted)
    file: str
    line: int


class _Process:
    """A process elaborated from HDL has a ``body`` (:mod:`repro.rtl.ir`),
    and ``fn``, ``reads`` and ``writes`` follow from it, here and nowhere
    else; a handwritten kernel-level process has none and brings its own."""

    _kind: str
    _params: str

    def __post_init__(self) -> None:
        if self.body is not None:
            self.rebuild(self.body)

    def rebuild(self, body: ir.Suite) -> None:
        """Make *body* the process: compile ``fn``, derive both sets."""
        self.body = body
        self.fn = ir.compile_fn(body, self._params)
        self.reads, self.writes = ir.reads(body), ir.writes(body)

    @property
    def source(self) -> str | None:
        """The body as the Python the interpreter runs: a printed view
        for inspection, which nothing reads back."""
        return None if self.body is None else "\n".join(ir.render(self.body))


@dataclass
class CombProcess(_Process):
    """Combinational logic: runs whenever any read signal may have changed.

    With a ``body`` the codegen backend inlines the process into a fused
    evaluation function instead of calling ``fn``.
    """

    fn: Callable  # fn(values, mems) -> None
    reads: frozenset[int]
    writes: frozenset[int]
    name: str = "comb"
    body: ir.Suite | None = None
    _kind, _params = "comb", "v, m"


@dataclass
class SyncProcess(_Process):
    """Clocked logic: runs on an edge of ``clock``; NBA writes staged.

    ``fn(values, mems, nba, nbm)`` — non-blocking signal writes append
    ``(signal_index, value)`` to *nba*; non-blocking memory writes append
    ``(mem_index, addr, value)`` to *nbm*.  Both are applied atomically
    after every sync process has sampled.
    """

    fn: Callable  # fn(values, mems, nba, nbm) -> None
    clock: int          # signal index of the clock
    edge: str = Edge.POS
    reads: frozenset[int] = frozenset()
    writes: frozenset[int] = frozenset()
    name: str = "sync"
    body: ir.Suite | None = None
    _kind, _params = "sync", "v, m, nba, nbm"


class RTLModule:
    """A flat, elaborated design ready to simulate."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.signals: dict[str, Signal] = {}
        self.memories: dict[str, Memory] = {}
        self.comb_procs: list[CombProcess] = []
        self.sync_procs: list[SyncProcess] = []
        self.initial_values: dict[int, int] = {}
        self.initial_mem: dict[int, list[int]] = {}
        #: statement-coverage counters compiled into process code
        self.coverage_points: list[CoveragePoint] = []
        #: state registers inferred during elaboration (case subjects)
        self.fsm_infos: list[FSMInfo] = []
        #: ``(what it was, process)`` per elaborated process, in
        #: elaboration order: what :attr:`generated_source` prints
        self.listing: list[tuple[str, _Process]] = []

    # -- construction -----------------------------------------------------

    def add_signal(
        self,
        name: str,
        width: int,
        is_input: bool = False,
        is_output: bool = False,
        init: int = 0,
    ) -> Signal:
        if name in self.signals:
            raise ValueError(f"duplicate signal {name!r} in module {self.name!r}")
        sig = Signal(name, width, len(self.signals), is_input, is_output)
        self.signals[name] = sig
        if init:
            self.initial_values[sig.index] = init & sig.mask
        return sig

    def add_memory(self, name: str, width: int, depth: int) -> Memory:
        if name in self.memories:
            raise ValueError(f"duplicate memory {name!r} in module {self.name!r}")
        if depth <= 0:
            raise ValueError(f"memory depth must be positive, got {depth}")
        mem = Memory(name, width, depth, len(self.memories))
        self.memories[name] = mem
        return mem

    def add_comb(
        self,
        fn: Callable,
        reads: frozenset[int] | set[int],
        writes: frozenset[int] | set[int],
        name: str = "comb",
        body: ir.Suite | None = None,
    ) -> CombProcess:
        proc = CombProcess(fn, frozenset(reads), frozenset(writes), name, body)
        self.comb_procs.append(proc)
        return proc

    def add_sync(
        self,
        fn: Callable,
        clock: Signal | int,
        edge: str = Edge.POS,
        reads: frozenset[int] | set[int] = frozenset(),
        writes: frozenset[int] | set[int] = frozenset(),
        name: str = "sync",
        body: ir.Suite | None = None,
    ) -> SyncProcess:
        clk_idx = clock.index if isinstance(clock, Signal) else clock
        proc = SyncProcess(fn, clk_idx, edge, frozenset(reads), frozenset(writes),
                           name, body)
        self.sync_procs.append(proc)
        return proc

    def add_coverage_point(self, label: str, file: str, line: int,
                           col: int = 0) -> Signal:
        """Allocate a hidden statement-coverage counter signal."""
        n = len(self.coverage_points)
        sig = self.add_signal(f"{COVERAGE_PREFIX}stmt_{n}", 64)
        self.coverage_points.append(
            CoveragePoint(label, file, line, col, sig.index)
        )
        return sig

    # -- introspection ------------------------------------------------------

    @property
    def generated_source(self) -> str:
        """The model code: every elaborated process, printed from its
        body."""
        return "\n\n".join(
            f"# {what}\ndef _{proc._kind}_{n}({proc._params}):\n{proc.source}"
            for n, (what, proc) in enumerate(self.listing, 1)
        )

    def visible_signals(self) -> list[Signal]:
        """Signals excluding hidden instrumentation counters."""
        return [
            s for s in self.signals.values()
            if not s.name.startswith(COVERAGE_PREFIX)
        ]

    @property
    def inputs(self) -> list[Signal]:
        return [s for s in self.signals.values() if s.is_input]

    @property
    def outputs(self) -> list[Signal]:
        return [s for s in self.signals.values() if s.is_output]

    def num_signals(self) -> int:
        return len(self.signals)

    def fresh_values(self) -> list[int]:
        vals = [0] * len(self.signals)
        for idx, v in self.initial_values.items():
            vals[idx] = v
        return vals

    def fresh_mems(self) -> list[list[int]]:
        mems: list[list[int]] = []
        for mem in sorted(self.memories.values(), key=lambda m: m.index):
            init = self.initial_mem.get(mem.index)
            mems.append(list(init) if init else [0] * mem.depth)
        return mems

    def levelize(self) -> list[CombProcess]:
        """Order comb processes so one settling pass suffices.

        Raises :class:`CombLoopError` if the comb dependency graph is
        cyclic.  Uses Kahn's algorithm over the writes→reads edges.
        """
        procs = self.comb_procs
        n = len(procs)
        # edge i -> j iff proc i writes a signal proc j reads
        writers: dict[int, list[int]] = {}
        for i, p in enumerate(procs):
            for sig in p.writes:
                writers.setdefault(sig, []).append(i)
        succs: list[set[int]] = [set() for _ in range(n)]
        indeg = [0] * n
        for j, p in enumerate(procs):
            for sig in p.reads:
                for i in writers.get(sig, ()):
                    if i != j and j not in succs[i]:
                        succs[i].add(j)
                        indeg[j] += 1
        order: list[int] = [i for i in range(n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            i = order[head]
            head += 1
            for j in succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
        if len(order) != n:
            cyclic = [procs[i].name for i in range(n) if indeg[i] > 0]
            raise CombLoopError(
                f"combinational loop in module {self.name!r} involving: "
                + ", ".join(cyclic)
            )
        return [procs[i] for i in order]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RTLModule {self.name}: {len(self.signals)} signals, "
            f"{len(self.memories)} memories, {len(self.comb_procs)} comb, "
            f"{len(self.sync_procs)} sync>"
        )


class CombLoopError(RuntimeError):
    """Raised when combinational logic forms a zero-delay cycle."""
