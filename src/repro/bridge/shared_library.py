"""The shared-library wrapper contract (paper §3.3).

A shared library bundles the Verilator/GHDL-generated model with a
wrapper exposing exactly two entry points to gem5:

* ``tick(input_bytes) -> output_bytes`` — advance the model one of *its*
  clock cycles, fed by a packed input struct, producing a packed output
  struct;
* ``reset()`` — reset the modelled hardware.

:class:`SharedLibrary` is that contract.  :class:`RTLSharedLibrary` is
the common implementation for models compiled by our HDL frontends: it
owns the :class:`~repro.rtl.RTLSimulator`, supports waveform tracing
with runtime enable/disable (Table 2's knob), and moves struct fields
onto RTL pins and back.  What a Verilator wrapper writes by hand around
``eval()`` — one assignment per struct member — the model-specific
wrapper (PMU, RTL cache, …) *declares* as a pin map, and the exchange is
generated from it.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, TextIO, Union

from ..rtl.codegen import PinSlot
from ..rtl.kernel import RTLModule
from ..rtl.simulator import RTLSimulator
from ..rtl.vcd import VCDWriter
from .structs import StructSpec

#: one struct on the pins: per field, its name, element count and the
#: pin location of each element
_Wiring = list[tuple[str, int, list[PinSlot]]]


class SharedLibrary(abc.ABC):
    """The two-function boundary between gem5 and any RTL model."""

    #: struct layouts; subclasses must define both.
    input_spec: StructSpec
    output_spec: StructSpec

    #: cycles advanced since :meth:`reset`; every tick of every
    #: implementation counts here, so a caller of :meth:`tick_batch`
    #: reads how far the model actually went off its delta
    ticks: int = 0

    @abc.abstractmethod
    def tick(self, input_bytes: bytes) -> bytes:
        """Advance the model one cycle of its own clock."""

    def tick_batch(
        self, input_bytes: bytes, cycles: int, steady: Optional[bytes] = None
    ) -> bytes:
        """Advance up to *cycles* clock cycles holding one input struct
        steady; returns the last output.

        Without *steady* this is :meth:`tick` called *cycles* times with
        the same bytes, all outputs but the last discarded.  With
        *steady* — the output struct the caller consumed last — the
        batch also ends after the first cycle whose output differs from
        it, so no output is discarded that the caller has not already
        seen; :attr:`ticks` tells how many cycles ran.  The default
        implementation does exactly that; RTL-backed libraries override
        it with a fused batch that drives the pins once.
        """
        if cycles < 1:
            raise ValueError(f"cannot batch {cycles} cycles")
        out = b""
        for _ in range(cycles):
            out = self.tick(input_bytes)
            if steady is not None and out != steady:
                break
        return out

    @abc.abstractmethod
    def reset(self) -> None:
        """Reset the modelled hardware."""

    # -- checkpointing (a Verilator feature the paper calls out) ------------

    def checkpoint_state(self) -> dict:
        """JSON-able snapshot of the model's full state."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def load_checkpoint_state(self, state: dict) -> None:
        """Restore a :meth:`checkpoint_state` snapshot."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )


class RTLSharedLibrary(SharedLibrary):
    """Wrapper base for models produced by the HDL toolflows.

    A subclass names its two structs and, in :attr:`pins`, the fields
    that are not wired to the signal of their own name::

        class CacheLibrary(RTLSharedLibrary):
            input_spec = CACHE_IN        # req_valid, ..., fill_data[8]
            output_spec = CACHE_OUT      # resp_valid, ..., hits
            pins = {"hits": "hit_count"}

    A field maps to one signal, or an array field to one signal per
    element (``"data": ("d0", ..., "d7")``); an array field on a single
    signal is its elements concatenated little-endian (eight 64-bit
    ``fill_data`` lanes on one 512-bit pin).  A key may be qualified
    with the struct's name (``"bitonic_in.data"``) where both structs
    have a field of that name on different pins.

    On the codegen backend the whole tick — and a whole run-ahead
    window, its pin test included — is one generated function
    (:func:`repro.rtl.codegen.build_exchange`).  :meth:`drive` and
    :meth:`collect` are the same map interpreted field by field around
    the public ``unpack``/``settle``/``tick``/``pack``: the reference
    the generated exchange is tested against, and the path taken
    whenever it cannot serve — the interpreter backend, or a VCD writer
    that is enabled and must sample every cycle.
    """

    #: name of the design's reset input (asserted by :meth:`reset`)
    reset_signal: str = "rst"

    #: struct field -> RTL signal name(s); default: the field's own name
    pins: dict[str, Union[str, Sequence[str]]] = {}

    def __init__(
        self,
        module: RTLModule,
        trace_stream: Optional[TextIO] = None,
        trace_enabled: bool = False,
        backend: str = "codegen",
    ) -> None:
        trace = None
        if trace_stream is not None:
            trace = VCDWriter(module, stream=trace_stream, enabled=trace_enabled)
            # follow the global trace switch (--trace-start/--trace-end)
            from ..trace.control import register_vcd

            register_vcd(trace)
        self.module = module
        self.sim = RTLSimulator(module, trace=trace, backend=backend)
        self.ticks = 0
        stray = set(self.pins) - {
            key
            for spec in (self.input_spec, self.output_spec)
            for field in spec
            for key in (field.name, f"{spec.name}.{field.name}")
        }
        if stray:
            raise ValueError(
                f"{type(self).__name__}.pins names no struct field: "
                f"{sorted(stray)}"
            )
        self._driven = self._wire(self.input_spec, inputs=True)
        self._collected = self._wire(self.output_spec, inputs=False)
        self._exchange = self.sim.build_exchange(
            self.input_spec.struct,
            [slot for _, _, lanes in self._driven for slot in lanes],
            self.output_spec.struct,
            [slot for _, _, lanes in self._collected for slot in lanes],
            self.input_spec.size_error,
        )

    def _wire(self, spec: StructSpec, inputs: bool) -> _Wiring:
        """Resolve *spec*'s fields through :attr:`pins`."""
        who = type(self).__name__
        wiring: _Wiring = []
        driven: set[str] = set()
        for field in spec:
            names = self.pins.get(
                f"{spec.name}.{field.name}",
                self.pins.get(field.name, field.name),
            )
            if isinstance(names, str):
                names = (names,)
            if len(names) not in (1, field.count):
                raise ValueError(
                    f"{who}: field {field.name!r} of {spec.name!r} has "
                    f"{field.count} elements but {len(names)} pins"
                )
            missing = [n for n in names if n not in self.module.signals]
            if missing:
                raise ValueError(
                    f"{who}: field {field.name!r} of {spec.name!r} is wired "
                    f"to {missing}, not signals of {self.module.name!r}"
                )
            sigs = [self.module.signals[n] for n in names]
            if inputs:
                # the exchange stores straight into the value array;
                # only module inputs may be written without dropping
                # the activity-cone keys, and only one field per input
                for sig in sigs:
                    if not sig.is_input or sig.name in driven:
                        raise ValueError(
                            f"{who}: input field {field.name!r} must drive "
                            "a module input nothing else drives, not "
                            f"{sig.name!r}"
                        )
                    driven.add(sig.name)
            if len(sigs) == 1:
                # an array on one wide signal: lanes little-endian
                pairs = [(sigs[0], i * field.width) for i in range(field.count)]
            else:
                pairs = [(sig, 0) for sig in sigs]
            wiring.append((field.name, field.count, [
                # a collected slot that is all of its signal needs no
                # mask (-1: the value array holds nothing wider)
                (sig.index, shift,
                 -1 if not inputs and not shift and field.mask >= sig.mask
                 else field.mask & (sig.mask >> shift))
                for sig, shift in pairs
            ]))
        return wiring

    # -- waveform control (runtime toggling, as in the paper) ---------------

    @property
    def tracing(self) -> bool:
        return self.sim.trace is not None and self.sim.trace.enabled

    def enable_waveforms(self) -> None:
        if self.sim.trace is None:
            raise RuntimeError(
                "no trace stream was configured for this shared library"
            )
        self.sim.trace.enable()

    def disable_waveforms(self) -> None:
        if self.sim.trace is not None:
            self.sim.trace.disable()

    # -- the contract -----------------------------------------------------------

    def tick(self, input_bytes: bytes) -> bytes:
        sim = self.sim
        trace = sim.trace
        if self._exchange is None or (trace is not None and trace.enabled):
            return self.tick_batch(input_bytes, 1)
        # tick_batch(input_bytes, 1), minus the hop: this is the call
        # every busy model makes every cycle
        _, out = self._exchange(input_bytes, sim.values, sim.mems, 1, None)
        sim.cycle += 1
        self.ticks += 1
        return out

    def tick_batch(
        self, input_bytes: bytes, cycles: int, steady: Optional[bytes] = None
    ) -> bytes:
        """Up to *cycles* ticks on one input struct, the last output
        returned; with *steady*, ends after the first cycle whose output
        pins differ from it (see :meth:`SharedLibrary.tick_batch`).

        Equivalent to that many sequential :meth:`tick` calls with the
        same input: re-driving identical pin values and re-settling an
        already-settled netlist are no-ops, so the pins are driven once
        and all cycles, and the test of the output pins after each, run
        inside the RTL kernel (one generated loop on the codegen
        backend).
        """
        if cycles < 1:
            raise ValueError(f"cannot batch {cycles} cycles")
        sim = self.sim
        trace = sim.trace
        if self._exchange is not None and (trace is None or not trace.enabled):
            cycles, out = self._exchange(
                input_bytes, sim.values, sim.mems, cycles, steady
            )
            sim.cycle += cycles
        else:
            self.drive(self.input_spec.unpack(input_bytes))
            sim.settle()
            if steady is None:
                sim.tick(cycles)
                out = self.output_spec.pack(**self.collect())
            else:
                for ran in range(1, cycles + 1):
                    sim.tick()
                    out = self.output_spec.pack(**self.collect())
                    if out != steady:
                        break
                cycles = ran
        self.ticks += cycles
        return out

    def drive(self, inputs: dict) -> None:
        """Apply unpacked input fields to the RTL model's input signals
        (module inputs, so plain stores: there is nothing to invalidate)."""
        v = self.sim.values
        for name, count, lanes in self._driven:
            if count == 1:
                idx, _, mask = lanes[0]
                v[idx] = inputs[name] & mask
                continue
            for idx, _, _ in lanes:
                v[idx] = 0
            for x, (idx, shift, mask) in zip(inputs[name], lanes):
                v[idx] |= (x & mask) << shift

    def collect(self) -> dict:
        """Read the RTL model's outputs into output-struct fields."""
        v = self.sim.values
        outputs: dict = {}
        for name, count, lanes in self._collected:
            if count == 1:
                idx, shift, mask = lanes[0]
                outputs[name] = v[idx] >> shift & mask
            else:
                outputs[name] = [v[idx] >> shift & mask
                                 for idx, shift, mask in lanes]
        return outputs

    def reset(self) -> None:
        self.sim.reset(self.reset_signal)
        self.ticks = 0

    # -- checkpointing (a Verilator feature the paper calls out) ------------

    def save_checkpoint(self):
        """Snapshot the RTL model's full state."""
        ckpt = self.sim.save_checkpoint()
        return (ckpt, self.ticks)

    def restore_checkpoint(self, checkpoint) -> None:
        ckpt, ticks = checkpoint
        self.sim.restore_checkpoint(ckpt)
        self.ticks = ticks

    def checkpoint_state(self) -> dict:
        ckpt, ticks = self.save_checkpoint()
        return {
            "cycle": ckpt.cycle,
            "values": list(ckpt.values),
            "mems": [list(m) for m in ckpt.mems],
            "ticks": ticks,
        }

    def load_checkpoint_state(self, state: dict) -> None:
        from ..rtl.simulator import RTLCheckpoint

        ckpt = RTLCheckpoint(
            cycle=state["cycle"],
            values=list(state["values"]),
            mems=[list(m) for m in state["mems"]],
        )
        self.restore_checkpoint((ckpt, state["ticks"]))


class BehavioralSharedLibrary(SharedLibrary):
    """Wrapper base for cycle-level behavioural models (no HDL kernel).

    Used for large IP where gate-level simulation is impractical in this
    substrate (our NVDLA-class accelerator).  Subclasses implement
    :meth:`step` with the same tick-in/tick-out semantics: a step names
    the output fields it sets, the rest of the struct is zero, and a
    step that sets nothing costs no packing at all.  A model that ticks
    often enough for the two dicts to show overrides :meth:`tick` itself
    around the spec's generated ``values`` decode and positional
    ``pack``, as :class:`~repro.models.nvdla.wrapper.NVDLASharedLibrary`
    does.
    """

    def __init__(self) -> None:
        self.ticks = 0

    def tick(self, input_bytes: bytes) -> bytes:
        inputs = self.input_spec.unpack(input_bytes)
        outputs = self.step(inputs)
        self.ticks += 1
        if not outputs:
            return self.output_spec.zeros()
        return self.output_spec.pack(**outputs)

    def step(self, inputs: dict) -> dict:
        """Advance one cycle; return the output-struct fields it set."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither step nor tick"
        )

    def reset(self) -> None:
        self.ticks = 0

    # -- checkpointing ------------------------------------------------------

    def model_state(self) -> dict:
        """JSON-able model-specific state (override per model)."""
        return {}

    def load_model_state(self, state: dict) -> None:
        if state:
            raise NotImplementedError(
                f"{type(self).__name__} checkpointed model state but "
                "does not implement load_model_state"
            )

    def checkpoint_state(self) -> dict:
        return {"ticks": self.ticks, "model": self.model_state()}

    def load_checkpoint_state(self, state: dict) -> None:
        self.ticks = state["ticks"]
        self.load_model_state(state["model"])
