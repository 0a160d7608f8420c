"""The shared-library wrapper contract (paper §3.3).

A shared library bundles the Verilator/GHDL-generated model with a
wrapper exposing exactly two entry points to gem5:

* ``tick(inputs) -> outputs`` — advance the model one of *its* clock
  cycles, fed by an input struct, producing an output struct;
* ``reset()`` — reset the modelled hardware.

:class:`SharedLibrary` is that contract; the form a struct takes at
``tick`` is the library class's (:meth:`SharedLibrary.struct_of`).
:class:`RTLSharedLibrary` is the common implementation for models
compiled by our HDL frontends: it owns the
:class:`~repro.rtl.simulator.RTLSimulator`, supports waveform tracing
with runtime enable/disable (Table 2's knob), and moves struct fields
onto RTL pins and back.  What a Verilator wrapper writes by hand around
``eval()`` — one assignment per struct member — the model-specific
wrapper (PMU, RTL cache, …) *declares* as a pin map, and the exchange is
generated from it.
"""

from __future__ import annotations

import abc
import copy
from typing import TYPE_CHECKING, Optional, Sequence, TextIO, Union

from ..soc.simobject import VALUE, Checkpointed, Codec
from .structs import StructSpec

if TYPE_CHECKING:
    from ..rtl.codegen import PinSlot
    from ..rtl.kernel import RTLModule

    #: one struct on the pins: per field, its name, element count and
    #: the pin location of each element
    _Wiring = list[tuple[str, int, list[PinSlot]]]


class SharedLibrary(Checkpointed, abc.ABC):
    """The two-function boundary between gem5 and any RTL model; its
    checkpoint (a Verilator feature the paper calls out) is its
    ``ckpt_state`` table, saved as its RTL object's ``library``."""

    ckpt_state = (("ticks", VALUE),)

    #: struct layouts; subclasses must define both.
    input_spec: StructSpec
    output_spec: StructSpec

    #: cycles advanced since :meth:`reset`; every tick of every
    #: implementation counts here, so a caller of
    #: :meth:`RTLSharedLibrary.tick_varying` reads how far the model
    #: actually went off its delta
    ticks: int = 0

    @abc.abstractmethod
    def tick(self, inputs):
        """Advance the model one cycle of its own clock."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Reset the modelled hardware."""

    @staticmethod
    def struct_of(spec: StructSpec, data: bytes):
        """A struct of *spec* packed in *data*, in :meth:`tick`'s form:
        the bytes themselves, here."""
        return data

    @staticmethod
    def bytes_of(spec: StructSpec, struct) -> bytes:
        """:meth:`struct_of` inverted: what a checkpoint holds."""
        return struct

    def fields_of(self, outputs):
        """An output struct decoded for an RTL object: the field dict."""
        return self.output_spec.unpack(outputs)


def same_shape(saved: list, built: list) -> list:
    """A copy of *saved*, a kernel's ``values`` or ``mems`` as a
    checkpoint holds them; a ValueError unless it is shaped like
    *built*, the design's own (a file from another design, or from this
    one at another size, would be misread)."""
    if len(saved) != len(built) or any(
            type(b) is list and len(s) != len(b)
            for s, b in zip(saved, built)):
        raise ValueError("checkpoint does not match this design")
    return copy.deepcopy(saved)


#: an RTL kernel's ``values`` or ``mems``, copied; a load refuses one not
#: shaped like the built design's
KERNEL = Codec(lambda v, ctx: copy.deepcopy(v),
               lambda d, ctx, built: same_shape(d, built))


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

    On the codegen backend the whole tick is one generated function
    (:func:`repro.rtl.codegen.build_exchange`), and so are the cycles a
    lagging model owes, the pin test after each included
    (:func:`repro.rtl.codegen.build_replay`).  :meth:`drive` and
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

    ckpt_state = (("cycle", "sim.cycle", VALUE),
                  ("values", "sim.values", KERNEL),
                  ("mems", "sim.mems", KERNEL))

    def __init__(
        self,
        module: RTLModule,
        trace_stream: Optional[TextIO] = None,
        trace_enabled: bool = False,
        backend: str = "codegen",
    ) -> None:
        # the RTL kernel loads with the first RTL model, never with a
        # behavioural-only system
        from ..rtl.simulator import RTLSimulator
        from ..rtl.vcd import VCDWriter

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
        #: field -> generated replay (:meth:`tick_varying`), on first use
        self._replays: dict = {}

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

    # -- the contract -----------------------------------------------------------

    def tick(self, input_bytes: bytes) -> bytes:
        sim = self.sim
        trace = sim.trace
        if self._exchange is None or (trace is not None and trace.enabled):
            return self.tick_batch(input_bytes, 1)
        # tick_batch(input_bytes, 1), minus the hop: this is the call
        # every busy model makes every cycle
        out = self._exchange(input_bytes, sim.values, sim.mems, 1)
        sim.cycle += 1
        self.ticks += 1
        return out

    def tick_batch(self, input_bytes: bytes, cycles: int) -> bytes:
        """*cycles* ticks on one input struct, the last output returned.

        Equivalent to that many sequential :meth:`tick` calls with the
        same input: re-driving identical pin values and re-settling an
        already-settled netlist are no-ops, so the pins are driven once
        and all cycles run inside the RTL kernel (one generated loop on
        the codegen backend).
        """
        if cycles < 1:
            raise ValueError(f"cannot batch {cycles} cycles")
        sim = self.sim
        trace = sim.trace
        if self._exchange is not None and (trace is None or not trace.enabled):
            out = self._exchange(input_bytes, sim.values, sim.mems, cycles)
            sim.cycle += cycles
        else:
            self.drive(self.input_spec.unpack(input_bytes))
            sim.settle()
            sim.tick(cycles)
            out = self.output_spec.pack(**self.collect())
        self.ticks += cycles
        return out

    def tick_varying(
        self, input_bytes: bytes, field: Optional[str], values: Sequence[int],
        steady: bytes,
    ) -> bytes:
        """One cycle per element of *values*, on the input struct
        *input_bytes* with its scalar *field* set to that element (with
        *field* None, *input_bytes* held and the elements unread);
        returns the last output (*steady* if *values* is empty).

        Ends after the first cycle whose output differs from *steady*;
        :attr:`ticks` tells how many ran.  For a model that lagged
        behind the event queue and runs the cycles it owes at once
        (:meth:`RTLObject.lag_cycles
        <repro.bridge.rtl_object.RTLObject.lag_cycles>`).  On the
        codegen backend one generated loop
        (:func:`repro.rtl.codegen.build_replay`), otherwise
        :meth:`drive`/``settle``/``tick``/:meth:`collect` per cycle, on
        the paths :meth:`tick_batch` takes: an enabled VCD writer
        samples every cycle.
        """
        sim = self.sim
        trace = sim.trace
        if self._exchange is not None and (trace is None or not trace.enabled):
            replay = self._replays.get(field)
            if replay is None:
                replay = self._replays[field] = self._build_replay(field)
            ran, out = replay(input_bytes, sim.values, sim.mems, values,
                              steady)
            sim.cycle += ran
            self.ticks += ran
            return out
        fields = self.input_spec.unpack(input_bytes)
        out = steady
        for value in values:
            if field is not None:
                fields[field] = value
            self.drive(fields)
            sim.settle()
            sim.tick()
            self.ticks += 1
            out = self.output_spec.pack(**self.collect())
            if out != steady:
                break
        return out

    def _build_replay(self, field: Optional[str]):
        slot = None
        if field is not None:
            slot = 0
            for name, count, lanes in self._driven:
                if name == field:
                    if count != 1:
                        raise ValueError(
                            f"{type(self).__name__}: cannot vary array "
                            f"field {field!r}"
                        )
                    break
                slot += len(lanes)
            else:
                raise KeyError(f"no input field {field!r}")
        return self.sim.build_replay(
            self.input_spec.struct,
            [pin for _, _, lanes in self._driven for pin in lanes],
            self.output_spec.struct,
            [pin for _, _, lanes in self._collected for pin in lanes],
            self.input_spec.size_error,
            slot,
        )

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


class BehavioralSharedLibrary(SharedLibrary):
    """Wrapper base for cycle-level behavioural models (no HDL kernel).

    Used for large IP where gate-level simulation is impractical in this
    substrate (our NVDLA-class accelerator).  With no pins to fill from
    packed bytes, a struct crosses ``tick`` as its fields: the spec's
    ``values`` tuple (array fields as lane tuples), what positional
    ``pack`` takes.  :meth:`tick` masks an input field narrower than
    its slot to its width, as ``unpack`` did.
    """

    @staticmethod
    def struct_of(spec: StructSpec, data: bytes) -> tuple:
        return spec.values(data)

    @staticmethod
    def bytes_of(spec: StructSpec, struct: tuple) -> bytes:
        return spec.pack(*struct)

    @staticmethod
    def fields_of(outputs: tuple) -> tuple:
        return outputs

    def reset(self) -> None:
        self.ticks = 0
