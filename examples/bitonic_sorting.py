#!/usr/bin/env python3
"""VHDL/GHDL-flow demo: the bitonic sorting accelerator.

The paper brought up its GHDL support with a bitonic sorter written in
VHDL; this example compiles that design (``bitonic.vhdl``, unmodified)
with the VHDL frontend, pushes vectors through the 6-stage pipeline at
one per cycle, and dumps a waveform — demonstrating that VHDL designs
get the same treatment as Verilog ones.

Run:  python examples/bitonic_sorting.py
"""

import random

from repro.models.bitonic.wrapper import (
    BitonicSharedLibrary,
    PIPELINE_DEPTH,
    load_bitonic_source,
)


def main() -> None:
    src = load_bitonic_source()
    print(f"compiling bitonic.vhdl ({len(src.splitlines())} lines of VHDL) "
          "with the GHDL-equivalent frontend...")
    with open("/tmp/bitonic.vcd", "w") as stream:
        lib = BitonicSharedLibrary(width=16, trace_stream=stream,
                                   trace_enabled=True)
        lib.reset()

        rng = random.Random(1234)
        batches = [
            [rng.randrange(0, 1 << 16) for _ in range(8)] for _ in range(64)
        ]
        results: list[list[int]] = []
        feed = iter(batches)
        ticks = 0
        while len(results) < len(batches):
            batch = next(feed, None)
            if batch is not None:
                buf = lib.input_spec.pack(valid_in=1, data=batch)
            else:
                buf = lib.input_spec.zeros()
            out = lib.output_spec.unpack(lib.tick(buf))
            if out["valid_out"]:
                results.append(out["data"])
            ticks += 1

        ok = sum(r == sorted(b) for r, b in zip(results, batches))
        print(f"sorted {ok}/{len(batches)} vectors in {ticks} cycles "
              f"(pipeline depth {PIPELINE_DEPTH}, one vector/cycle)")
        assert ok == len(batches)

        print("example vector:")
        print(f"  in : {batches[0]}")
        print(f"  out: {results[0]}")
    print("waveform written to /tmp/bitonic.vcd")


if __name__ == "__main__":
    main()
