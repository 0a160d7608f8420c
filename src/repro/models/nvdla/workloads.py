"""The two NVDLA workloads evaluated in the paper (§5.2.2).

* **sanity3** — "a small memory-intensive convolution": little compute
  per byte, so its performance is dominated by achievable memory
  bandwidth and by how much latency the in-flight window can hide.
* **googlenet** — "the second convolution of the GoogleNet CNN
  pipeline, which has more computations and uses 3×3 filters": more
  MAC work per fetched byte, hence more latency-tolerant and less
  bandwidth-hungry per instance.

Stream sizes derive from the real layer shapes; the per-block compute
rates are calibrated so each workload's bandwidth demand at 1 GHz
matches the regime the paper's Figures 6/7 imply (see EXPERIMENTS.md
for the calibration notes).  Images are deterministic pseudo-random
int8 data.
"""

from __future__ import annotations

import functools
import struct

from .trace import LayerDesc, Trace

BLOCK = 64

#: default placement of a workload's data within an instance's region
IN_OFFSET = 0x0_0000
W_OFFSET = 0x40_0000
OUT_OFFSET = 0x80_0000

#: per-instance address-space stride (each NVDLA gets its own copy)
INSTANCE_STRIDE = 0x400_0000
DATA_BASE = 0x8000_0000


def _blocks(nbytes: int) -> int:
    return -(-nbytes // BLOCK)


# -- the image stream ------------------------------------------------------
#
# Images are numpy's ``default_rng(seed).integers(0, 256, n, dtype=uint8)``,
# reproduced byte for byte without numpy (DESIGN.md "Why there is no
# numpy"): SeedSequence expands the seed into four 64-bit words, PCG64 is
# seeded from them, and each XSL-RR output supplies eight bytes, low byte
# first.  Checkpoints hash the physmem frames the images land in, so any
# change to this stream moves pinned bytes.

_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy.random.SeedSequence's hash constants (a 32-bit hash by M. O'Neill)
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    entropy = [seed & _MASK32]         # 32-bit words, least significant first
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    padded = entropy + [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):                 # four uint64s as eight uint32s
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


# more than the six images of the largest workload; bounded because a
# long-lived worker may be asked for any number of scales
@functools.lru_cache(maxsize=16)
def _stream(seed: int, nbytes: int) -> bytes:
    """*nbytes* uniform bytes of ``default_rng(seed)``, as numpy draws them.

    A pure function of its arguments and the same for every instance of
    every design point, so each process draws it once.
    """
    s0, s1, s2, s3 = _seed_words(seed)
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    # pcg_setseq_128_srandom_r: step from 0, add the initial state, step
    state = (inc + (s0 << 64 | s1)) * _PCG_MULT + inc & _MASK128
    words = []
    append = words.append
    for _ in range(-(-nbytes // 8)):
        state = state * _PCG_MULT + inc & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        append(((x << 64 | x) >> (state >> 122)) & _MASK64)   # rotate right
    # integers(0, 256, dtype=uint8) takes each output as two uint32 halves,
    # low half first, and each half's bytes low byte first
    return struct.pack(f"<{len(words)}Q", *words)[:nbytes]


def _image(addr: int, nbytes: int, seed: int) -> tuple[int, bytes]:
    return addr, _stream(seed, nbytes)


def sanity3(base: int = DATA_BASE, scale: float = 1.0) -> Trace:
    """The small memory-intensive convolution.

    Shape: a 1×1 convolution over a 128×28×28 int8 surface with 32
    output channels — ~100 KiB of activations, 4 KiB of weights, and an
    output surface comparable to the input: the read stream is consumed
    at 2.5 cycles/64 B (≈26 GB/s read + ~6 GB/s write demand at 1 GHz,
    ~32 GB/s per instance).
    """
    in_bytes = int(128 * 28 * 28 * scale)      # ~100 KiB
    w_bytes = int(32 * 128 * 1 * 1 * scale)    # 4 KiB
    layer = LayerDesc(
        in_addr=base + IN_OFFSET,
        w_addr=base + W_OFFSET,
        out_addr=base + OUT_OFFSET,
        in_blocks=_blocks(in_bytes),
        w_blocks=_blocks(w_bytes),
        compute_x16=40,        # 2.5 cycles per 64B block (~26 GB/s reads)
        blocks_per_out=4,
    )
    return Trace(
        "sanity3",
        [layer],
        [
            _image(base + IN_OFFSET, in_bytes, seed=0x5A17),
            _image(base + W_OFFSET, w_bytes, seed=0x5A18),
        ],
    )


def googlenet(base: int = DATA_BASE, scale: float = 1.0) -> Trace:
    """GoogleNet's second convolution (3×3, 64→192 channels, 56×56).

    ~200 KiB of activations and ~110 KiB of int8 weights; the 3×3
    filters do ~9× more MACs per fetched activation byte than sanity3,
    modelled as 4 cycles/64 B (≈16 GB/s read + ~8 GB/s write demand at
    1 GHz, ~24 GB/s per instance).
    """
    in_bytes = int(64 * 56 * 56 * scale)        # ~200 KiB
    w_bytes = int(192 * 64 * 3 * 3 * scale)     # ~110 KiB
    layer = LayerDesc(
        in_addr=base + IN_OFFSET,
        w_addr=base + W_OFFSET,
        out_addr=base + OUT_OFFSET,
        in_blocks=_blocks(in_bytes),
        w_blocks=_blocks(w_bytes),
        compute_x16=64,        # 4.0 cycles per 64B block (~16 GB/s reads)
        blocks_per_out=2,
    )
    return Trace(
        "googlenet",
        [layer],
        [
            _image(base + IN_OFFSET, in_bytes, seed=0x900617),
            _image(base + W_OFFSET, w_bytes, seed=0x900618),
        ],
    )


def googlenet_pipeline(base: int = DATA_BASE, scale: float = 1.0,
                       layers: int = 3) -> Trace:
    """A multi-layer slice of the GoogleNet pipeline.

    The paper evaluates the single second convolution; real traces play
    whole layer sequences — doorbell, interrupt, reconfigure, repeat.
    This workload chains a 1x1 reduce, the 3x3 conv, and a 1x1 expand,
    exercising the CSB-reconfiguration path between layers.
    """
    shapes = [
        # (in_bytes, w_bytes, compute_x16, blocks_per_out)
        (int(192 * 56 * 56 * scale), int(64 * 192 * scale), 24, 4),   # 1x1
        (int(64 * 56 * 56 * scale), int(192 * 64 * 9 * scale), 64, 2),  # 3x3
        (int(192 * 56 * 56 * scale), int(96 * 192 * scale), 24, 4),   # 1x1
    ]
    layer_descs = []
    images = []
    offset = 0
    for idx, (in_bytes, w_bytes, cx16, bpo) in enumerate(shapes[:layers]):
        in_addr = base + IN_OFFSET + offset
        w_addr = base + W_OFFSET + offset
        out_addr = base + OUT_OFFSET + offset
        layer_descs.append(LayerDesc(
            in_addr=in_addr, w_addr=w_addr, out_addr=out_addr,
            in_blocks=_blocks(in_bytes), w_blocks=_blocks(w_bytes),
            compute_x16=cx16, blocks_per_out=bpo,
        ))
        images.append(_image(in_addr, in_bytes, seed=0x9000 + idx))
        images.append(_image(w_addr, w_bytes, seed=0x9100 + idx))
        offset += 0x10_0000
    return Trace("googlenet_pipeline", layer_descs, images)


WORKLOADS = {
    "sanity3": sanity3,
    "googlenet": googlenet,
    "googlenet_pipeline": googlenet_pipeline,
}


def for_instance(name: str, instance: int, scale: float = 1.0) -> Trace:
    """Build workload *name* relocated into instance *instance*'s region."""
    builder = WORKLOADS[name]
    return builder(base=DATA_BASE + instance * INSTANCE_STRIDE, scale=scale)
