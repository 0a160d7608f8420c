"""The NVDLA workloads' memory images, drawn without numpy.

``workloads._stream`` reproduces ``numpy.random.default_rng(seed)
.integers(0, 256, n, dtype=np.uint8).tobytes()`` in pure Python.  The
images land in simulated memory, and the pinned mid-run checkpoints hash
the physmem frames that hold them, so the stream is pinned here byte for
byte: by sha256 for every image any workload builds, and against numpy
itself when numpy is installed.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.models.nvdla.workloads import WORKLOADS, _stream

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: (address, length, sha256) of every image, in ``Trace.mem_image`` order
IMAGES = {
    ("sanity3", 1.0): [
        (0x80000000, 100352, "beee56ce3abceb8d70c5973edbf9967b9be3e25cb11f4e90ecae20b7ae1c6147"),
        (0x80400000, 4096, "79b22f5b07674ffec2f431af9817fdfe337384df5473fcf5f14763f0776caec4"),
    ],
    ("sanity3", 0.2): [
        (0x80000000, 20070, "15c0c52547ab922af080f32555fb300be69facd8db17a1a6d885b1ebfe5b1901"),
        (0x80400000, 819, "f0dd9384f764292461041e40524aa58f57cf56426c3f1c26ba86242bf7367168"),
    ],
    ("googlenet", 1.0): [
        (0x80000000, 200704, "ec38c87f43a6f3ec5d5d458ecffa64b4c8599880af4b7264a5e1bba5c897e60d"),
        (0x80400000, 110592, "9b4671ba186525077295dbdb7c0b1e8a2526a8c84f412621a60d84dda424ebc0"),
    ],
    ("googlenet", 0.35): [
        (0x80000000, 70246, "b49bae8055956c2ca090f86eb9a172aaefb291fd2f4fa90cbdd7b8b0dc76500d"),
        (0x80400000, 38707, "cbf23cd2fb1fa48feff9a1c2f5e8a34dfd299d8a3de4a4a4a5ce72917c9f978c"),
    ],
    ("googlenet_pipeline", 1.0): [
        (0x80000000, 602112, "296e5bf31c34b37b5b859d93e1660b73e4d6e53ad0632db3b402c83dd7dbd724"),
        (0x80400000, 12288, "b33ade39e073f7f103a43f024fccff847e6bbe70f821c0698411b473e686eb13"),
        (0x80100000, 200704, "c8b8f994bc821da9c8336e06590d661afcbfc0773379d663bbd9d9cd7c792bf2"),
        (0x80500000, 110592, "b3548986705ca61f588e58c4f986a427746c6a248f91e6aed18266e7f78fd1b2"),
        (0x80200000, 602112, "719b4a9b667539eb2aed879ef337565af16ecebce9184feb66ac1592cfc4f5c2"),
        (0x80600000, 18432, "7a5eb6d1534d2a0d3e1b4a2d868c7c1cb77e1385ca10c683536976e7ae98dd6e"),
    ],
}

#: the workloads' own seeds, their neighbours, and seeds of more than one
#: and of more than four 32-bit entropy words
SEEDS = [0, 1, 0x5A17, 0x5A18, 0x900617, 0x900618, 0x9000, 0x9101,
         2**40 + 5, 2**130 + 7]
#: empty, shorter than one output, a page, and sanity3's / googlenet's input
SIZES = [0, 1, 7, 4096, 100_352, 200_704]


def test_every_workload_is_pinned():
    assert {name for name, _ in IMAGES} == set(WORKLOADS)


@pytest.mark.parametrize("name,scale", list(IMAGES))
def test_images_are_pinned(name, scale):
    trace = WORKLOADS[name](scale=scale)
    got = [(addr, len(data), hashlib.sha256(data).hexdigest())
           for addr, data in trace.mem_image]
    assert got == IMAGES[name, scale]


@pytest.mark.parametrize("seed", SEEDS, ids=hex)
def test_stream_matches_numpy(seed):
    np = pytest.importorskip("numpy")
    for nbytes in SIZES:
        expected = np.random.default_rng(seed).integers(
            0, 256, size=nbytes, dtype=np.uint8).tobytes()
        assert _stream(seed, nbytes) == expected, (seed, nbytes)


def test_negative_seed_is_refused_like_numpy():
    with pytest.raises(ValueError):
        _stream(-1, 16)
    np = pytest.importorskip("numpy")
    with pytest.raises(ValueError):
        np.random.default_rng(-1)


def test_stream_is_drawn_once_per_process():
    first = WORKLOADS["sanity3"](scale=0.2).mem_image
    again = WORKLOADS["sanity3"](base=0x9000_0000, scale=0.2).mem_image
    assert all(a[1] is b[1] for a, b in zip(first, again))


NO_NUMPY_POINT = """
import sys
from repro.dse.sweep import measure_exec_ticks
ticks = measure_exec_ticks("sanity3", 1, "ideal", 240, 1.0)
assert ticks == 4109000, ticks
assert "numpy" not in sys.modules, "building an NVDLA point imported numpy"
"""


def test_nvdla_point_runs_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_POINT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
