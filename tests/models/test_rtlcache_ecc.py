"""Parity-protected RTL cache configuration (``ECC``): a single-bit
upset in the data or parity store becomes a detected-and-corrected
refetch, never silent corruption.  This is the hardened endpoint the
fault campaign compares against the plain cache."""

import pytest

from repro.models.rtlcache import (
    RTLCACHE_ECC_OUTPUT,
    RTLCACHE_OUTPUT,
    RTLCacheECCSharedLibrary,
    load_rtl_cache_source,
)


@pytest.fixture
def lib():
    lib = RTLCacheECCSharedLibrary(idxw=4, backend="interp")
    lib.reset()
    return lib


def tick(lib, **fields):
    return lib.output_spec.unpack(lib.tick(lib.input_spec.pack(**fields)))


WORDS = [0xA5A5_0000_0000_0000 + i for i in range(8)]


def fill_line(lib, addr, words=WORDS):
    out = tick(lib, req_valid=1, req_addr=addr)
    assert out["miss_valid"] == 1
    return tick(lib, req_valid=1, req_addr=addr, fill_valid=1,
                fill_data=words)


def corrupt_word(lib, addr, word, bit):
    """Flip one stored data bit of the line holding *addr*."""
    index = (addr >> 6) & (lib.lines - 1)
    line = lib.sim.peek_mem("data", index)
    lib.sim.poke_mem("data", index, line ^ (1 << (64 * word + bit)))


class TestEccBehaviour:
    def test_source_is_real_verilog(self):
        src = load_rtl_cache_source()
        assert "module rtl_cache" in src
        assert "parameter ECC = 0" in src and "corrections" in src

    def test_output_spec_extends_plain_cache(self):
        plain = {f.name for f in RTLCACHE_OUTPUT.fields}
        ecc = {f.name for f in RTLCACHE_ECC_OUTPUT.fields}
        assert ecc == plain | {"corrections"}

    def test_clean_hits_count_no_corrections(self, lib):
        out = fill_line(lib, 0x1040)
        assert out["resp_rdata"] == WORDS[0]
        for w in range(8):
            out = tick(lib, req_valid=1, req_addr=0x1040 + 8 * w)
            assert out["resp_was_hit"] == 1
            assert out["resp_rdata"] == WORDS[w]
        assert out["corrections"] == 0

    def test_data_upset_is_detected_and_corrected(self, lib):
        fill_line(lib, 0x1040)
        corrupt_word(lib, 0x1040, word=2, bit=17)
        # the poisoned read does not serve data: it refetches the line
        out = tick(lib, req_valid=1, req_addr=0x1040 + 8 * 2)
        assert out["resp_valid"] == 0
        assert out["miss_valid"] == 1
        assert out["corrections"] == 1
        # memory (write-through authoritative) supplies the truth
        out = tick(lib, req_valid=1, req_addr=0x1040 + 8 * 2,
                   fill_valid=1, fill_data=WORDS)
        assert out["resp_valid"] == 1
        assert out["resp_rdata"] == WORDS[2]
        # the refetch rewrote data + parity: subsequent hits are clean
        out = tick(lib, req_valid=1, req_addr=0x1040 + 8 * 2)
        assert out["resp_was_hit"] == 1
        assert out["resp_rdata"] == WORDS[2]
        assert out["corrections"] == 1

    def test_parity_store_upset_also_corrects(self, lib):
        fill_line(lib, 0x2000)
        index = (0x2000 >> 6) & (lib.lines - 1)
        par = lib.sim.peek_mem("par", index)
        lib.sim.poke_mem("par", index, par ^ (1 << 5))  # word 5's bit
        out = tick(lib, req_valid=1, req_addr=0x2000 + 8 * 5)
        assert out["resp_valid"] == 0 and out["miss_valid"] == 1
        out = tick(lib, req_valid=1, req_addr=0x2000 + 8 * 5,
                   fill_valid=1, fill_data=WORDS)
        assert out["resp_rdata"] == WORDS[5]
        assert out["corrections"] == 1

    def test_other_words_unaffected_by_upset(self, lib):
        fill_line(lib, 0x3000)
        corrupt_word(lib, 0x3000, word=1, bit=0)
        out = tick(lib, req_valid=1, req_addr=0x3000 + 8 * 4)
        assert out["resp_was_hit"] == 1
        assert out["resp_rdata"] == WORDS[4]
        assert out["corrections"] == 0

    def test_write_hit_updates_parity(self, lib):
        fill_line(lib, 0x4000)
        tick(lib, req_valid=1, req_write=1, req_addr=0x4010,
             req_wdata=0xFEED)
        out = tick(lib, req_valid=1, req_addr=0x4010)
        assert out["resp_rdata"] == 0xFEED
        assert out["corrections"] == 0  # parity followed the write

    def test_backends_agree_on_correction_flow(self):
        libs = [RTLCacheECCSharedLibrary(idxw=4, backend=b)
                for b in ("interp", "codegen")]
        outs = []
        for lib in libs:
            lib.reset()
            fill_line(lib, 0x1040)
            corrupt_word(lib, 0x1040, word=3, bit=40)
            seq = [tick(lib, req_valid=1, req_addr=0x1040 + 8 * 3)]
            seq.append(tick(lib, req_valid=1, req_addr=0x1040 + 8 * 3,
                            fill_valid=1, fill_data=WORDS))
            seq.append(tick(lib, req_valid=1, req_addr=0x1040 + 8 * 3))
            outs.append(seq)
        assert outs[0] == outs[1]
