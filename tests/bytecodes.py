"""Counting, not timing: the bytecodes generated RTL code runs, for the
pins that keep the generated text from growing back."""

from __future__ import annotations

import sys

import pytest

#: CPython 3.11 compiles the generated code to the bytecodes counted
PINNED_PYTHON = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="bytecode counts are pinned on CPython 3.11; another "
           "interpreter compiles the generated code to other bytecode",
)


def generated_bytecodes(call, where=lambda code: code.co_filename
                        .startswith("<codegen:")) -> int:
    """Bytecodes *call* runs inside code objects *where* selects (by
    default all generated code)."""
    count = 0

    def trace(frame, event, arg):
        if not where(frame.f_code):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    def opcode(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcode

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(outer)
    return count
