"""Isolation for the process-wide tracing state.

Flags, the Chrome-tracer hook and the default profiler are module-level
by design (that is what makes the disabled-path check one attribute
load); every test in this directory gets them reset afterwards.
"""

import pytest

from repro.soc.simobject import startup_hooks
from repro.trace import control
from repro.trace.flags import (
    reset_flags,
    set_chrome_tracer,
    set_default_profiler,
    set_sink,
)


@pytest.fixture(autouse=True)
def _trace_isolation():
    yield
    reset_flags()
    set_chrome_tracer(None)
    set_default_profiler(None)
    set_sink(None)
    startup_hooks.clear()
    control._vcd_writers.clear()
