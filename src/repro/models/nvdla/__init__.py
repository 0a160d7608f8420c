"""NVDLA use case (paper §4.2): engine, wrapper, RTLObject, traces, host."""
