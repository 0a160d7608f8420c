"""On-chip interconnect: the coherent crossbar."""
