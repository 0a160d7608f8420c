"""Experiment harness: builders, sweeps and renderers for every table
and figure in the paper's evaluation (see DESIGN.md experiment index)."""
