"""Workload generators: µop streams for the host cores."""
