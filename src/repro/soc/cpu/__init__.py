"""Timing CPU cores and the µop stream model."""
