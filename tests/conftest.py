"""Hypothesis draws the same examples on every run, so a failing property
test reproduces as it failed."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
