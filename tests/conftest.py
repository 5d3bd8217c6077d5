"""Hypothesis draws the same examples on every run, so a failing property
test reproduces as it failed.  No DNCLAB_* variable of the calling shell
reaches a test: dnclab refuses a leftover one, so each test starts without
them, and a test that sets one still sets it itself."""

import os

import pytest
from hypothesis import settings

from dnclab import cli

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _no_dnclab_environment(monkeypatch):
    for name in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(name)
