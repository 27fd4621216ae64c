"""Thread-cap environment variable handling."""

import os

import pytest

from sketchguard.parallel import ENV_VAR, thread_cap


@pytest.mark.parametrize("raw,want", [("", 1), ("0", None), ("3", 3)])
def test_thread_cap_values(monkeypatch, raw, want):
    monkeypatch.setenv(ENV_VAR, raw)
    assert thread_cap() == (want if want is not None else os.cpu_count() or 1)


def test_unset_thread_cap_is_one_worker(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert thread_cap() == 1


@pytest.mark.parametrize("raw,message", [
    ("abc", "SKETCHGUARD_THREADS must be an integer, got 'abc'"),
    ("-2", "SKETCHGUARD_THREADS must be nonnegative, got -2"),
])
def test_invalid_thread_cap_names_the_variable(monkeypatch, raw, message):
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(ValueError) as info:
        thread_cap()
    assert str(info.value) == message
