"""Outputs match the pinned reference file at every thread setting.

The file is written by ``make_reference.py``; see its docstring.
"""

import json

import numpy as np
import pytest

import make_reference
from sketchguard.parallel import ENV_VAR
from sketchguard.sketch import SketchKind

REFERENCE = json.loads(make_reference.PATH.read_text(encoding="utf-8"))


def assert_close(got, want, where: str):
    np.testing.assert_allclose(np.asarray(got), np.asarray(want), rtol=1e-9, atol=0, err_msg=where)


@pytest.mark.parametrize("kind", list(SketchKind), ids=[k.value for k in SketchKind])
@pytest.mark.parametrize("threads", [None, "1", "2"], ids=["unset", "1", "2"])
def test_kind_outputs_match_the_reference(monkeypatch, threads, kind):
    if threads is None:
        monkeypatch.delenv(ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(ENV_VAR, threads)
    got, want = make_reference.kind_values(kind), REFERENCE["kinds"][kind.value]
    assert got.keys() == want.keys()
    for name in ("experiment", "coverage", "oracle", "sketch"):
        assert_close(got[name], want[name], name)
    assert got["bootstrap"].keys() == want["bootstrap"].keys()
    for scheme, samples in want["bootstrap"].items():
        assert_close(got["bootstrap"][scheme], samples, f"bootstrap {scheme}")


def test_libsvm_parse_matches_the_reference():
    assert_close(make_reference.libsvm_values(), REFERENCE["libsvm"], "libsvm")
