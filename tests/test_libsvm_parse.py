"""libsvm_load against a token-by-token reference on random, partly malformed files."""

import math

import numpy as np
import pytest

from sketchguard.datagen import (
    FeatureIndexRangeError,
    MalformedTokenError,
    NonIncreasingIndexError,
    libsvm_load,
)

DEFECTS = ("7", "x:1", "3:1:2", "4:", ":2", "0:1", "3:nan", "2:-inf", "9:1e999", "12:1")


def token_by_token(line: str, expected_features):
    """Reference: each token checked in order; the error class or the entries."""
    entries, prev = [], 0
    for tok in line.split()[1:]:
        idx_str, sep, val_str = tok.partition(":")
        if not sep:
            return MalformedTokenError
        try:
            idx, val = int(idx_str), float(val_str)
        except ValueError:
            return MalformedTokenError
        if idx < 1 or not math.isfinite(val):
            return MalformedTokenError
        if idx <= prev:
            return NonIncreasingIndexError
        if expected_features is not None and idx > expected_features:
            return FeatureIndexRangeError
        prev = idx
        entries.append((idx, val))
    return entries


def random_line(rng) -> str:
    idx = np.sort(rng.choice(10, int(rng.integers(0, 6)), replace=False)) + 1
    tokens = [f"{i}:{v:.3g}" for i, v in zip(idx, rng.standard_normal(idx.size))]
    for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.3 else 0):
        tokens.insert(int(rng.integers(0, len(tokens) + 1)), str(rng.choice(DEFECTS)))
    if len(tokens) > 1 and rng.random() < 0.1:
        tokens[0], tokens[1] = tokens[1], tokens[0]
    return " ".join(["1"] + tokens)


@pytest.mark.parametrize("expected_features", [None, 10])
def test_first_bad_token_and_entries_match_the_reference(tmp_path, expected_features):
    rng = np.random.default_rng(2026)
    path = tmp_path / "lines.txt"
    errors = 0
    for _ in range(300):
        lines = [random_line(rng) for _ in range(int(rng.integers(1, 6)))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        parsed = [token_by_token(line, expected_features) for line in lines]
        bad = [i for i, p in enumerate(parsed) if not isinstance(p, list)]
        if bad:
            errors += 1
            with pytest.raises(parsed[bad[0]]) as exc:
                libsvm_load(path, expected_features)
            assert exc.value.line_no == bad[0] + 1
            continue
        cols = expected_features or max((p[-1][0] for p in parsed if p), default=0)
        if cols == 0:
            continue
        want = np.zeros((len(lines), cols))
        for r, entries in enumerate(parsed):
            for idx, val in entries:
                want[r, idx - 1] = val
        assert np.array_equal(libsvm_load(path, expected_features).array, want)
    assert 50 < errors < 250
