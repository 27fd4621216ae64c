"""libsvm_load against a token-by-token reference on random, partly malformed files."""

import math
import re
import time
import warnings

import numpy as np
import pytest

from sketchguard import datagen
from sketchguard.datagen import (
    _CHUNK_CHARS,
    MAX_DENSE_ENTRIES,
    FeatureIndexRangeError,
    LibsvmParseError,
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


# Tokens where Python's int/float and numpy's C parser could disagree, and
# text the plain-decimal gate must send to the token-by-token checker.
EDGE_TOKENS = (
    "1e3:1", "3.0:1", "+3:1", "1_0:1", "2:1_0", "2:0x10", "2:+.5", "007:1", "2:1.", "2:-0",
    "2:1e-320", "2:1e999", "2:.", "2:1e", "2:1.2.3", "３:1", "2:５", "99999999999999999999:1",
)
EDGE_LABELS = ("nan", "inf", "-inf", "1e999", "1_0", "+.5", "３", "0x1", ".")
EDGE_SEPARATORS = (" ", "\t", "\x0c", "\xa0", "\x0b", "\x85")
NEWLINES = ("\n", "\r\n", "\r")


def reference_load(path, expected_features):
    """Reference: lines as Python reads them, every token checked in order.

    Returns ``(error class, line_no)`` for a rejected file, ``ValueError`` when
    the dense matrix would pass the entry cap, else the dense array.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.split():
                continue
            try:
                float(line.split()[0])
            except ValueError:
                return MalformedTokenError, line_no
            parsed = token_by_token(line, expected_features)
            if not isinstance(parsed, list):
                return parsed, line_no
            rows.append(parsed)
    if not rows:
        return LibsvmParseError, 0
    cols = expected_features or max((r[-1][0] for r in rows if r), default=0)
    if cols < 1:
        return LibsvmParseError, 0
    if len(rows) * cols > MAX_DENSE_ENTRIES:
        return ValueError
    want = np.zeros((len(rows), cols))
    for r, entries in enumerate(rows):
        for idx, val in entries:
            want[r, idx - 1] = val
    return want


def assert_loads_like_the_reference(path, expected_features):
    want = reference_load(path, expected_features)
    if isinstance(want, np.ndarray):
        got = libsvm_load(path, expected_features).array
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return
    cls, line_no = want if isinstance(want, tuple) else (want, None)
    with pytest.raises(cls) as exc:
        libsvm_load(path, expected_features)
    assert type(exc.value) is cls
    assert getattr(exc.value, "line_no", None) == line_no


@pytest.mark.parametrize("expected_features", [None, 10])
@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_edge_token_matches_the_reference(tmp_path, token, expected_features):
    path = tmp_path / "edge.txt"
    path.write_text(f"1 1:0.5\n-1 {token} 5:2\n1 3:1\n", encoding="utf-8")
    assert_loads_like_the_reference(path, expected_features)


@pytest.mark.parametrize("label", EDGE_LABELS)
def test_edge_label_matches_the_reference(tmp_path, label):
    path = tmp_path / "label.txt"
    path.write_text(f"1 1:0.5\n{label} 2:1\n", encoding="utf-8")
    assert_loads_like_the_reference(path, None)


@pytest.mark.parametrize("sep", EDGE_SEPARATORS[1:], ids=repr)
def test_unicode_and_control_separators_match_the_reference(tmp_path, sep):
    path = tmp_path / "sep.txt"
    path.write_text(f"1{sep}1:0.5{sep}3:2\n-1 2:1{sep}\n", encoding="utf-8")
    assert_loads_like_the_reference(path, None)


def test_blank_lines_in_a_token_checked_chunk_are_skipped(tmp_path):
    # the \xa0 separator keeps this chunk off the bulk path
    path = tmp_path / "blank.txt"
    path.write_text("1\xa01:0.5\n\n \xa0\t\n-1 2:1\n\n", encoding="utf-8")
    assert_loads_like_the_reference(path, None)
    assert libsvm_load(path).array.tolist() == [[0.5, 0.0], [0.0, 1.0]]


def test_lone_carriage_return_ends_a_line(tmp_path):
    path = tmp_path / "cr.txt"
    path.write_bytes(b"1 1:2.0\r-1 2:3.0\r1 x\n")
    with pytest.raises(MalformedTokenError) as exc:
        libsvm_load(path)
    assert exc.value.line_no == 3
    path.write_bytes(b"1 1:2.0\r-1 2:3.0\r")
    assert libsvm_load(path).array.tolist() == [[2.0, 0.0], [0.0, 3.0]]


def test_huge_index_hits_the_dense_cap_after_the_whole_file(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1 99999999999999999999:1\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        libsvm_load(path)
    assert str(exc.value) == (
        f"dense matrix of 1x99999999999999999999 exceeds the {MAX_DENSE_ENTRIES} entry cap"
    )
    with pytest.raises(FeatureIndexRangeError) as exc:
        libsvm_load(path, expected_features=10)
    assert exc.value.line_no == 1
    # parsing goes on in file order: errors on the same or a later line win
    path.write_text("1 99999999999999999999:1 5:1\n", encoding="utf-8")
    with pytest.raises(NonIncreasingIndexError) as exc:
        libsvm_load(path)
    assert exc.value.line_no == 1
    path.write_text("1 99999999999999999999:1\n1 2:1\n1 x\n", encoding="utf-8")
    with pytest.raises(MalformedTokenError) as exc:
        libsvm_load(path)
    assert exc.value.line_no == 3


def edge_line(rng) -> str:
    tokens = random_line(rng).split(" ")
    for _ in range(int(rng.integers(0, 2))):
        tokens.insert(int(rng.integers(1, len(tokens) + 1)), str(rng.choice(EDGE_TOKENS)))
    if rng.random() < 0.05:
        tokens[0] = str(rng.choice(EDGE_LABELS))
    seps = [str(rng.choice(EDGE_SEPARATORS)) if rng.random() < 0.1 else " " for _ in tokens]
    return "".join(s + t for s, t in zip(seps, tokens)).removeprefix(" ")


@pytest.fixture(params=["as compiled", "without possessive quantifiers"])
def grammar(request, monkeypatch):
    # Python 3.10 compiles the plain-decimal grammar without possessive
    # quantifiers; both forms must accept exactly the same text, equally fast
    if request.param != "as compiled":
        pattern = re.sub(r"([+*?])\+", r"\1", datagen._PLAIN.pattern)
        monkeypatch.setattr(datagen, "_PLAIN", re.compile(pattern))


@pytest.mark.parametrize("expected_features", [None, 10])
def test_edge_text_matches_the_reference(tmp_path, grammar, expected_features):
    rng = np.random.default_rng(2027)
    path = tmp_path / "edge.txt"
    for _ in range(300):
        lines = [edge_line(rng) for _ in range(int(rng.integers(1, 6)))]
        text = "".join(line + str(rng.choice(NEWLINES)) for line in lines)
        path.write_text(text[: -1 if rng.random() < 0.2 else None], encoding="utf-8", newline="")
        assert_loads_like_the_reference(path, expected_features)



def test_a_line_failing_late_is_rejected_in_linear_time(tmp_path, grammar):
    # a grammar in which "255" could split two ways would backtrack through
    # 3^200 splits of this line before giving it up
    path = tmp_path / "late.txt"
    path.write_text("1 " + " ".join(f"{i}:255" for i in range(1, 201)) + " x\n")
    start = time.perf_counter()
    with pytest.raises(MalformedTokenError) as exc:
        libsvm_load(path)
    assert exc.value.line_no == 1
    assert time.perf_counter() - start < 1.0

def plain_lines(rng, count: int) -> list[str]:
    lines = []
    for _ in range(count):
        idx = np.sort(rng.choice(40, 6, replace=False)) + 1
        vals = rng.standard_normal(6)
        lines.append("1 " + " ".join(f"{i}:{v:.17g}" for i, v in zip(idx, vals)))
    return lines


def test_files_longer_than_a_chunk_name_the_exact_bad_line(tmp_path):
    rng = np.random.default_rng(2028)
    lines = plain_lines(rng, 5000)
    path = tmp_path / "long.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert path.stat().st_size > 3 * _CHUNK_CHARS
    assert_loads_like_the_reference(path, None)
    middle, last = 2713, len(lines)
    for bad_lines in ([last], [middle], [middle, last]):
        broken = list(lines)
        for no in bad_lines:
            broken[no - 1] = broken[no - 1].replace(" ", " 0:1 ", 1)
        path.write_text("\n".join(broken) + "\n", encoding="utf-8")
        with pytest.raises(MalformedTokenError) as exc:
            libsvm_load(path)
        assert exc.value.line_no == bad_lines[0]


def test_plain_file_loads_without_warnings(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("\n".join(plain_lines(np.random.default_rng(2029), 50)) + "\n\n  \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert libsvm_load(path).rows == 50


@pytest.fixture
def bulk_only(monkeypatch):
    def no_checker(*args):
        raise AssertionError("a line went to the token-by-token checker")

    monkeypatch.setattr(datagen, "_parse_line", no_checker)


def test_plain_file_never_reaches_the_token_checker(tmp_path, bulk_only):
    path = tmp_path / "plain.txt"
    lines = plain_lines(np.random.default_rng(2030), 3000)
    path.write_text("\r\n".join(lines) + "\r\n\r\n\t\r\n", encoding="utf-8")
    assert libsvm_load(path).array.tobytes() == reference_load(path, None).tobytes()


def test_a_chunk_of_blank_lines_stays_on_the_bulk_path(tmp_path, bulk_only):
    # a chunk of whitespace alone holds no numbers, which the bulk path reads as none
    path = tmp_path / "blank.txt"
    path.write_text("1 1:1\n" + " \n" * (2 * _CHUNK_CHARS) + "-1 2:2\n", encoding="utf-8")
    assert libsvm_load(path).array.tolist() == [[1.0, 0.0], [0.0, 2.0]]


# Plain decimals the grammar gate passes to the bulk reader: signs, a leading
# or trailing ".", signed exponents, 17 digits and the ends of the float range.
PLAIN_DECIMALS = (
    "0", "-0", "+0.", "-0.0", ".5", "-.5", "+.5", "5.", "-5.", "+5.", "1e5", "1E+5", "-2.5e-3",
    "+7.25E-07", ".5e+2", "-5.e-1", "0.12345678901234567", "12345678901234567",
    "1e-320", "-1e-320", "4.9e-324", "-4.9e-324", "2.2250738585072014e-308",
    "1.7976931348623157e308", "-1.7976931348623157E+308",
)


def test_bulk_values_equal_float_bit_for_bit(tmp_path, bulk_only):
    rng = np.random.default_rng(2031)
    scaled = rng.standard_normal(9000) * 10.0 ** rng.integers(-300, 300, 9000)
    tokens = list(PLAIN_DECIMALS) * 40 + [f"{v:.17g}" for v in scaled]
    rng.shuffle(tokens)
    lines, want = [], np.zeros((len(tokens) // 6, 8))
    for r in range(want.shape[0]):
        vals = tokens[6 * r : 6 * r + 6]
        idx = np.sort(rng.choice(8, 6, replace=False)) + 1
        label = str(rng.choice(PLAIN_DECIMALS))
        lines.append(" ".join([label] + [f"{i}:{v}" for i, v in zip(idx, vals)]))
        want[r, idx - 1] = [float(v) for v in vals]
    path = tmp_path / "decimals.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert path.stat().st_size > 3 * _CHUNK_CHARS
    assert libsvm_load(path, expected_features=8).array.tobytes() == want.tobytes()


def test_bulk_indices_up_to_2_53_minus_1_are_exact(tmp_path, bulk_only):
    rng = np.random.default_rng(2032)
    top = 2**53 - 1
    rows = [sorted({int(i) for i in rng.integers(1, top, 5)} | {top}) for _ in range(200)]
    chunk = "".join(" ".join(["1"] + [f"{i}:1" for i in row]) + "\n" for row in rows)
    count, row, idx, val = datagen._parse_plain(chunk, chunk.split("\n")[:-1], None)
    assert count == 200 and idx.tolist() == [i for r in rows for i in r]
    # from 2^53 on, a float cannot tell neighbouring indices apart
    assert datagen._parse_plain(f"1 {top + 1}:1\n", [f"1 {top + 1}:1"], None) is None
    path = tmp_path / "top.txt"
    path.write_text(f"1 1:1 {top}:2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"dense matrix of 1x{top} exceeds"):
        libsvm_load(path)
