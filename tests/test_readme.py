"""The README's exit-code table and Python examples, checked against the package."""

import re
from pathlib import Path

import numpy as np
import pytest

from sketchguard import cli
from sketchguard.cli import CSV_HEADER, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def exit_code_table() -> dict[int, str]:
    """The README's exit-code rows, code to meaning."""
    rows = re.findall(r"^\| (\d+) \| (.+) \|$", README, flags=re.MULTILINE)
    assert rows, "README has no exit-code table"
    return {int(code): meaning for code, meaning in rows}


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


class TestExitCodeTable:
    def test_codes_match_the_cli_and_its_docstring(self):
        documented = cli.__doc__.split("Exit codes:")[1]
        docstring_codes = {int(c) for c in re.findall(r"[:,]\s+(\d)\s+[a-z]", ": " + documented)}
        assert set(exit_code_table()) == {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC}
        assert docstring_codes == set(exit_code_table())

    # One cause per code, named as the table names it, run through main.
    @pytest.mark.parametrize(
        "code, cause, argv",
        [
            (EXIT_OK, "success", ["plan", "--t0", "500", "--qhat", "0.2", "--epsilon", "0.05"]),
            (EXIT_USAGE, "a bootstrap of a one-row sketch",
             ["bootstrap", "--synth", "64,8,high", "--kind", "gaussian", "--t0", "1"]),
            (EXIT_DATA, "a malformed LIBSVM file",
             ["sketch", "--data", "{bad}", "--kind", "srht", "--t0", "4", "--out", "{out}"]),
            (EXIT_NUMERIC, "`ZeroMatrixError`",
             ["sketch", "--data", "{zero}", "--kind", "gaussian", "--out", "{out}"]),
        ],
        ids=["ok", "one-row-bootstrap", "malformed-libsvm", "zero-matrix"],
    )
    def test_a_named_cause_returns_its_code(self, capsys, tmp_path, code, cause, argv):
        assert cause in exit_code_table()[code]
        files = {"bad": "1 1:0.5\n1 x\n", "zero": "1 1:0\n"}
        for name, text in files.items():
            (tmp_path / f"{name}.svm").write_text(text, encoding="utf-8")
        paths = {name: str(tmp_path / f"{name}.svm") for name in files}
        assert main([arg.format(out=tmp_path / "p.npz", **paths) for arg in argv]) == code
        capsys.readouterr()


class TestPythonExamples:
    def test_quick_start_and_run_experiment_blocks_run(self, capsys, monkeypatch, tmp_path):
        quick_start, experiment = python_blocks()
        monkeypatch.chdir(tmp_path)  # the second block writes curve.csv
        namespace = {}
        exec(compile(quick_start, "README.md (quick start)", "exec"), namespace)
        est = namespace["est"]
        assert est.t0 == 256 and est.value > 0
        assert namespace["approx"].shape == (80, 80)
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == str(namespace["sg"].plan_sketch_size(est, epsilon=0.05))
        assert int(printed[-1]) < namespace["a"].rows  # a plan, not more rows than the data

        exec(compile(experiment, "README.md (run_experiment)", "exec"), namespace)
        result = namespace["result"]
        assert result.curve.ts == (40, 80, 160)
        lines = (tmp_path / "curve.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 4
        assert capsys.readouterr().out == f"{result.coverage}\n"
        assert all(0.0 <= c <= 1.0 for c in result.coverage)
        assert np.isfinite(result.est_mean).all()
