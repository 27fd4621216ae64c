"""Command-line surface tests: subcommands, exit codes, CSV output, options files."""

from functools import partial

import numpy as np
import pytest

from sketchguard import cli, oracle
from sketchguard.booterr import BootstrapConfig, BootstrapScheme, bootstrap_quantile
from sketchguard.cli import (
    CSV_HEADER,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_USAGE,
    default_t_grid,
    load_pair,
    main,
    run_experiment,
    save_pair,
    write_curve_csv,
)
from sketchguard.datagen import RankMode, SynthProfile, synth_matrix
from sketchguard.matcore import DenseMatrix
from sketchguard.parallel import ENV_VAR, openblas_threads
from sketchguard.rng import derive_seed
from sketchguard.sketch import SketchKind, SketchSpec, apply_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def logged_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]


class TestPlanCommand:
    def test_worked_example(self, capsys):
        code, out = run_cli(
            capsys, "plan", "--t0", "500", "--qhat", "0.2", "--epsilon", "0.05"
        )
        assert code == 0
        assert "t = 8000" in out

    def test_zero_estimate(self, capsys):
        code, out = run_cli(capsys, "plan", "--t0", "10", "--qhat", "0", "--epsilon", "0.1")
        assert code == 0
        assert "t = 1" in out

    def test_budget_ratio_printed(self, capsys):
        import math

        code, out = run_cli(
            capsys, "plan", "--t0", "500", "--qhat", "0.2", "--epsilon", "0.05",
            "--boot-samples", "20", "--n", "30000", "--d", "1000",
        )
        assert code == 0
        ratio = float(out.split("budget_ratio =")[1].strip())
        # the ratio is evaluated at the planned size t = 8000
        want = 20 / (8000 / 500 + 30000 * math.log(8000) / (1000 * 500))
        assert ratio == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("n, warned", [(25000, True), (25001, False)], ids=["t-is-n", "t-below-n"])
    def test_planned_size_not_below_the_source_rows_warns(self, capsys, caplog, n, warned):
        code, out = run_cli(
            capsys, "plan", "--t0", "10", "--qhat", "0.5", "--epsilon", "0.01",
            "--n", str(n), "--d", "5",
        )
        assert code == 0
        assert out.startswith("t = 25000\nbudget_ratio = ")
        want = f"t = 25000 is not below the {n} source rows: sketching saves nothing"
        assert logged_warnings(caplog) == ([want] if warned else [])

    def test_missing_required_flag(self, capsys):
        code, _ = run_cli(capsys, "plan", "--t0", "500", "--epsilon", "0.05")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [("--n", "30000"), ("--d", "1000")])
    def test_budget_size_alone_is_usage_error_naming_both(self, capsys, caplog, flag, value):
        code, out = run_cli(
            capsys, "plan", "--t0", "500", "--qhat", "0.2", "--epsilon", "0.05", flag, value
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--n" in caplog.text and "--d" in caplog.text

    @pytest.mark.parametrize(
        "qhat,epsilon,message",
        [
            ("inf", "0.05", "qhat must be a finite number, got 'inf'"),
            ("0.2", "nan", "epsilon must be a finite number, got 'nan'"),
            ("1e200", "1e-200", "is not finite"),
            ("-0.2", "0.05", "--qhat must be nonnegative, got -0.2"),
        ],
        ids=["qhat-inf", "epsilon-nan", "size-overflow", "qhat-negative"],
    )
    def test_non_finite_input_or_size_is_usage_error(self, capsys, caplog, qhat, epsilon, message):
        code, out = run_cli(
            capsys, "plan", "--t0", "10", "--qhat", qhat, "--epsilon", epsilon
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert message in caplog.text

    @pytest.mark.parametrize(
        "sizes,message",
        [
            (("--n", "0", "--d", "3"), "--n must be at least 1, got 0"),
            (("--n", "30", "--d", "0"), "--d must be at least 1, got 0"),
            (("--n", "30", "--d", "3", "--boot-samples", "0"),
             "--boot-samples must be at least 1, got 0"),
        ],
        ids=["n-zero", "d-zero", "boot-samples-zero"],
    )
    def test_budget_size_below_one_is_usage_error_naming_the_flag(
        self, capsys, caplog, sizes, message
    ):
        code, out = run_cli(
            capsys, "plan", "--t0", "5", "--qhat", "0.2", "--epsilon", "0.05", *sizes
        )
        assert code == EXIT_USAGE
        assert out == ""  # no planned size is printed before the ratio fails
        assert message in caplog.text


class TestSketchAndBootstrapCommands:
    def test_sketch_writes_loadable_pair(self, tmp_path, capsys):
        out = tmp_path / "pair.npz"
        code, _ = run_cli(
            capsys, "sketch", "--synth", "64,8,high", "--kind", "srht",
            "--t0", "8", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        pair = load_pair(out)
        assert pair.t == 8
        assert pair.spec.kind is SketchKind.SRHT
        assert pair.source_rows == 64

    def test_bootstrap_on_stored_pair_matches_library(self, tmp_path, capsys):
        out = tmp_path / "pair.npz"
        run_cli(
            capsys, "sketch", "--synth", "64,8,high", "--kind", "gaussian",
            "--t0", "8", "--seed", "5", "--out", str(out),
        )
        code, text = run_cli(
            capsys, "bootstrap", "--pair", str(out), "--boot-samples", "10",
            "--alpha", "0.1", "--seed", "9",
        )
        assert code == 0
        printed = float(text.split("q_hat(8) =")[1].split()[0])
        pair = load_pair(out)
        est = bootstrap_quantile(pair, BootstrapConfig("multiplier", 10, 0.1, 9))
        assert printed == pytest.approx(est.value, rel=1e-8)

    def test_bootstrap_extrapolation_table(self, tmp_path, capsys):
        pair_file = tmp_path / "pair.npz"
        run_cli(
            capsys, "sketch", "--synth", "64,8,high", "--kind", "gaussian",
            "--t0", "8", "--seed", "5", "--out", str(pair_file),
        )
        csv_file = tmp_path / "ext.csv"
        code, text = run_cli(
            capsys, "bootstrap", "--pair", str(pair_file), "--boot-samples", "10",
            "--alpha", "0.1", "--seed", "9", "--t-grid", "16,32",
            "--out", str(csv_file),
        )
        assert code == 0
        assert "q_ext(16)" in text and "q_ext(32)" in text
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "t,q_ext"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "low, line, warned",
        [(2, "q_ext(2) = 1.24172505", True), (4, "q_ext(4) = 0.878032201", False)],
        ids=["below", "from"],
    )
    def test_bootstrap_grid_below_t0_warns_and_prints_the_same(self, capsys, caplog, low, line, warned):
        code, out = run_cli(
            capsys, "bootstrap", "--synth", "256,8,high", "--kind", "gaussian", "--seed", "1",
            "--t-grid", f"{low},16",
        )
        assert code == 0
        assert out == f"q_hat(4) = 0.878032201\n{line}\nq_ext(16) = 0.439016101\n"
        want = "t_grid contains sizes below t0=4; extrapolation there runs backwards"
        assert logged_warnings(caplog) == ([want] if warned else [])

    @pytest.mark.parametrize(
        "t0, line, warned",
        [(300, "q_hat(300) = 0.094036518", True), (64, "q_hat(64) = 0.215158645", True),
         (63, "q_hat(63) = 0.204955519", False)],
        ids=["above", "at", "below"],
    )
    def test_bootstrap_t0_not_below_the_rows_warns_and_prints_the_same(
        self, capsys, caplog, t0, line, warned
    ):
        code, out = run_cli(
            capsys, "bootstrap", "--synth", "64,4,high", "--kind", "length",
            "--t0", str(t0), "--seed", "1",
        )
        assert code == 0
        assert out == line + "\n"
        want = f"t = {t0} is not below the 64 source rows: sketching saves nothing"
        assert logged_warnings(caplog) == ([want] if warned else [])

    @pytest.mark.parametrize(
        "t0, line, warned",
        [(64, "q_hat(64) = 0.667599407", True), (63, "q_hat(63) = 0.607037399", False)],
        ids=["at", "below"],
    )
    def test_sketch_t0_not_below_the_rows_warns_and_writes_the_same(
        self, capsys, caplog, tmp_path, t0, line, warned
    ):
        f = tmp_path / "p.npz"
        code, out = run_cli(
            capsys, "sketch", "--synth", "64,4,high", "--kind", "uniform",
            "--t0", str(t0), "--seed", "1", "--out", str(f),
        )
        assert code == 0
        assert out == f"wrote {f}: kind=uniform t={t0} from 64x4\n"
        want = f"t = {t0} is not below the 64 source rows: sketching saves nothing"
        assert logged_warnings(caplog) == ([want] if warned else [])
        caplog.clear()  # the stored pair's own t and source_rows go through the same check
        code, out = run_cli(capsys, "bootstrap", "--pair", str(f))
        assert code == 0
        assert out == line + "\n"
        assert logged_warnings(caplog) == ([want] if warned else [])

    def test_pair_roundtrip_preserves_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        m = DenseMatrix(rng.standard_normal((16, 3)))
        pair = apply_spec(m, m, SketchSpec(SketchKind.LENGTH_SAMPLE, 4, 77))
        f = tmp_path / "p.npz"
        save_pair(f, pair)
        loaded = load_pair(f)
        assert loaded.a_sketch == pair.a_sketch
        assert loaded.b_sketch == pair.b_sketch
        assert loaded.spec == pair.spec
        assert loaded.source_rows == pair.source_rows

    @pytest.mark.parametrize("kind", list(SketchKind))
    def test_stored_one_matrix_pair_loads_shared_and_bootstraps_alike(self, tmp_path, kind):
        # d = 48 scores a one-matrix pair over three row groups, unlike a pair of two
        m = DenseMatrix(np.random.default_rng(3).standard_normal((200, 48)))
        pair = apply_spec(m, m, SketchSpec(kind, 40, 7))
        f = tmp_path / "p.npz"
        save_pair(f, pair)
        loaded = load_pair(f)
        assert loaded.b_sketch is loaded.a_sketch
        for scheme in BootstrapScheme:
            cfg = BootstrapConfig(scheme, 30, 0.05, 11)
            assert bootstrap_quantile(loaded, cfg).samples == bootstrap_quantile(pair, cfg).samples

    def test_stored_pair_of_two_matrices_loads_two(self, tmp_path):
        rng = np.random.default_rng(4)
        a, b = (DenseMatrix(rng.standard_normal((50, 4))) for _ in range(2))
        f = tmp_path / "p.npz"
        save_pair(f, apply_spec(a, b, SketchSpec(SketchKind.GAUSSIAN, 6, 1)))
        loaded = load_pair(f)
        assert loaded.b_sketch is not loaded.a_sketch
        assert loaded.b_sketch != loaded.a_sketch

    def test_pair_is_written_at_the_given_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            capsys, "sketch", "--synth", "64,8,high", "--kind", "uniform", "--out", "p.bin"
        )
        assert code == 0 and out.startswith("wrote p.bin: ")
        assert not (tmp_path / "p.bin.npz").exists()
        code, out = run_cli(capsys, "bootstrap", "--pair", "p.bin", "--seed", "2")
        assert code == 0 and out.startswith("q_hat(4) = ")


class TestOracleCommand:
    def test_writes_four_column_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _ = run_cli(
            capsys, "oracle", "--synth", "64,8,high", "--kind", "uniform",
            "--t-grid", "4,8", "--alpha", "0.1", "--reps", "30",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "t,oracle_q,oracle_lo,oracle_hi"
        assert len(lines) == 3
        for line in lines[1:]:
            t, q, lo, hi = line.split(",")
            assert float(lo) <= float(hi)
            assert float(q) >= 0.0

    def test_without_out_writes_the_csv_to_stdout(self, tmp_path, capsys):
        argv = ["oracle", "--synth", "64,8,high", "--kind", "uniform", "--t-grid", "4,8",
                "--reps", "10", "--seed", "3"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        run_cli(capsys, *argv, "--out", str(tmp_path / "curve.csv"))
        assert out == (tmp_path / "curve.csv").read_text()
        assert out.startswith("t,oracle_q,oracle_lo,oracle_hi\n")


class TestExperiment:
    @staticmethod
    def small_experiment(seed=4, kind=SketchKind.GAUSSIAN, **overrides):
        """run_experiment on a prebuilt 256 x 8 matrix with small-run parameters."""
        params = dict(
            t0=8, t_grid=(8, 16, 32), alpha=0.1, boot_samples=20,
            scheme=BootstrapScheme.MULTIPLIER, oracle_reps=100, estimator_reps=60, seed=seed,
        )
        matrix = synth_matrix(SynthProfile(256, 8, RankMode.HIGH, seed))
        return partial(run_experiment, matrix, kind, **{**params, **overrides})

    def test_csv_schema_and_smoke_fidelity(self, tmp_path):
        result = self.small_experiment()()
        write_curve_csv(tmp_path / "run.csv", result.rows)
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        gaps = []
        for (t, oq, olo, ohi, em, elo, ehi) in result.rows:
            assert 0.0 < olo <= ohi
            assert elo <= em <= ehi
            gaps.append(abs(em - oq) / oq)
        assert sum(gaps) / len(gaps) < 0.6

    def test_byte_reproducible(self, tmp_path):
        write_curve_csv(tmp_path / "a.csv", self.small_experiment()().rows)
        write_curve_csv(tmp_path / "b.csv", self.small_experiment()().rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("kind", list(SketchKind), ids=[k.value for k in SketchKind])
    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch, kind):
        outputs = []
        for threads in ("", "1", "2"):  # unset is the default policy
            monkeypatch.setenv("SKETCHGUARD_THREADS", threads)
            result = self.small_experiment(kind=kind)()
            write_curve_csv(tmp_path / f"run{threads}.csv", result.rows)
            outputs.append((tmp_path / f"run{threads}.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_gaussian_draws_do_not_materialize_s(self, monkeypatch):
        # oracle blocks and estimator reps draw in Gram space, from R (see oracle.pair_sampler)
        oracle_rows, estimator_rows = [], []
        real_sketch, real_increments = oracle.gaussian_sketch, oracle.gaussian_increments

        def sketch_recorder(a, b, t, seed):
            estimator_rows.append(a.rows)
            return real_sketch(a, b, t, seed)

        def increments_recorder(r_a, r_b, steps, seeds):
            oracle_rows.append(r_a.shape[0])
            return real_increments(r_a, r_b, steps, seeds)

        monkeypatch.setattr(oracle, "gaussian_sketch", sketch_recorder)
        monkeypatch.setattr(oracle, "gaussian_increments", increments_recorder)
        experiment = self.small_experiment()
        result = experiment()
        matrix, params = experiment.args[0], experiment.keywords
        assert all(row[1] > 0 and row[4] > 0 for row in result.rows)
        assert len(oracle_rows) == -(-params["oracle_reps"] // oracle.BLOCK)
        assert len(estimator_rows) == params["estimator_reps"]
        assert max(oracle_rows + estimator_rows) <= min(matrix.rows, matrix.cols)

    def test_zero_matrix_yields_zero_columns(self, tmp_path):
        result = run_experiment(
            DenseMatrix(np.zeros((32, 4))), SketchKind.GAUSSIAN, t0=4, t_grid=(4, 8),
            alpha=0.1, oracle_reps=20, estimator_reps=10, seed=1,
        )
        for row in result.rows:
            assert all(v == 0.0 for v in row[1:])
        write_curve_csv(tmp_path / "zero.csv", result.rows)
        for line in (tmp_path / "zero.csv").read_text().splitlines()[1:]:
            assert line.split(",")[1:] == ["0"] * 6

    def test_zero_matrix_is_always_covered(self):
        z = DenseMatrix(np.zeros((8, 2)))
        result = run_experiment(
            z, SketchKind.GAUSSIAN, t0=2, t_grid=(4,), alpha=0.1, boot_samples=5,
            oracle_reps=20, estimator_reps=20, seed=1,
        )
        assert result.coverage == (1.0,)

    def test_median_bound_covers_about_half(self):
        # At t = t0 the bound is the bootstrap median itself, so coverage
        # should sit near 1/2 (alpha at the top of the allowed range).
        m = synth_matrix(SynthProfile(64, 4, "high", 1))
        result = run_experiment(
            m, SketchKind.GAUSSIAN, t0=64, t_grid=(64,), alpha=0.49, boot_samples=200,
            oracle_reps=500, estimator_reps=500, seed=3,
        )
        assert abs(result.coverage[0] - 0.51) <= 0.1

    def test_experiment_command_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "cmd.csv"
        code, text = run_cli(
            capsys, "experiment", "--synth", "128,8,low", "--kind", "uniform",
            "--t0", "8", "--t-grid", "8,16", "--alpha", "0.1",
            "--boot-samples", "10", "--reps", "20", "--oracle-reps", "30",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        assert "wrote" in text
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_single_estimator_rep_collapses_percentiles(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _ = run_cli(
            capsys, "experiment", "--synth", "128,8,high", "--kind", "gaussian",
            "--t-grid", "4,8", "--alpha", "0.1", "--reps", "1", "--oracle-reps", "10",
            "--seed", "6", "--out", str(out),
        )
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            est_mean, est_lo, est_hi = line.split(",")[4:]
            assert est_lo == est_mean == est_hi

    def test_command_matches_library_on_same_synthetic_matrix(self, tmp_path, capsys):
        n, d, seed = 128, 8, 11
        code, _ = run_cli(
            capsys, "experiment", "--synth", f"{n},{d},high", "--kind", "length",
            "--t-grid", "4,8,16", "--alpha", "0.1", "--reps", "12", "--oracle-reps", "20",
            "--seed", str(seed), "--out", str(tmp_path / "cli.csv"),
        )
        assert code == 0
        result = run_experiment(
            synth_matrix(SynthProfile(n, d, "high", derive_seed(seed, 0))),
            SketchKind.LENGTH_SAMPLE, t_grid=(4, 8, 16), alpha=0.1, oracle_reps=20,
            estimator_reps=12, seed=seed,
        )
        write_curve_csv(tmp_path / "lib.csv", result.rows)
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_grid_below_t0_logs_one_warning(self, caplog):
        self.small_experiment(t_grid=(4, 8, 16), oracle_reps=10, estimator_reps=2)()
        assert logged_warnings(caplog) == [
            "t_grid contains sizes below t0=8; extrapolation there runs backwards"
        ]

    @pytest.mark.parametrize(
        "t0, estimates, warned",
        [(64, ("0.23503952,0.233308733,0.237270964", "0.166198038,0.164974187,0.167775908"), True),
         (63, ("0.181568516,0.165116771,0.202354931", "0.128388329,0.116755189,0.143086544"),
          False)],
        ids=["at", "below"],
    )
    def test_t0_not_below_the_rows_warns_and_writes_the_same(
        self, capsys, caplog, tmp_path, t0, estimates, warned
    ):
        f = tmp_path / "e.csv"
        code, out = run_cli(
            capsys, "experiment", "--synth", "64,4,high", "--kind", "length", "--t0", str(t0),
            "--t-grid", "64,128", "--oracle-reps", "10", "--reps", "3", "--seed", "1",
            "--out", str(f),
        )
        assert code == 0
        assert out == f"wrote {f}: 2 grid points, t0={t0}\n"
        assert f.read_text() == "\n".join([
            CSV_HEADER,
            f"64,0.181556221,0.061561365,0.172955889,{estimates[0]}",
            f"128,0.124290291,0.0302429499,0.12305273,{estimates[1]}",
        ]) + "\n"
        want = f"t = {t0} is not below the 64 source rows: sketching saves nothing"
        assert logged_warnings(caplog) == ([want] if warned else [])

    def test_library_call_logs_both_size_warnings(self, caplog):
        self.small_experiment(t0=256, t_grid=(4, 8, 16), oracle_reps=10, estimator_reps=2)()
        assert logged_warnings(caplog) == [
            "t = 256 is not below the 256 source rows: sketching saves nothing",
            "t_grid contains sizes below t0=256; extrapolation there runs backwards",
        ]

    def test_zero_estimator_reps_is_usage_error(self, tmp_path, capsys, caplog):
        code, out = run_cli(
            capsys, "experiment", "--synth", "64,8,high", "--kind", "uniform", "--reps", "0",
            "--out", str(tmp_path / "none.csv"),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "estimator_reps must be at least 1" in caplog.text
        assert not (tmp_path / "none.csv").exists()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            self.small_experiment(alpha=0.7)()
        with pytest.raises(ValueError, match="matrix must be a DenseMatrix"):
            run_experiment(np.ones((16, 2)), SketchKind.GAUSSIAN)

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_gaussian_experiment_factors_the_data_once(self, monkeypatch):
        experiment = self.small_experiment()
        qr_calls = self.count_calls(monkeypatch, np.linalg, "qr")
        experiment()
        assert len(qr_calls) == 1

    def test_length_experiment_weighs_the_rows_once(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")  # two workers' first draws may both weigh the rows
        experiment = self.small_experiment(kind=SketchKind.LENGTH_SAMPLE)
        einsum_calls = self.count_calls(monkeypatch, np, "einsum")
        experiment()
        matrix = experiment.args[0]
        assert sum(call[1] is matrix.array for call in einsum_calls) == 1

    def test_bad_oracle_reps_fail_before_the_data_is_factored(self, monkeypatch):
        experiment = self.small_experiment(oracle_reps=5)
        qr_calls = self.count_calls(monkeypatch, np.linalg, "qr")
        with pytest.raises(ValueError, match="at least 10 realizations"):
            experiment()
        assert qr_calls == []


class TestExitCodes:
    def test_usage_error_on_bad_kind(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "sketch", "--synth", "16,4,low", "--kind", "fourier",
            "--out", str(tmp_path / "p.npz"),
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["sketch", "oracle", "experiment"])
    def test_bad_synth_mode_reports_one_message(self, capsys, caplog, tmp_path, command):
        code, _ = run_cli(
            capsys, command, "--synth", "64,8,medium", "--kind", "gaussian",
            "--out", str(tmp_path / "x.out"),
        )
        assert code == EXIT_USAGE
        assert "synth mode must be low or high, got 'medium'" in caplog.text

    def test_help_exits_zero(self, capsys):
        code, out = run_cli(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: sketchguard")

    @pytest.mark.parametrize("command", ["sketch", "bootstrap", "oracle", "experiment"])
    def test_unwritable_out_fails_before_reading_data(self, capsys, caplog, tmp_path, command):
        bad = tmp_path / "bad.svm"
        bad.write_text("1 1:0.5\n1 x\n", encoding="utf-8")
        argv = [command, "--data", str(bad), "--kind", "srht"]
        argv += ["--t-grid", "4"] if command == "bootstrap" else []
        missing = tmp_path / "missing" / "out.csv"
        code, out = run_cli(capsys, *argv, "--out", str(missing))
        assert code == EXIT_DATA
        assert out == ""
        message = _caplog_message(caplog)
        assert str(missing) in message and "line 2" not in message
        assert not missing.parent.exists()
        caplog.clear()
        assert run_cli(capsys, *argv, "--out", str(tmp_path))[0] == EXIT_DATA
        assert f"cannot write {tmp_path}" in _caplog_message(caplog)
        # a run that fails after the check leaves an existing output file as it was
        existing = tmp_path / "existing.out"
        existing.write_bytes(b"keep")
        caplog.clear()
        code, out = run_cli(capsys, *argv, "--out", str(existing))
        assert code == EXIT_DATA
        assert "line 2" in _caplog_message(caplog)
        assert existing.read_bytes() == b"keep"
        # an empty --out names no file: a usage error, for oracle too
        caplog.clear()
        code, out = run_cli(capsys, *argv, "--out", "")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--out must name a file" in _caplog_message(caplog)

    @pytest.mark.parametrize("command", ["sketch", "bootstrap", "oracle", "experiment"])
    def test_out_inside_a_regular_file_fails_before_reading_data(
        self, capsys, caplog, tmp_path, command
    ):
        bad = tmp_path / "bad.svm"
        bad.write_text("1 1:0.5\n1 x\n", encoding="utf-8")
        argv = [command, "--data", str(bad), "--kind", "srht"]
        argv += ["--t-grid", "4"] if command == "bootstrap" else []
        inside = bad / "x.csv"  # bad.svm is a writable regular file
        code, out = run_cli(capsys, *argv, "--out", str(inside))
        assert code == EXIT_DATA
        assert out == ""
        message = _caplog_message(caplog)
        assert f"cannot write {inside}" in message and "line 2" not in message
        assert bad.read_text(encoding="utf-8") == "1 1:0.5\n1 x\n"

    def test_usage_error_on_missing_source(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "sketch", "--kind", "gaussian", "--out", str(tmp_path / "p.npz")
        )
        assert code == EXIT_USAGE

    def test_usage_error_without_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_data_error_on_missing_file(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "sketch", "--data", str(tmp_path / "nope.txt"),
            "--kind", "gaussian", "--out", str(tmp_path / "p.npz"),
        )
        assert code == EXIT_DATA

    def test_data_error_on_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 not-a-feature\n", encoding="utf-8")
        code, _ = run_cli(
            capsys, "sketch", "--data", str(bad), "--kind", "gaussian",
            "--out", str(tmp_path / "p.npz"),
        )
        assert code == EXIT_DATA

    def test_huge_feature_index_is_a_usage_error(self, capsys, caplog, tmp_path):
        huge = tmp_path / "huge.txt"
        huge.write_text("1 99999999999999999999:1\n", encoding="utf-8")
        code, out = run_cli(
            capsys, "sketch", "--data", str(huge), "--kind", "srht", "--t0", "4",
            "--seed", "1", "--out", str(tmp_path / "o.npz"),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "dense matrix of 1x99999999999999999999 exceeds the" in caplog.text

    def test_huge_libsvm_values_give_a_nonzero_curve(self, capsys, tmp_path):
        # their Gram overflows to inf unless normalization pre-scales them
        rows = np.random.default_rng(7).standard_normal((64, 8))
        data = tmp_path / "huge.txt"
        data.write_text(
            "".join("1 " + " ".join(f"{j + 1}:{v * 1e200:.17g}" for j, v in enumerate(r)) + "\n"
                    for r in rows),
            encoding="utf-8",
        )
        out = tmp_path / "huge.csv"
        code, _ = run_cli(
            capsys, "experiment", "--data", str(data), "--kind", "uniform", "--t-grid", "8,16",
            "--alpha", "0.1", "--reps", "5", "--oracle-reps", "10", "--out", str(out),
        )
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            assert all(float(v) > 0.0 for v in line.split(",")[1:])

    @staticmethod
    def overflow_data(tmp_path):
        # finite entries whose products overflow once normalization is skipped
        rows = np.random.default_rng(8).standard_normal((64, 8))
        data = tmp_path / "overflow.txt"
        data.write_text(
            "".join("1 " + " ".join(f"{j + 1}:{v * 1e160:.17g}" for j, v in enumerate(r)) + "\n"
                    for r in rows),
            encoding="utf-8",
        )
        return str(data)

    @pytest.mark.parametrize("kind", ["uniform", "srht", "gaussian", "length"])
    def test_overflow_without_normalization_is_numeric(self, capsys, caplog, tmp_path, kind):
        blas = openblas_threads()
        saved = blas[0]() if blas else None
        if blas:
            blas[1](2)  # a pooled run holds it to 1 and must restore it on this exit path too
        try:
            code, _ = run_cli(
                capsys, "experiment", "--data", self.overflow_data(tmp_path), "--no-normalize",
                "--kind", kind, "--t-grid", "8,16", "--reps", "2", "--oracle-reps", "10",
                "--out", str(tmp_path / "o.csv"),
            )
            assert not blas or blas[0]() == 2
        finally:
            if blas:
                blas[1](saved)
        assert code == EXIT_NUMERIC
        assert "numerical failure: the exact product A^T B is not finite" in caplog.text

    @pytest.mark.parametrize("kind", ["uniform", "srht", "gaussian", "length"])
    def test_overflowing_bootstrap_is_numeric(self, capsys, caplog, tmp_path, kind):
        code, _ = run_cli(
            capsys, "bootstrap", "--data", self.overflow_data(tmp_path), "--no-normalize",
            "--kind", kind, "--t0", "16",
        )
        assert code == EXIT_NUMERIC
        # length sampling fails earlier, on the weights it draws rows by
        what = "the sum of length-sampling weights" if kind == "length" else "a bootstrap sample"
        assert f"numerical failure: {what} is not finite" in caplog.text

    def test_overflowing_oracle_is_numeric(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "oracle", "--data", self.overflow_data(tmp_path), "--no-normalize",
            "--kind", "srht", "--t-grid", "8", "--reps", "10",
        )
        assert code == EXIT_NUMERIC

    def test_underflowing_length_weights_are_numeric(self, capsys, caplog, tmp_path):
        # 512 x 8 entries near 1e-170: no row is zero, but every row norm underflows
        rows = np.random.default_rng(9).standard_normal((512, 8))
        data = tmp_path / "tiny.txt"
        data.write_text(
            "".join("1 " + " ".join(f"{j + 1}:{v * 1e-170:.17g}" for j, v in enumerate(r)) + "\n"
                    for r in rows),
            encoding="utf-8",
        )
        code, _ = run_cli(
            capsys, "bootstrap", "--data", str(data), "--no-normalize", "--kind", "length",
            "--t0", "32",
        )
        assert code == EXIT_NUMERIC
        assert "numerical failure: the row-norm products underflowed to zero" in caplog.text

    @pytest.mark.parametrize(
        "error, logged",
        [(MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"),
         (MemoryError(), "MemoryError")],
        ids=["with-message", "bare"],
    )
    def test_memory_error_is_numeric(self, capsys, caplog, monkeypatch, error, logged):
        def exhausted(profile):
            raise error

        monkeypatch.setattr(cli, "synth_matrix", exhausted)
        code, _ = run_cli(
            capsys, "oracle", "--synth", "64,8,high", "--kind", "gaussian", "--reps", "10",
        )
        assert code == EXIT_NUMERIC
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"numerical failure: {logged}"
        ]

    @pytest.mark.parametrize("grid", ["0,8", "-4,8"])
    @pytest.mark.parametrize("command", ["bootstrap", "oracle", "experiment"])
    def test_grid_sizes_below_one_are_usage_errors(
        self, capsys, caplog, monkeypatch, command, grid
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran before the grid was checked")

        monkeypatch.setattr(cli, "mc_quantile_curve", no_oracle)
        code, out = run_cli(
            capsys, command, "--synth", "64,8,high", "--kind", "uniform", f"--t-grid={grid}"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "integers of at least 1" in caplog.text

    def test_oracle_alpha_outside_unit_interval_fails_before_any_draw(
        self, capsys, caplog, monkeypatch
    ):
        def no_draws(*args):
            raise AssertionError("sketches were drawn before alpha was checked")

        monkeypatch.setattr(oracle, "pair_sampler", no_draws)
        code, out = run_cli(
            capsys, "oracle", "--synth", "64,8,high", "--kind", "srht", "--alpha", "1.5"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "alpha must lie in (0, 1), got 1.5" in caplog.text

    def test_numeric_error_on_zero_data(self, capsys, tmp_path):
        zero = tmp_path / "zero.txt"
        zero.write_text("1 1:0\n", encoding="utf-8")
        code, _ = run_cli(
            capsys, "sketch", "--data", str(zero), "--kind", "gaussian",
            "--out", str(tmp_path / "p.npz"),
        )
        assert code == EXIT_NUMERIC


def _options_file(tmp_path, text):
    path = tmp_path / "run.args"
    path.write_text(text, encoding="utf-8")
    return "@" + str(path)


class TestConfigFile:
    def test_config_supplies_missing_values(self, capsys, tmp_path):
        args = _options_file(
            tmp_path, "# planning defaults\n--qhat 0.3  # at t0\n   \n\n--epsilon 0.1 # --qhat 9\n"
        )
        code, out = run_cli(capsys, "plan", "--t0", "100", args)
        assert code == 0
        assert out == "t = 900\n"

    def test_flags_override_config(self, capsys, tmp_path):
        args = _options_file(tmp_path, "--qhat 0.3 --epsilon 0.1\n")
        code, out = run_cli(capsys, "plan", "--t0", "100", args, "--qhat", "0.2")
        assert code == 0
        assert "t = 400" in out

    def test_flag_before_the_file_loses_to_it(self, capsys, tmp_path):
        args = _options_file(tmp_path, "--qhat 0.3 --epsilon 0.1\n")
        code, out = run_cli(capsys, "plan", "--t0", "100", "--qhat", "0.2", args)
        assert code == 0
        assert "t = 900" in out

    def test_malformed_config_is_usage_error(self, capsys, caplog, tmp_path):
        args = _options_file(tmp_path, "qhat 0.3\n")
        code, out = run_cli(
            capsys, "plan", "--t0", "100", "--qhat", "0.3", "--epsilon", "0.1", args
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: qhat 0.3" in caplog.text

    def test_misspelled_flag_is_usage_error_naming_it(self, capsys, caplog, tmp_path):
        args = _options_file(tmp_path, "--kind gaussian\n--boot-sampels 200\n")
        code, out = run_cli(capsys, "bootstrap", "--synth", "64,8,high", args)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--boot-sampels" in caplog.text

    def test_missing_file_is_usage_error_naming_it(self, capsys, caplog, tmp_path):
        missing = tmp_path / "absent.args"
        code, out = run_cli(capsys, "plan", "--t0", "100", "@" + str(missing))
        assert code == EXIT_USAGE
        assert out == ""
        assert str(missing) in caplog.text

    def test_file_that_is_not_utf8_is_usage_error_naming_it(self, capsys, caplog, tmp_path):
        bad = tmp_path / "bad.args"
        bad.write_bytes(b"\xff\xfe--qhat 0.3\n")
        code, out = run_cli(capsys, "plan", "--t0", "100", "--epsilon", "0.1", "@" + str(bad))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"options file {bad}: 'utf-8' codec can't decode byte 0xff" in caplog.text

    def test_nested_file_is_read_in_place(self, capsys, tmp_path):
        inner = tmp_path / "inner.args"
        inner.write_text("--qhat 0.3\n", encoding="utf-8")
        outer = tmp_path / "outer.args"
        outer.write_text(f"--t0 100 @{inner}  # inner supplies --qhat\n", encoding="utf-8")
        code, out = run_cli(capsys, "plan", "@" + str(outer), "--epsilon", "0.1")
        assert code == 0
        assert out == "t = 900\n"


    def test_file_that_includes_itself_is_usage_error_naming_it(self, capsys, caplog, tmp_path):
        loop = tmp_path / "loop.args"
        loop.write_text(f"--qhat 0.3 @{loop}\n", encoding="utf-8")
        code, out = run_cli(capsys, "plan", "--t0", "100", "--epsilon", "0.1", "@" + str(loop))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"options file {loop} includes itself" in caplog.text

    def test_two_files_that_include_each_other_are_usage_error(self, capsys, caplog, tmp_path):
        first, second = tmp_path / "first.args", tmp_path / "second.args"
        first.write_text(f"--qhat 0.3 @{second}\n", encoding="utf-8")
        second.write_text(f"--epsilon 0.1 @{first}\n", encoding="utf-8")
        code, out = run_cli(capsys, "plan", "--t0", "100", "@" + str(first))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"options file {first} includes itself" in caplog.text

    def test_file_named_twice_side_by_side_is_read_twice(self, capsys, tmp_path):
        args = _options_file(tmp_path, "--qhat 0.3\n")
        code, out = run_cli(capsys, "plan", "--t0", "100", args, "--epsilon", "0.1", args)
        assert code == 0
        assert out == "t = 900\n"


class TestDefaultGrid:
    def test_spans_half_d_to_ten_d(self):
        grid = default_t_grid(64)
        assert grid[0] == 32
        assert grid[-1] == 640
        assert len(grid) == 8
        assert all(t2 > t1 for t1, t2 in zip(grid, grid[1:]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_starts_at_two_rows_for_narrow_data(self, d):
        assert default_t_grid(d)[0] == 2


class TestOneRowBootstrap:
    """One sketch row makes every replicate's error exactly 0: a usage error, not a bound."""

    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    @pytest.mark.parametrize("kind", list(SketchKind))
    def test_bootstrap_t0_one_is_usage_error(self, capsys, caplog, kind, scheme):
        code, out = run_cli(
            capsys, "bootstrap", "--synth", "2048,64,high", "--kind", kind.value, "--t0", "1",
            "--scheme", scheme.value, "--t-grid", "64,640",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "the bootstrap needs a sketch of at least 2 rows, got 1" in caplog.text

    def test_stored_one_row_pair_is_usage_error(self, capsys, caplog, tmp_path):
        out = tmp_path / "one.npz"
        argv = ("--synth", "64,8,high", "--kind", "gaussian", "--t0", "1", "--out", str(out))
        assert run_cli(capsys, "sketch", *argv)[0] == 0  # storing one row is fine
        assert run_cli(capsys, "bootstrap", "--pair", str(out))[0] == EXIT_USAGE
        assert "at least 2 rows, got 1" in caplog.text

    def test_default_t0_on_three_columns_is_two_rows(self, capsys):
        code, out = run_cli(capsys, "bootstrap", "--synth", "200,3,high", "--kind", "gaussian")
        assert code == 0
        assert out == "q_hat(2) = 2.87744545\n"

    def test_experiment_t0_one_fails_before_any_draw(self, capsys, caplog, monkeypatch, tmp_path):
        def no_qr(*args, **kwargs):
            raise AssertionError("the data were factored before t0 was checked")

        data = tmp_path / "d.svm"
        data.write_text("1 1:0.5 2:1\n-1 1:2 2:-1\n1 1:1.5 2:0.25\n", encoding="utf-8")
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        code, out = run_cli(
            capsys, "experiment", "--data", str(data), "--kind", "gaussian", "--t0", "1",
            "--out", str(tmp_path / "e.csv"),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "t0 must be at least 2 for the bootstrap, got 1" in caplog.text
        assert not (tmp_path / "e.csv").exists()
        with pytest.raises(ValueError, match="t0 must be at least 2"):
            run_experiment(DenseMatrix(np.ones((4, 2))), "length", t0=1)


def _caplog_message(caplog):
    return "\n".join(r.getMessage() for r in caplog.records)


class TestOptionTable:
    def test_each_subcommand_takes_exactly_these_flags(self):
        import argparse

        from sketchguard.cli import build_parser

        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            name: {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()
        }
        common = {"-h", "--help", "--seed"}
        data = {"--data", "--synth", "--no-normalize", "--kind", "--out"}
        assert flags == {
            "sketch": common | data | {"--t0"},
            "bootstrap": common | data | {
                "--pair", "--t0", "--t-grid", "--alpha", "--boot-samples", "--scheme",
            },
            "plan": {"-h", "--help"} | {
                "--qhat", "--epsilon", "--n", "--d", "--t0", "--boot-samples",
            },
            "oracle": common | data | {"--reps", "--t-grid", "--alpha"},
            "experiment": common | data | {
                "--reps", "--oracle-reps", "--t0", "--t-grid", "--alpha", "--boot-samples",
                "--scheme",
            },
        }


class TestConfigValuesParseLikeFlags:
    @pytest.fixture
    def pair_file(self, tmp_path, capsys):
        out = tmp_path / "pair.npz"
        run_cli(
            capsys, "sketch", "--synth", "64,8,high", "--kind", "gaussian",
            "--t0", "8", "--seed", "5", "--out", str(out),
        )
        return out

    def test_hyphenated_grid_key(self, tmp_path, capsys, pair_file):
        args = _options_file(tmp_path, "--t-grid 16,32\n")
        code, via_file = run_cli(capsys, "bootstrap", "--pair", str(pair_file), args)
        assert code == 0
        _, via_flag = run_cli(capsys, "bootstrap", "--pair", str(pair_file), "--t-grid", "16,32")
        assert via_file == via_flag
        assert "q_ext(32)" in via_file

    def test_kind_key(self, tmp_path, capsys):
        out = tmp_path / "p.npz"
        args = _options_file(tmp_path, "--kind srht\n")
        code, _ = run_cli(capsys, "sketch", "--synth", "64,8,high", "--out", str(out), args)
        assert code == 0
        assert load_pair(out).spec.kind is SketchKind.SRHT

    def test_scheme_key(self, tmp_path, capsys, pair_file):
        args = _options_file(tmp_path, "--scheme nonparametric\n")
        _, via_file = run_cli(capsys, "bootstrap", "--pair", str(pair_file), args)
        _, via_flag = run_cli(
            capsys, "bootstrap", "--pair", str(pair_file), "--scheme", "nonparametric"
        )
        _, multiplier = run_cli(capsys, "bootstrap", "--pair", str(pair_file))
        assert via_file == via_flag != multiplier

    def test_normalize_false_matches_no_normalize_flag(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text(
            "".join(f"1 1:{i + 1} 2:{(i * 7) % 5 - 2} 3:{i % 3}\n" for i in range(40)),
            encoding="utf-8",
        )
        args = _options_file(tmp_path, "--no-normalize\n")
        base = ["oracle", "--data", str(data), "--kind", "uniform", "--t-grid", "4,8",
                "--reps", "10", "--seed", "1"]
        outs = {}
        for name, extra in [("file", [args]), ("flag", ["--no-normalize"]), ("normalized", [])]:
            outs[name] = tmp_path / f"{name}.csv"
            code, _ = run_cli(capsys, *base, *extra, "--out", str(outs[name]))
            assert code == 0
        assert outs["file"].read_bytes() == outs["flag"].read_bytes()
        assert outs["file"].read_bytes() != outs["normalized"].read_bytes()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("--t0 abc", "argument --t0: invalid int value: 'abc'"),
            ("--t-grid 8,x", "--t-grid"),
            ("--kind fourier", "--kind"),
            ("--scheme jackknife", "--scheme"),
            ("--alpha inf", "alpha must be a finite number"),
            ("--alpha abc", "alpha must be a finite number, got 'abc'"),
            ("--synth 10,2", "synth takes n,d,low|high, got '10,2'"),
        ],
        # each id names the bad setting, then the expected message
        ids=["t0 = abc---t0", "t-grid = 8,x---t-grid", "kind = fourier---kind",
             "scheme = jackknife---scheme", "alpha = inf-alpha must be a finite number",
             "alpha = abc-alpha must be a finite number", "synth = 10,2-synth takes n,d,low|high"],
    )
    def test_bad_value_is_usage_error_naming_the_option(
        self, tmp_path, capsys, caplog, line, message
    ):
        args = _options_file(tmp_path, "--kind gaussian\n" + line + "\n")
        code, out = run_cli(capsys, "bootstrap", "--synth", "64,8,high", args)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in _caplog_message(caplog)


class TestOptionsACommandDoesNotRead:
    @pytest.mark.parametrize(
        "flag,value", [("--seed", "5"), ("--scheme", "nonparametric"), ("--alpha", "0.4")]
    )
    def test_plan_rejects_seed_and_scheme(self, capsys, flag, value):
        code, out = run_cli(
            capsys, "plan", "--t0", "500", "--qhat", "0.2", "--epsilon", "0.05", flag, value
        )
        assert code == EXIT_USAGE
        assert out == ""

    def test_plan_rejects_seed_and_scheme_from_a_file(self, capsys, caplog, tmp_path):
        args = _options_file(tmp_path, "--seed 5\n--scheme nonparametric\n--qhat 0.2\n")
        code, out = run_cli(capsys, "plan", "--t0", "500", "--epsilon", "0.05", args)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--seed" in caplog.text and "--scheme" in caplog.text

    @pytest.mark.parametrize(
        "extra",
        [
            ["--synth", "512,16,high"],
            ["--data", "x.txt"],
            ["--kind", "srht"],
            ["--t0", "32"],
            ["--no-normalize"],
            ["--synth", "512,16,high", "--kind", "srht", "--t0", "32"],
        ],
        ids=["synth", "data", "kind", "t0", "no-normalize", "all"],
    )
    def test_bootstrap_pair_rejects_data_options(self, tmp_path, capsys, caplog, extra):
        pair_file = tmp_path / "pair.npz"
        run_cli(
            capsys, "sketch", "--synth", "64,8,high", "--kind", "gaussian",
            "--t0", "8", "--seed", "5", "--out", str(pair_file),
        )
        code, out = run_cli(capsys, "bootstrap", "--pair", str(pair_file), *extra)
        assert code == EXIT_USAGE
        assert out == ""
        message = _caplog_message(caplog)
        for flag in (a for a in extra if a.startswith("--")):
            assert flag in message

    def test_bootstrap_pair_rejects_data_options_from_a_file(self, tmp_path, capsys, caplog):
        args = _options_file(tmp_path, "--synth 64,8,high --kind gaussian --t0 8\n--seed 5\n")
        pair_file = tmp_path / "pair.npz"
        code, _ = run_cli(capsys, "sketch", args, "--out", str(pair_file))
        assert code == 0
        code, out = run_cli(capsys, "bootstrap", args, "--pair", str(pair_file))
        assert code == EXIT_USAGE
        assert out == ""
        message = _caplog_message(caplog)
        for flag in ("--synth", "--kind", "--t0"):
            assert flag in message


class TestNoNormalizeNeedsData:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sketch"],
            ["bootstrap", "--t-grid", "8,16"],
            ["oracle", "--reps", "10"],
            ["experiment", "--oracle-reps", "10", "--reps", "2"],
        ],
        ids=["sketch", "bootstrap", "oracle", "experiment"],
    )
    def test_synth_with_no_normalize_is_usage_error_before_the_matrix_is_built(
        self, tmp_path, capsys, caplog, monkeypatch, argv
    ):
        def no_synth(*args, **kwargs):
            raise AssertionError("the matrix was built before --no-normalize was checked")

        monkeypatch.setattr(cli, "synth_matrix", no_synth)
        out_file = tmp_path / "out.file"
        code, out = run_cli(
            capsys, *argv, "--synth", "256,8,high", "--kind", "gaussian", "--seed", "1",
            "--no-normalize", "--out", str(out_file),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--no-normalize needs --data" in _caplog_message(caplog)
        assert list(tmp_path.iterdir()) == []


class TestBootstrapOut:
    def test_out_without_grid_fails_before_loading(self, tmp_path, capsys, caplog):
        csv_file = tmp_path / "q.csv"
        code, out = run_cli(
            capsys, "bootstrap", "--pair", str(tmp_path / "missing.npz"), "--out", str(csv_file)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--t-grid" in _caplog_message(caplog)
        assert not csv_file.exists()


def _pair_arrays(**overrides):
    arrays = dict(
        a_sketch=np.ones((4, 3)), b_sketch=np.ones((4, 3)), kind="gaussian",
        t=np.uint64(4), seed=np.uint64(1), source_rows=np.uint64(16),
    )
    arrays.update(overrides)
    return {k: v for k, v in arrays.items() if v is not None}


class TestMalformedPairFile:
    @pytest.mark.parametrize(
        "name,write",
        [
            ("nokind.npz", lambda p: np.savez(p, **_pair_arrays(kind=None))),
            ("plain.npy", lambda p: np.save(p, np.ones((4, 3)))),
            ("text.npz", lambda p: p.write_text("not an archive\n", encoding="utf-8")),
            ("short.npz", lambda p: np.savez(p, **_pair_arrays(t=np.uint64(5)))),
            ("nan.npz", lambda p: np.savez(p, **_pair_arrays(a_sketch=np.full((4, 3), np.nan)))),
            ("cut.npz", lambda p: p.write_bytes(b"PK\x03\x04" + bytes(60))),
            ("norows.npz", lambda p: np.savez(p, **_pair_arrays(source_rows=np.uint64(0)))),
        ],
        ids=["no-kind", "npy", "text", "t-mismatch", "nan", "truncated-zip", "no-source-rows"],
    )
    def test_is_data_error_naming_the_file(self, tmp_path, capsys, caplog, name, write):
        path = tmp_path / name
        write(path)
        code, out = run_cli(capsys, "bootstrap", "--pair", str(path))
        assert code == EXIT_DATA
        assert out == ""
        assert str(path) in _caplog_message(caplog)

    def test_npy_file_is_rejected_as_not_an_archive(self, tmp_path, capsys, caplog):
        # an array loaded from a .npy file cannot enter a with block (AttributeError on 3.10)
        path = tmp_path / "x.npy"
        np.save(path, np.ones((4, 3)))
        code, out = run_cli(capsys, "bootstrap", "--pair", str(path))
        assert code == EXIT_DATA
        assert out == ""
        assert _caplog_message(caplog) == (
            f"data error: {path}: not a stored sketch pair: it is a .npy array, not an .npz archive"
        )


class TestEntryPoint:
    def run_entry(
        self, *argv, launch=("-c", "import sys; from sketchguard.cli import main; sys.exit(main())")
    ):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import sketchguard

        src = str(Path(sketchguard.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ))
        return subprocess.run(
            [sys.executable, *launch, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_exit_code_reaches_the_shell_and_logs_go_to_stderr(self, tmp_path):
        out = tmp_path / "run.csv"
        ok = self.run_entry(
            "experiment", "--synth", "32,4,high", "--kind", "uniform", "--t-grid", "2,4",
            "--reps", "2", "--oracle-reps", "10", "--out", str(out),
        )
        assert ok.returncode == 0
        assert ok.stdout == f"wrote {out}: 2 grid points, t0=2\n"
        assert "INFO experiment:" in ok.stderr
        bad = self.run_entry("plan", "--t0", "500", "--epsilon", "0.05")
        assert bad.returncode == EXIT_USAGE
        assert bad.stdout == ""
        assert "ERROR missing required option --qhat" in bad.stderr

    def test_huge_feature_index_exits_2_without_a_traceback(self, tmp_path):
        huge = tmp_path / "huge.txt"
        huge.write_text("1 99999999999999999999:1\n", encoding="utf-8")
        run = self.run_entry(
            "sketch", "--data", str(huge), "--kind", "srht", "--t0", "4", "--seed", "1",
            "--out", str(tmp_path / "o.npz"),
        )
        assert run.returncode == EXIT_USAGE
        assert "entry cap" in run.stderr
        assert "Traceback" not in run.stderr

    def test_module_form_runs_the_command(self):
        ok = self.run_entry("plan", "--t0", "500", "--qhat", "0.2", "--epsilon", "0.05",
                            launch=("-m", "sketchguard.cli"))
        assert ok.returncode == 0
        assert ok.stdout == "t = 8000\n"
