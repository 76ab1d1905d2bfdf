"""Command-line interface: subcommands, config files, exit codes.

Exit code contract: 0 success, 1 usage or parameter error, 2 I/O or parse
error, 3 validation failure.  Most tests drive cli.main() in process; a
couple run the real interpreter entry point.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from levsketch import ConfigParseError, DenseMatrix, read_matrix, write_matrix
from levsketch.cli import main, read_config


@pytest.fixture
def problem_files(tmp_path):
    rng = np.random.default_rng(77)
    a = rng.standard_normal((120, 3))
    b = a @ rng.standard_normal((3, 1)) + 0.5 * rng.standard_normal((120, 1))
    a_path = tmp_path / "a.mtx"
    b_path = tmp_path / "b.mtx"
    write_matrix(a_path, DenseMatrix.from_array(a))
    write_matrix(b_path, DenseMatrix.from_array(b))
    return a_path, b_path


class TestReadConfig:
    def test_parses_flat_key_values(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("kind = consistent\n# a comment\ntrials = 9\n\nseed=4\n")
        assert read_config(p) == {"kind": "consistent", "trials": "9", "seed": "4"}

    def test_inline_comments_stripped(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("trials = 9  # why not\n")
        assert read_config(p) == {"trials": "9"}

    def test_unknown_key_rejected_with_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("kind = consistent\nbogus = 1\n")
        with pytest.raises(ConfigParseError) as exc_info:
            read_config(p)
        assert exc_info.value.line == 2

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigParseError):
            read_config(p)


class TestSolve:
    def test_writes_solution_and_ratio(self, problem_files, tmp_path, capsys):
        a_path, b_path = problem_files
        out = tmp_path / "x.mtx"
        code = main(
            [
                "solve",
                str(a_path),
                str(b_path),
                "--samples",
                "xr:20",
                "--seed",
                "3",
                "--exact",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "accuracy_ratio=" in text
        assert read_matrix(out).shape == (3, 1)

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "no.mtx"), str(tmp_path / "no2.mtx")])
        assert code == 2

    def test_malformed_matrix_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix file\n")
        code = main(["solve", str(bad), str(bad)])
        assert code == 2

    def test_bad_samples_flag_is_exit_1(self, problem_files, capsys):
        a_path, b_path = problem_files
        assert main(["solve", str(a_path), str(b_path), "--samples", "later"]) == 1

    @pytest.mark.parametrize("dist", ["psychic", "blended:abc", "blended:2"])
    def test_bad_dist_flag_is_exit_1(self, problem_files, capsys, dist):
        a_path, b_path = problem_files
        assert main(["solve", str(a_path), str(b_path), "--dist", dist]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [["--dist", "psychic"], ["--samples", "later"], ["--epsilon", "2"], ["--delta", "0"]],
    )
    def test_bad_flag_rejected_before_reading_files(self, tmp_path, capsys, monkeypatch, flags):
        import levsketch.cli as cli_mod

        def never(path):
            raise AssertionError("a matrix file was read")

        monkeypatch.setattr(cli_mod, "read_matrix", never)
        code = main(["solve", str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_one_factorization(self, problem_files, count_numpy_calls, capsys):
        a_path, b_path = problem_files
        code = main(["solve", str(a_path), str(b_path), "--samples", "xr:20", "--exact"])
        assert code == 0
        assert count_numpy_calls(120) == 1

    @pytest.mark.parametrize("dist", ["leverage", "blended:0.5"])
    def test_same_s_and_beta_as_bench(self, problem_files, tmp_path, capsys, dist):
        # solve and a custom-file bench share one set-up path
        a_path, b_path = problem_files
        assert main(["solve", str(a_path), str(b_path), "--dist", dist]) == 0
        solve_out = capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind = custom-file\na_file = {a_path}\nb_file = {b_path}\n")
        code = main(["bench", "--config", str(cfg), "--dist", dist, "--trials", "1",
                     "--epsilon", "0.1", "--delta", "0.1", "--out", str(tmp_path / "r.csv")])
        assert code == 0
        bench_out = capsys.readouterr().out

        def fields(text):
            return {k: v for k, _, v in (t.partition("=") for t in text.split())
                    if k in ("s", "beta")}

        assert fields(solve_out) == fields(bench_out)
        assert set(fields(solve_out)) == {"s", "beta"}

    def test_deterministic_output_file(self, problem_files, tmp_path, capsys):
        a_path, b_path = problem_files
        o1, o2 = tmp_path / "x1.mtx", tmp_path / "x2.mtx"
        for out in (o1, o2):
            args = ["solve", str(a_path), str(b_path), "--samples", "30",
                    "--seed", "11", "--out", str(out)]
            assert main(args) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestLeverage:
    def test_prints_scores(self, problem_files, capsys):
        a_path, _ = problem_files
        assert main(["leverage", str(a_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("rows=120 rank=3 coherence=")
        assert len(out) == 1 + 120
        scores = np.array([float(v) for v in out[1:]])
        assert scores.sum() == pytest.approx(3.0, abs=1e-8)

    def test_scores_to_file(self, problem_files, tmp_path, capsys):
        a_path, _ = problem_files
        out = tmp_path / "scores.txt"
        assert main(["leverage", str(a_path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 120

    def test_rank_deficient_input_is_exit_1(self, tmp_path, capsys):
        a = np.column_stack([np.ones(5), np.ones(5)])
        path = tmp_path / "flat.mtx"
        write_matrix(path, DenseMatrix.from_array(a))
        assert main(["leverage", str(path)]) == 1


class TestBench:
    def test_config_plus_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = gaussian-incoherent\n"
            "n_rows = 150\n"
            "n_cols = 3\n"
            "rhs_cols = 1\n"
            "problem_seed = 6\n"
            "samples = xr:8\n"
            "epsilon = 0.3\n"
            "delta = 0.3\n"
            "trials = 10\n"
            "seed = 52\n"
        )
        out = tmp_path / "report.csv"
        code = main(["bench", "--config", str(cfg), "--trials", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("trial_id,s,beta,")
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 5  # header + rows
        assert any(l.startswith("# master_seed=52") for l in lines)

    def test_defaults_need_no_config(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            ["bench", "--trials", "3", "--samples", "xr:6", "--epsilon", "0.3",
             "--delta", "0.3", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_consistent_report_independent_of_threads(self, tmp_path, capsys):
        # On a consistent system the exact residual is rounding noise, so
        # every residual-scale column is decided by summation order.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = consistent\n"
            "n_rows = 600\n"
            "n_cols = 4\n"
            "problem_seed = 5158\n"
            "dist = blended:0.5\n"
            "samples = xr:6\n"
            "epsilon = 0.3\n"
            "delta = 0.3\n"
            "trials = 60\n"
            "seed = 8007\n"
        )
        bodies = []
        for threads in ("1", "4"):
            out = tmp_path / f"r{threads}.csv"
            code = main(["bench", "--config", str(cfg), "--threads", threads, "--out", str(out)])
            assert code == 0
            bodies.append([l for l in out.read_bytes().split(b"\n")
                           if not l.startswith(b"# wall_time_s")])
        assert bodies[0] == bodies[1]
        assert len(bodies[0]) == 1 + 60 + 8 + 1

    def test_malformed_config_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("???\n")
        assert main(["bench", "--config", str(cfg)]) == 2

    def test_out_of_range_value_is_exit_1(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["bench", "--epsilon", "2.0", "--out", str(out)])
        assert code == 1

    def test_sample_budget_is_exit_1_before_allocating(self, tmp_path, capsys, monkeypatch):
        # The auto rule asks for ~5e12 rows here; the budget check must stop
        # the run before any sketch is drawn or the report is opened.
        import levsketch.experiment as experiment_mod

        def never(*args, **kwargs):
            raise AssertionError("a sketch was built")

        monkeypatch.setattr(experiment_mod, "build_sketch", never)
        out = tmp_path / "r.csv"
        tracemalloc.start()
        try:
            code = main(["bench", "--epsilon", "1e-6", "--delta", "1e-6", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--cap-samples" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert peak < 16 * 2**20  # the default 2000x5 problem, nothing sketch-sized


class TestValidate:
    def test_smoke_preset_passes(self, capsys):
        assert main(["validate", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] smoke/implication_violations" in out

    def test_threads_flag_accepted_and_inert(self, capsys):
        outputs = []
        for threads in ("1", "3"):
            assert main(["validate", "--preset", "smoke", "--threads", threads]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_unknown_preset_is_exit_1(self, capsys):
        assert main(["validate", "--preset", "nonesuch"]) == 1

    def test_failing_preset_is_exit_3(self, capsys, monkeypatch):
        import levsketch.cli as cli_mod

        class AlwaysFails:
            name = "doomed"
            description = "always fails"

            def run(self):
                return []

            def evaluate(self, reports):
                return [("doom", False, "nothing ever works")]

        monkeypatch.setitem(cli_mod.PRESETS, "doomed", AlwaysFails())
        assert main(["validate", "--preset", "doomed"]) == 3
        assert "[FAIL] doomed/doom" in capsys.readouterr().out


class TestUsage:
    @pytest.mark.parametrize("command", ["bench", "validate"])
    def test_threads_validated(self, tmp_path, capsys, command):
        extra = ["--out", str(tmp_path / "r.csv")] if command == "bench" else []
        assert main([command, "--threads", "0", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--threads" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_no_arguments_is_exit_1(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_is_exit_1(self, capsys):
        assert main(["bogus"]) == 1

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out


class TestModuleEntryPoint:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "levsketch", *args],
            capture_output=True,
            text=True,
        )

    def test_help_via_interpreter(self):
        proc = self.run_cli("--help")
        assert proc.returncode == 0
        assert "bench" in proc.stdout

    def test_usage_error_via_interpreter(self):
        proc = self.run_cli("frobnicate")
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()

    def test_bench_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = self.run_cli(
            "bench", "--trials", "4", "--samples", "xr:6", "--epsilon", "0.3",
            "--delta", "0.3", "--seed", "14", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
