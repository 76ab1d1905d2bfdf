"""Command-line interface: subcommands, config files, exit codes.

Exit code contract: 0 success, 1 usage or parameter error, 2 I/O or parse
error, 3 validation failure.  Most tests drive cli.main() in process; a
couple run the real interpreter entry point.
"""

import argparse
import dataclasses
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import levsketch.cli as cli_mod
from levsketch import (
    AccuracyTarget,
    ConfigParseError,
    ProblemSpec,
    RankDeficientError,
    generate_problem,
    leverage_scores,
    read_matrix,
    run_experiment,
    write_matrix,
)
from levsketch.cli import _DEFAULTS, _build_parser, _trial_config, main, read_config


#: Accuracy targets whose auto sample count is past the float range or, for
#: the last, a 302-digit integer.
TINY_TARGETS = [
    pytest.param(["--epsilon", "5e-324", "--delta", "0.1"], id="eps-delta-underflows"),
    pytest.param(["--epsilon", "1e-310"], id="tiny-eps"),
    pytest.param(["--delta", "1e-320"], id="tiny-delta"),
    pytest.param(["--epsilon", "1e-300"], id="eps-1e-300"),
]


@pytest.fixture
def problem_files(tmp_path):
    rng = np.random.default_rng(77)
    a = rng.standard_normal((120, 3))
    b = a @ rng.standard_normal((3, 1)) + 0.5 * rng.standard_normal((120, 1))
    a_path = tmp_path / "a.mtx"
    b_path = tmp_path / "b.mtx"
    write_matrix(a_path, a)
    write_matrix(b_path, b)
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

    def test_repeated_key_rejected_at_its_second_line(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("trials = 2\nseed = 4\ntrials = 3\n")
        with pytest.raises(ConfigParseError,
                           match=r"^line 3: repeated key 'trials', first given at line 1$"):
            read_config(p)
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: repeated key 'trials'")
        assert not out.exists()


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

    def test_fewer_samples_than_the_rank_is_exit_1(self, problem_files, capsys):
        a_path, b_path = problem_files
        assert main(["solve", str(a_path), str(b_path), "--samples", "2"]) == 1
        assert capsys.readouterr().err == "error: 2 samples cannot cover rank 3\n"

    @pytest.mark.parametrize("dist", ["psychic", "blended:abc", "blended:2"])
    def test_bad_dist_flag_is_exit_1(self, problem_files, capsys, dist):
        a_path, b_path = problem_files
        assert main(["solve", str(a_path), str(b_path), "--dist", dist]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [["--dist", "psychic"], ["--samples", "later"], ["--epsilon", "2"], ["--delta", "0"],
         ["--seed", "-1"], ["--seed", str(2**64)]],
    )
    def test_bad_flag_rejected_before_reading_files(self, problem_files, capsys, monkeypatch,
                                                    flags):
        import levsketch.problems as problems_mod

        def never(path):
            raise AssertionError("a matrix file was read")

        # solve reads its files through the custom-file problem.
        monkeypatch.setattr(problems_mod, "read_matrix", never)
        code = main(["solve", *map(str, problem_files), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["a", "b"])
    @pytest.mark.parametrize("path, message", [
        pytest.param("", "[Errno 2] No such file or directory: ''", id="empty"),
        pytest.param(".", "[Errno 21] Is a directory: '.'", id="directory"),
    ])
    def test_unreadable_path_is_exit_2(self, problem_files, capsys, which, path, message):
        paths = dict(zip("ab", map(str, problem_files)))
        paths[which] = path
        assert main(["solve", paths["a"], paths["b"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_solve_and_bench_share_one_set_up(self, problem_files, tmp_path, capsys,
                                              monkeypatch):
        import levsketch.experiment as experiment_mod

        seen = []
        set_up_run = experiment_mod.set_up_run

        def recording(cfg):
            seen.append((cfg, set_up_run(cfg)))
            return seen[-1][1]

        # solve calls the set-up through its own binding, bench through experiment's.
        monkeypatch.setattr(cli_mod, "set_up_run", recording)
        monkeypatch.setattr(experiment_mod, "set_up_run", recording)
        a_path, b_path = map(str, problem_files)
        flags = ["--dist", "blended:0.5", "--samples", "xr:20", "--seed", "5"]
        assert main(["solve", a_path, b_path, *flags]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind = custom-file\na_file = {a_path}\nb_file = {b_path}\n")
        assert main(["bench", "--config", str(cfg), *flags, "--trials", "3",
                     "--out", str(tmp_path / "r.csv")]) == 0
        (solve_cfg, solve_set_up), (bench_cfg, bench_set_up) = seen
        for run in (solve_cfg, bench_cfg):
            assert (run.problem.kind, run.problem.a_path, run.problem.b_path) == (
                "custom-file", a_path, b_path)
        assert (solve_cfg.n_trials, solve_cfg.master_seed) == (1, 5)
        assert solve_cfg == dataclasses.replace(bench_cfg, problem=solve_cfg.problem,
                                                n_trials=1)
        assert solve_set_up[4:] == bench_set_up[4:]  # beta and s

    @pytest.mark.parametrize("flags", TINY_TARGETS)
    def test_tiny_target_is_exit_1(self, problem_files, tmp_path, capsys, flags):
        a_path, b_path = problem_files
        out = tmp_path / "x.mtx"
        assert main(["solve", str(a_path), str(b_path), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err
        assert "Traceback" not in err
        assert re.search(r"\d{17}", err) is None
        assert not out.exists()

    def test_overflowing_b_is_exit_1(self, problem_files, tmp_path, capsys):
        # Every entry is finite, but ||B||_F^2 is past the float64 range.
        a_path, _ = problem_files
        h_path = tmp_path / "h.mtx"
        write_matrix(h_path, 1e307 * np.random.default_rng(78).standard_normal((120, 3)))
        out = tmp_path / "x.mtx"
        assert main(["solve", str(a_path), str(h_path), "--exact", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: b is too large: ||b||_F^2 overflows float64"]
        assert not out.exists()

    def test_huge_a_solves(self, problem_files, tmp_path, capsys):
        a_path, b_path = problem_files
        big = tmp_path / "big.mtx"
        write_matrix(big, 1e307 * np.asarray(read_matrix(a_path)))
        assert main(["solve", str(big), str(b_path), "--exact"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        ratio = float(re.search(r"accuracy_ratio=(\S+)", captured.out).group(1))
        assert 1.0 - 1e-12 <= ratio <= 1.1

    def test_one_factorization(self, problem_files, count_numpy_calls, capsys):
        a_path, b_path = problem_files
        code = main(["solve", str(a_path), str(b_path), "--samples", "xr:20", "--exact"])
        assert code == 0
        assert count_numpy_calls(120, names=("qr",)) == count_numpy_calls(120) == 1

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

    def test_defaults_are_the_config_defaults(self, problem_files, capsys, monkeypatch):
        # solve and bench take the same run flags, as text with no default:
        # a flag left out keeps the table's value, and _trial_config reads
        # each key, from a flag or a config file, the one way.
        commands = next(action.choices for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        run_flags = {"--dist", "--samples", "--epsilon", "--delta", "--seed"}
        bench_flags = run_flags | {"--trials", "--cap-samples"}

        def flags(command):
            return {option: (action.type, action.default)
                    for action in commands[command]._actions
                    for option in action.option_strings if option in bench_flags}

        assert flags("solve") == {option: (None, None) for option in run_flags}
        assert flags("bench") == {option: (None, None) for option in bench_flags}
        # solve with no run flag runs the config defaults, with one trial.
        seen = []
        set_up_run = cli_mod.set_up_run
        monkeypatch.setattr(cli_mod, "set_up_run",
                            lambda cfg: seen.append(cfg) or set_up_run(cfg))
        assert main(["solve", *map(str, problem_files)]) == 0
        (cfg,) = seen
        assert cfg == dataclasses.replace(_trial_config(dict(_DEFAULTS)), problem=cfg.problem,
                                          n_trials=1)

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

    def test_output_bytes_match_per_value_format(self, problem_files, tmp_path, capsys):
        a_path, _ = problem_files
        scores = leverage_scores(read_matrix(a_path)).scores
        lines = "".join(format(v, ".16e") + "\n" for v in scores)
        out = tmp_path / "scores.txt"
        assert main(["leverage", str(a_path), "--out", str(out)]) == 0
        assert out.read_bytes() == lines.encode()
        header = capsys.readouterr().out
        assert main(["leverage", str(a_path)]) == 0
        assert capsys.readouterr().out == header + lines

    def test_scores_at_the_files_solve_shape_match_per_value_format(self, tmp_path, capsys):
        # The benchmark's files-solve matrix: 50000 rows, four write blocks,
        # whose score file the benchmark sums and takes the max of.
        a, _, meta = generate_problem(ProblemSpec("spiked-coherent", 50000, 5,
                                                  coherence_target=0.9, seed=231))
        path, out = tmp_path / "A.mtx", tmp_path / "scores.txt"
        write_matrix(path, a)
        scores = leverage_scores(read_matrix(path)).scores
        assert scores.tobytes() == meta["profile"].scores.tobytes()
        lines = "".join("%.16e\n" % v for v in scores.tolist())
        assert main(["leverage", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == lines.encode()
        parsed = np.array([float(t) for t in out.read_text().splitlines()])
        assert parsed.tobytes() == scores.tobytes()
        header = capsys.readouterr().out
        assert main(["leverage", str(path)]) == 0
        assert capsys.readouterr().out == header + lines

    def test_rank_deficient_input_is_exit_1(self, tmp_path, capsys):
        a = np.column_stack([np.ones(5), np.ones(5)])
        path = tmp_path / "flat.mtx"
        write_matrix(path, a)
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

    @pytest.mark.parametrize("flag, text, field, value", [
        ("--seed", "9", "master_seed", 9),
        ("--trials", "4", "n_trials", 4),
        ("--epsilon", "0.25", "target", AccuracyTarget(0.25, 0.3)),
        ("--delta", "0.2", "target", AccuracyTarget(0.3, 0.2)),
        ("--dist", "uniform", "distribution", "uniform"),
        ("--samples", "17", "sample_rule", "17"),
        ("--cap-samples", "11", "cap_samples", 11),
    ])
    def test_each_flag_beats_the_config_file(self, tmp_path, capsys, monkeypatch, flag, text,
                                             field, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_rows = 120\nn_cols = 3\nseed = 3\ntrials = 2\nepsilon = 0.3\n"
                       "delta = 0.3\ndist = leverage\nsamples = xr:6\ncap_samples = 13\n")
        seen = []

        def recording(config):
            seen.append(config)
            return run_experiment(config)

        monkeypatch.setattr(cli_mod, "run_experiment", recording)
        out = str(tmp_path / "r.csv")
        assert main(["bench", "--config", str(cfg), "--out", out]) == 0
        assert main(["bench", "--config", str(cfg), flag, text, "--out", out]) == 0
        from_file, from_flag = seen
        assert getattr(from_file, field) != value
        assert from_flag == dataclasses.replace(from_file, **{field: value})

    @pytest.mark.parametrize("key, text, what", [
        *((key, "1e3", "an integer") for key in (
            "n_rows", "n_cols", "rhs_cols", "problem_seed", "cap_samples", "trials", "seed")),
        *((key, "abc", "a number") for key in (
            "noise_scale", "coherence_target", "epsilon", "delta")),
    ])
    def test_unparsable_config_value_names_its_key(self, tmp_path, capsys, key, text, what):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} must be {what}, got {text!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        *(("bench", flag) for flag in ("--epsilon", "--delta", "--seed", "--trials",
                                       "--cap-samples")),
        *(("solve", flag) for flag in ("--epsilon", "--delta", "--seed")),
    ])
    def test_unparsable_run_flag_is_the_config_files_error(self, problem_files, tmp_path, capsys,
                                                           monkeypatch, command, flag):
        # A run flag is read as its config key is, with the one error text.
        import levsketch.problems as problems_mod

        def never(path):
            raise AssertionError("a matrix file was read")

        monkeypatch.setattr(problems_mod, "read_matrix", never)
        key = flag[2:].replace("-", "_")
        what = "a number" if key in ("epsilon", "delta") else "an integer"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = abc\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        from_file = capsys.readouterr().err
        files = [str(path) for path in problem_files] if command == "solve" else []
        assert main([command, *files, flag, "abc", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == from_file == f"error: {key} must be {what}, got 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_rejected_before_generation(self, tmp_path, capsys, monkeypatch, seed):
        import levsketch.experiment as experiment_mod

        def never(*args, **kwargs):
            raise AssertionError("the problem was generated")

        monkeypatch.setattr(experiment_mod, "generate_problem", never)
        out = tmp_path / "r.csv"
        assert main(["bench", "--seed", seed, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_problem_seed_is_named_in_the_error(self, tmp_path, capsys, monkeypatch):
        # Not "seed must be ...", which reads as a bad --seed.
        import levsketch.experiment as experiment_mod

        def never(*args, **kwargs):
            raise AssertionError("the problem was generated")

        monkeypatch.setattr(experiment_mod, "generate_problem", never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem_seed = -1\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: problem seed must be an integer in [0, 18446744073709551615], got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_scale_is_exit_1(self, tmp_path, capsys, noise):
        # NaN fails every comparison: a range check alone lets it through,
        # and the problem is built without noise.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_rows = 200\nnoise_scale = {noise}\ntrials = 2\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: noise_scale must be a finite real number in [0, inf), got {noise}"]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["gaussian-incoherent", "consistent"])
    @pytest.mark.parametrize("value", ["nan", "5", "-1"])
    def test_out_of_range_coherence_target_is_exit_1(self, tmp_path, capsys, monkeypatch, kind,
                                                     value):
        # The kinds that plant no spike ran with any coherence_target, nan too.
        import levsketch.experiment as experiment_mod

        def never(*args, **kwargs):
            raise AssertionError("the problem was generated")

        monkeypatch.setattr(experiment_mod, "generate_problem", never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind = {kind}\nn_rows = 200\ncoherence_target = {value}\ntrials = 2\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: coherence_target must be a finite real number in [0, 1], "
            f"got {float(value)!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("n_rows", "3"), ("n_cols", "2"), ("rhs_cols", "0"), ("noise_scale", "5"),
        ("coherence_target", "0.5"), ("problem_seed", "0")])
    def test_custom_file_config_with_a_generated_problem_key_is_exit_1(
            self, problem_files, tmp_path, capsys, key, value):
        # A file problem's shape is its files': a key it would not read is
        # an error, even at the default value, not a setting run without.
        a_path, b_path = problem_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind = custom-file\na_file = {a_path}\nb_file = {b_path}\n"
                       f"{key} = {value}\ntrials = 2\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: a custom-file problem reads only a_file and b_file, got {key} = {value!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("key", ["a_file", "b_file"])
    def test_generated_problem_config_with_a_file_is_exit_1(self, problem_files, tmp_path,
                                                           capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind = consistent\n{key} = {problem_files[0]}\ntrials = 2\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: a consistent problem is generated and reads no a_path or b_path"]
        assert not out.exists()

    def test_overflowing_noise_is_exit_1_with_one_error_line(self, tmp_path, capsys):
        # At this scale the noisy b overflows as it is formed: one error
        # line, and no numpy warning before it.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_rows = 50\nn_cols = 3\nnoise_scale = 1e308\ntrials = 3\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: noise_scale = 1e+308 makes b overflow float64"]
        assert not out.exists()

    def test_overflowing_b_file_is_exit_1(self, problem_files, tmp_path, capsys):
        # Every entry is finite, but ||B||_F^2 is past the float64 range: an
        # error, not a report of perfect solves.
        a_path, _ = problem_files
        h_path = tmp_path / "h.mtx"
        write_matrix(h_path, 1e307 * np.random.default_rng(79).standard_normal((120, 3)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind = custom-file\na_file = {a_path}\nb_file = {h_path}\n"
                       "samples = 12\ntrials = 3\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: b is too large: ||b||_F^2 overflows float64"]
        assert not out.exists()

    def test_sample_budget_is_exit_1_before_allocating(self, tmp_path, capsys, monkeypatch):
        # The auto rule asks for ~5e12 rows here; the budget check must stop
        # the run before any sketch is drawn or the report is opened.
        import levsketch.experiment as experiment_mod

        def never(*args, **kwargs):
            raise AssertionError("a sketch was drawn")

        monkeypatch.setattr(experiment_mod, "draw_chunk", never)
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

    @pytest.mark.parametrize("flags", TINY_TARGETS)
    def test_tiny_target_is_exit_1(self, tmp_path, capsys, flags):
        # epsilon * delta underflows to 0, or the auto count overflows a
        # float: one error line, no traceback, no report.
        out = tmp_path / "r.csv"
        assert main(["bench", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err
        assert "Traceback" not in err
        assert re.search(r"\d{17}", err) is None  # a count past 1e15 is shown as 5.00e+301
        assert not out.exists()

    def test_tiny_target_under_a_cap_runs(self, tmp_path, capsys):
        # The cap bounds an auto count past the float range like any other.
        out = tmp_path / "r.csv"
        args = ["bench", "--epsilon", "1e-310", "--cap-samples", "40", "--trials", "2"]
        assert main([*args, "--out", str(out)]) == 0
        assert " s=40 " in capsys.readouterr().out

    def test_problem_budget_is_exit_1_before_generation(self, tmp_path, capsys, monkeypatch):
        # A 1e11-row problem would need terabytes: one error line, no traceback,
        # and nothing generated.
        import levsketch.experiment as experiment_mod

        def never(*args, **kwargs):
            raise AssertionError("the problem was generated")

        monkeypatch.setattr(experiment_mod, "generate_problem", never)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("n_rows = 100000000000\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["10000001", "4294967296"])
    def test_trial_budget_is_exit_1_before_generation(self, tmp_path, capsys, monkeypatch,
                                                      trials):
        # Every trial's record stays in memory until the report is written, so
        # 4.3e9 trials could never finish: one error line, nothing generated.
        import levsketch.experiment as experiment_mod

        def never(*args, **kwargs):
            raise AssertionError("the problem was generated")

        monkeypatch.setattr(experiment_mod, "generate_problem", never)
        out = tmp_path / "r.csv"
        assert main(["bench", "--trials", trials, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_trials" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestUnwritableOut:
    """An --out that cannot be written fails with exit 2 before any input is
    read or any problem generated, so no work is wasted."""

    @staticmethod
    def argv(command, out):
        if command == "bench":
            return ["bench", "--trials", "2", "--out", out]
        if command == "solve":
            return ["solve", "a.mtx", "b.mtx", "--out", out]
        return ["leverage", "a.mtx", "--out", out]

    @pytest.mark.parametrize("command", ["bench", "solve", "leverage"])
    @pytest.mark.parametrize("where", ["missing directory", "a directory", "an empty path"])
    def test_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, command, where):
        import levsketch.cli as cli_mod
        import levsketch.experiment as experiment_mod
        import levsketch.problems as problems_mod

        def never(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(experiment_mod, "generate_problem", never)
        monkeypatch.setattr(problems_mod, "read_matrix", never)
        monkeypatch.setattr(cli_mod, "read_matrix", never)
        out = {"missing directory": tmp_path / "missing" / "out.txt", "a directory": tmp_path,
               "an empty path": ""}[where]
        assert main(self.argv(command, str(out))) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
        assert not (tmp_path / "missing").exists()


class TestUndecodableInput:
    """A file that is not UTF-8 is a parse error naming the line of the bad
    byte: exit 2 with one error line, not a traceback."""

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("leverage", "error: line 4: not UTF-8: byte 0xff"),
            ("solve", "error: line 4: not UTF-8: byte 0xff"),
            ("bench", "error: line 2: not UTF-8: byte 0xe9"),
        ],
    )
    def test_exit_2_with_the_line(self, problem_files, tmp_path, capsys, command, expected):
        a_path, _ = problem_files
        bad = tmp_path / "bad.mtx"
        bad.write_bytes(b"%%MatrixMarket matrix array real general\n2 1\n1.0\n\xff\xfe\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"trials = 3\n# caf\xe9\n")
        argv = {
            "leverage": ["leverage", str(bad)],
            "solve": ["solve", str(a_path), str(bad)],
            "bench": ["bench", "--config", str(cfg), "--out", str(tmp_path / "r.csv")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [expected]

    @pytest.mark.parametrize("command", ["leverage", "solve"])
    @pytest.mark.parametrize("prefix, line", [
        (b"%%MatrixMarket matrix array real general \xe9\n2 1\n", 1),
        (b"%%MatrixMarket matrix array real general\n% caf\xe9\n2 1\n", 2),
    ], ids=["header", "comment"])
    def test_a_bad_byte_before_the_body_is_exit_2_with_its_line(
            self, problem_files, tmp_path, capsys, command, prefix, line):
        a_path, _ = problem_files
        bad = tmp_path / "bad.mtx"
        bad.write_bytes(prefix + b"1.0\n2.0\n")
        argv = ["leverage", str(bad)] if command == "leverage" else \
            ["solve", str(a_path), str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: line {line}: not UTF-8: byte 0xe9"]


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

    @pytest.mark.parametrize("command", [
        pytest.param(["bench", "--trials", "3"], id="bench"),
        pytest.param(["validate", "--preset", "smoke"], id="validate"),
    ])
    def test_generation_failure_is_exit_1_without_a_report(self, tmp_path, capsys, monkeypatch,
                                                          command):
        # A problem that cannot be generated fails the set-up, like every
        # other set-up failure: one error line, no report, no summary.
        import levsketch.problems as problems_mod

        def deficient(a, b):
            raise RankDeficientError("never full rank")

        monkeypatch.setattr(problems_mod, "exact_lstsq", deficient)
        out = tmp_path / "r.csv"
        assert main([*command, *(["--out", str(out)] if command[0] == "bench" else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: gave up after 5 attempts: design matrix came out rank deficient"]
        assert not out.exists()

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


class TestParserBuiltOnce:
    """main builds its parser on the first call and keeps it, so any call
    must behave as the same call in a fresh interpreter."""

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("second", ["usage-error", "help", "solve", "bench"])
    def test_a_later_call_matches_a_fresh_process(self, problem_files, tmp_path, capsys,
                                                  monkeypatch, second):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
        a_path, b_path = map(str, problem_files)
        commands = {
            "usage-error": ["bench", "--threads", "0"],
            "help": ["--help"],
            "solve": ["solve", a_path, b_path, "--exact", "--seed", "3"],
            "bench": ["bench", "--trials", "4", "--samples", "xr:6", "--seed", "14",
                      "--out", str(tmp_path / "r.csv")],
        }
        fresh = subprocess.run([sys.executable, "-m", "levsketch", *commands[second]],
                               capture_output=True, text=True)
        assert fresh.returncode == {"usage-error": 1}.get(second, 0), fresh.stderr
        for first in (name for name in commands if name != second):
            main(commands[first])
            capsys.readouterr()
            assert main(commands[second]) == fresh.returncode
            got = capsys.readouterr()
            assert (got.out, got.err) == (fresh.stdout, fresh.stderr)

    def test_repeated_preset_flag_does_not_accumulate(self, capsys, monkeypatch):
        smoke, runs = cli_mod.PRESETS["smoke"], []

        class Counted:
            def run(self):
                runs.append("smoke")
                return smoke.run()

            def evaluate(self, reports):
                return smoke.evaluate(reports)

        monkeypatch.setitem(cli_mod.PRESETS, "smoke", Counted())
        for _ in range(2):
            assert main(["validate", "--preset", "smoke"]) == 0
        assert runs == ["smoke", "smoke"]
        assert _build_parser().parse_args(["validate"]).preset is None


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
