"""Monte Carlo bench harness: configs, trial records, CSV reports, presets."""

import numpy as np
import pytest

import levsketch.experiment as experiment_mod
from levsketch import (
    CSV_COLUMNS,
    AccuracyTarget,
    GenerationFailedError,
    InvalidParameterError,
    InvalidSampleCountError,
    PRESETS,
    ProblemSpec,
    TrialConfig,
    parse_distribution_spec,
    parse_sample_rule,
    report_lines,
    run_experiment,
    write_report,
)


def small_config(**overrides):
    base = dict(
        problem=ProblemSpec("gaussian-incoherent", n_rows=120, n_cols=3, rhs_cols=2, seed=21),
        distribution="leverage",
        sample_rule="xr:8",
        target=AccuracyTarget(0.3, 0.3),
        n_trials=12,
        master_seed=400,
    )
    base.update(overrides)
    return TrialConfig(**base)


class TestParsers:
    def test_distribution_forms(self):
        assert parse_distribution_spec("leverage") == ("leverage", 0.0)
        assert parse_distribution_spec("uniform") == ("uniform", 0.0)
        assert parse_distribution_spec("blended:0.25") == ("blended", 0.25)

    def test_distribution_errors(self):
        for bad in ("unknown", "blended", "blended:x", "blended:1.5", "leverage:2"):
            with pytest.raises(InvalidParameterError):
                parse_distribution_spec(bad)

    def test_sample_rule_forms(self):
        assert parse_sample_rule("auto") == ("auto", 0)
        assert parse_sample_rule("500") == ("explicit", 500)
        assert parse_sample_rule("xr:12") == ("xr", 12)
        assert parse_sample_rule("xR:12") == ("xr", 12)

    def test_sample_rule_errors(self):
        for bad in ("0", "-3", "xr:0", "xr:many", "sometimes"):
            with pytest.raises(InvalidParameterError):
                parse_sample_rule(bad)


class TestTrialConfigValidation:
    def test_bad_distribution_rejected_eagerly(self):
        with pytest.raises(InvalidParameterError):
            small_config(distribution="bogus")

    def test_bad_sample_rule_rejected_eagerly(self):
        with pytest.raises(InvalidParameterError):
            small_config(sample_rule="whenever")

    def test_n_trials_positive(self):
        with pytest.raises(InvalidParameterError):
            small_config(n_trials=0)

    def test_cap_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            small_config(cap_samples=-1)


class TestRunExperiment:
    def test_record_bookkeeping(self):
        cfg = small_config()
        report = run_experiment(cfg)
        assert len(report.records) == 12
        assert [r.trial_id for r in report.records] == list(range(12))
        assert [r.rng_stream_index for r in report.records] == list(range(1, 13))
        assert all(r.rng_seed == 400 for r in report.records)
        assert all(r.rng_algorithm == "philox4x64" for r in report.records)
        assert report.s == 24  # xr:8 with rank 3
        assert report.beta == 1.0  # exact leverage sampling
        for rate in (report.success_rate, report.sc1_rate, report.sc2_rate):
            assert 0.0 <= rate <= 1.0

    def test_rerun_is_identical(self):
        cfg = small_config()
        assert run_experiment(cfg).records == run_experiment(cfg).records

    def test_consistent_problem_oversampled_is_always_exact(self):
        # zero-residual path: ratio is exactly 1.0 on every trial
        cfg = TrialConfig(
            problem=ProblemSpec("consistent", n_rows=60, n_cols=3, seed=31),
            distribution="leverage",
            sample_rule="600",  # 10x the row count
            target=AccuracyTarget(0.1, 0.1),
            n_trials=8,
            master_seed=77,
        )
        report = run_experiment(cfg)
        assert report.success_rate == 1.0
        assert all(r.accuracy_ratio == 1.0 for r in report.records)
        assert report.implication_violations == 0

    def test_cap_samples_limits_auto_rule(self):
        cfg = small_config(sample_rule="auto", cap_samples=50)
        report = run_experiment(cfg)
        assert report.s == 50

    def test_explicit_rule_used_verbatim(self):
        report = run_experiment(small_config(sample_rule="37"))
        assert report.s == 37

    def test_undersampled_trials_become_failure_records(self):
        # s = 2 < rank 3: every trial fails, nothing raises
        report = run_experiment(small_config(sample_rule="2"))
        assert report.success_rate == 0.0
        assert all("rank" in r.error for r in report.records)
        assert all(not r.eps_accurate for r in report.records)
        assert all(r.sc1_value == 0.0 for r in report.records)
        assert report.implication_violations == 0

    def test_generation_failure_becomes_failure_records(self, monkeypatch):
        def boom(spec):
            raise GenerationFailedError("nothing full rank today")

        monkeypatch.setattr(experiment_mod, "generate_problem", boom)
        report = run_experiment(small_config(n_trials=5))
        assert len(report.records) == 5
        assert all("generation failed" in r.error for r in report.records)
        assert report.success_rate == 0.0

    def test_one_factorization_in_generation_and_one_in_setup(self, count_numpy_calls):
        report = run_experiment(small_config())
        assert report.s == 24  # sketches are not n-row, so trials add nothing
        assert count_numpy_calls(120) == 2

    @pytest.mark.parametrize("n_trials", [3, 12])
    def test_trial_work_is_one_small_solve(self, count_numpy_calls, n_trials):
        # s = 24 sketched rows against n = 120: each trial makes one
        # 24-row lstsq and nothing else; the SVDs are of the 3x3 factor R
        # (generation and set-up) and the one cumsum is the cached CDF.
        report = run_experiment(small_config(n_trials=n_trials))
        assert all(r.error == "" for r in report.records)
        assert count_numpy_calls(24, names=("lstsq",)) == n_trials
        assert count_numpy_calls(None, names=("lstsq",)) == n_trials
        assert count_numpy_calls(None, names=("svd",)) == count_numpy_calls(3, names=("svd",)) == 2
        assert count_numpy_calls(None, names=("cumsum",)) == 1

    def test_uniform_beta_is_measured(self):
        # on a coherent instance uniform sampling misestimates leverage badly
        cfg = TrialConfig(
            problem=ProblemSpec(
                "spiked-coherent", n_rows=200, n_cols=3, coherence_target=0.9, seed=8
            ),
            distribution="uniform",
            sample_rule="xr:10",
            target=AccuracyTarget(0.3, 0.3),
            n_trials=4,
            master_seed=5,
        )
        report = run_experiment(cfg)
        # beta = r/(N * max score) at best: 3/(200*0.9) = 0.0167
        assert report.beta <= 3 / (200 * 0.9) + 1e-12
        assert report.beta > 0.0


class TestSampleCount:
    huge = AccuracyTarget(1e-6, 1e-6)  # the auto rule asks for ~5e12 rows

    def test_over_budget_rejected(self):
        with pytest.raises(InvalidSampleCountError, match="--cap-samples"):
            experiment_mod.sample_count("auto", 5, 1.0, self.huge)
        with pytest.raises(InvalidSampleCountError, match="--samples"):
            experiment_mod.sample_count(str(experiment_mod.MAX_SAMPLES + 1), 5, 1.0, self.huge)

    def test_cap_applies_before_budget(self):
        assert experiment_mod.sample_count("auto", 5, 1.0, self.huge, cap=1000) == 1000
        budget = experiment_mod.MAX_SAMPLES
        assert experiment_mod.sample_count(str(budget), 5, 1.0, self.huge) == budget


class TestReportFormat:
    def test_header_and_column_count(self):
        report = run_experiment(small_config(n_trials=3))
        lines = report_lines(report)
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(CSV_COLUMNS) == 20
        for row in lines[1:4]:
            assert len(row.split(",")) == 20

    def test_trailer_block(self):
        report = run_experiment(small_config(n_trials=3))
        lines = report_lines(report)
        trailer = [l for l in lines if l.startswith("#")]
        keys = [l.split("=")[0] for l in trailer]
        assert keys == [
            "# n_trials",
            "# s",
            "# beta",
            "# success_rate",
            "# sc1_rate",
            "# sc2_rate",
            "# implication_violations",
            "# master_seed",
            "# wall_time_s",
        ]
        assert lines[-1].startswith("# wall_time_s=")

    def test_booleans_and_specials_rendered(self):
        # an undersampled trial keeps its structural values but the solve
        # fails, exercising nan, inf, and false in one row
        report = run_experiment(small_config(sample_rule="2", n_trials=1))
        row = report_lines(report)[1].split(",")
        cols = dict(zip(CSV_COLUMNS, row))
        assert cols["sc1_value"] == "0"
        assert cols["solution_err_sq"] == "nan"
        assert cols["gamma"] == "nan"
        assert cols["accuracy_ratio"] == "inf"
        assert cols["eps_accurate"] == "false"
        assert cols["sc1_holds"] == "false"

    def test_written_bytes_stable_modulo_wall_time(self, tmp_path):
        cfg = small_config()
        p1 = tmp_path / "r1.csv"
        p2 = tmp_path / "r2.csv"
        write_report(run_experiment(cfg), p1)
        write_report(run_experiment(cfg), p2)

        def body(p):
            return [l for l in p.read_bytes().split(b"\n") if not l.startswith(b"# wall_time_s")]

        assert body(p1) == body(p2)


class TestPresets:
    def test_registry_contents(self):
        assert set(PRESETS) == {
            "main-theorem-desk",
            "sc2-markov-desk",
            "implication-sweep",
            "leverage-vs-uniform",
            "smoke",
        }
        for name, preset in PRESETS.items():
            assert preset.name == name
            assert preset.configs
            assert preset.checks
            assert preset.description

    def test_smoke_preset_passes(self):
        preset = PRESETS["smoke"]
        results = preset.evaluate(preset.run())
        assert all(ok for _, ok, _ in results)

    def test_evaluate_shape(self):
        preset = PRESETS["smoke"]
        results = preset.evaluate(preset.run())
        for name, ok, detail in results:
            assert isinstance(name, str)
            assert isinstance(ok, bool)
            assert "=" in detail
