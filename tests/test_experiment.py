"""Monte Carlo bench harness: configs, trial columns, CSV reports, presets."""

import dataclasses
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import levsketch.experiment as experiment_mod
import levsketch.leverage as leverage_mod
import levsketch.linalg as linalg_mod
import levsketch.problems as problems_mod
from conftest import trial_rows
from levsketch import (
    CSV_COLUMNS,
    AccuracyTarget,
    ChunkScores,
    GenerationFailedError,
    InvalidParameterError,
    InvalidSampleCountError,
    PRESETS,
    ProblemSpec,
    RngStream,
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


def per_value(v):
    """A CSV field by the type of one value: the formatting oracle."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(v).replace(",", ";").replace("\n", " ")


def oracle_lines(report):
    """The header and one row per trial, each field through ``per_value``."""
    return [",".join(CSV_COLUMNS)] + [
        ",".join(per_value(getattr(row, c)) for c in CSV_COLUMNS) for row in trial_rows(report)]


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

    @pytest.mark.parametrize("field", ["master_seed", "n_trials", "cap_samples"])
    def test_integer_fields_reject_non_integral_values(self, field):
        # A float seed was truncated: master_seed=1.9 ran seed 1's trials.
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            small_config(**{field: 2.5})
        small_config(**{field: np.int64(3)})


class TestRunExperiment:
    def test_record_bookkeeping(self):
        cfg = small_config()
        report = run_experiment(cfg)
        rows = trial_rows(report)
        assert len(rows) == 12
        assert [r.trial_id for r in rows] == list(range(12))
        assert [r.rng_stream_index for r in rows] == list(range(1, 13))
        assert all(r.rng_seed == 400 for r in rows)
        assert all(r.rng_algorithm == "philox4x64" for r in rows)
        assert report.s == 24  # xr:8 with rank 3
        assert report.beta == 1.0  # exact leverage sampling
        for rate in (report.success_rate, report.sc1_rate, report.sc2_rate):
            assert 0.0 <= rate <= 1.0

    def test_rerun_is_identical(self):
        cfg = small_config()
        assert trial_rows(run_experiment(cfg)) == trial_rows(run_experiment(cfg))

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
        assert all(r.accuracy_ratio == 1.0 for r in trial_rows(report))
        assert report.implication_violations == 0

    def test_cap_samples_limits_auto_rule(self):
        cfg = small_config(sample_rule="auto", cap_samples=50)
        report = run_experiment(cfg)
        assert report.s == 50

    def test_explicit_rule_used_verbatim(self):
        report = run_experiment(small_config(sample_rule="37"))
        assert report.s == 37

    @staticmethod
    def assert_failure_records(rows, error, sc1_value, sc2_finite):
        """Every trial row carries the failure entries: an inf ratio, nan
        solution error, limits and gamma, false bound verdicts, ``error``,
        and fields of Python types, not numpy scalars."""
        ints, texts = ("trial_id", "s", "rng_seed", "rng_stream_index"), ("error", "rng_algorithm")
        for t, r in enumerate(rows):
            for name, value in vars(r).items():
                want = (int if name in ints else str if name in texts
                        else bool if name.endswith("_holds") or name == "eps_accurate" else float)
                assert type(value) is want, (t, name)
            assert r.error == error
            assert r.accuracy_ratio == math.inf
            for name in ("solution_err_sq", "solution_bound_limit", "gamma",
                         "gamma_bound_limit"):
                assert math.isnan(getattr(r, name)), (t, name)
            assert not (r.eps_accurate or r.solution_bound_holds or r.residual_bound_holds
                        or r.gamma_bound_holds or r.sc1_holds)
            assert r.sc1_value == sc1_value or (math.isnan(sc1_value) and math.isnan(r.sc1_value))
            assert math.isfinite(r.sc2_value) == sc2_finite
            assert (r.rng_algorithm, r.rng_seed, r.rng_stream_index) == (
                "philox4x64", 400, t + 1)

    def test_undersampled_trials_become_failure_records(self):
        # s = 2 < rank 3: every trial fails, nothing raises
        report = run_experiment(small_config(sample_rule="2"))
        rows = trial_rows(report)
        assert report.success_rate == 0.0
        assert all(not r.eps_accurate for r in rows)
        assert report.implication_violations == 0
        assert [(r.trial_id, r.s, r.beta) for r in rows] == [(t, 2, 1.0) for t in range(12)]
        self.assert_failure_records(
            rows, "sketch rank deficient: 2 samples cannot cover rank 3", 0.0, True)

    def test_generation_failure_becomes_failure_records(self, monkeypatch):
        def boom(spec):
            raise GenerationFailedError("nothing full rank today")

        monkeypatch.setattr(experiment_mod, "generate_problem", boom)
        report = run_experiment(small_config(n_trials=5))
        rows = trial_rows(report)
        assert len(rows) == 5
        assert report.success_rate == 0.0
        assert report.s == 0 and math.isnan(report.beta)
        assert [r.trial_id for r in rows] == list(range(5))
        assert all(r.s == 0 and math.isnan(r.beta) and not r.sc2_holds for r in rows)
        self.assert_failure_records(
            rows, "generation failed: nothing full rank today", math.nan, False)

    def test_report_equality_is_identity(self):
        cfg = small_config(n_trials=3)
        report, again = run_experiment(cfg), run_experiment(cfg)
        assert report == report and not (report != report)
        assert report != again and report in [again, report]
        assert hash(report) == hash(report)

    def test_one_factorization_per_problem(self, count_numpy_calls):
        # generation's exact solve is the set-up's: A is factored once
        report = run_experiment(small_config())
        assert report.s == 24  # sketches are not n-row, so trials add nothing
        assert count_numpy_calls(120, names=("qr",)) == count_numpy_calls(120) == 1

    def test_one_leverage_profile_per_problem(self, monkeypatch):
        # generation's profile sets the distribution: the scores of the one
        # QR are computed once
        calls = []
        original = leverage_mod.profile_from_basis

        def counting(basis):
            calls.append(basis)
            return original(basis)

        for module in (leverage_mod, problems_mod, experiment_mod):
            if hasattr(module, "profile_from_basis"):
                monkeypatch.setattr(module, "profile_from_basis", counting)
        report = run_experiment(small_config())
        assert report.beta == 1.0
        assert len(calls) == 1

    @pytest.mark.parametrize("n_trials, per_chunk", [
        pytest.param(3, 3, id="3"), pytest.param(12, 12, id="12"),
        pytest.param(12, 5, id="12-in-chunks-of-5")])
    def test_trial_work_is_one_small_solve(self, count_numpy_calls, monkeypatch, n_trials,
                                           per_chunk):
        # s = 24 sketched rows against n = 120, drawn and scored per_chunk
        # trials at a time.  Every sketch here clears the Gram floor, so each
        # chunk makes one stacked eigvalsh of its trials' 3x3 Gram blocks, and
        # there is no lstsq at all (a sketch below the floor makes one lstsq on
        # its distinct rows: see test_diagnostics.py::TestGramFloor); the one
        # SVD is of the 3x3 factor R.  Draws go through the guide table with
        # no binary search (its fallback is for buckets spanning long
        # zero-probability runs, and this leverage distribution has none), and
        # the two cumsums are the cached CDF over n = 120 rows and the guide
        # table over K + 1 = 129 buckets.
        monkeypatch.setattr(experiment_mod, "CHUNK_DRAWS", 24 * per_chunk)
        report = run_experiment(small_config(n_trials=n_trials))
        assert all(r.error == "" for r in trial_rows(report))
        chunks = [min(per_chunk, n_trials - first) for first in range(0, n_trials, per_chunk)]
        assert count_numpy_calls(None, names=("lstsq",)) == 0
        assert count_numpy_calls(None, names=("eigvalsh",)) == len(chunks)
        assert count_numpy_calls(None, names=("searchsorted",)) == 0
        for size in set(chunks):
            assert count_numpy_calls(3, names=("eigvalsh",), stack=size) == chunks.count(size)
        assert count_numpy_calls(None, names=("svd",)) == count_numpy_calls(3, names=("svd",)) == 1
        assert count_numpy_calls(None, names=("cumsum",)) == 2
        assert count_numpy_calls(120, names=("cumsum",)) == 1
        assert count_numpy_calls(129, names=("cumsum",)) == 1

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


class TestChunkInvariance:
    """Trials are drawn and scored a chunk at a time; a report's bytes must
    not depend on how many trials a chunk holds."""

    SWEEP = PRESETS["implication-sweep"].configs
    CASES = {
        "smoke": PRESETS["smoke"].configs[0],
        # one sweep config of each problem kind
        "incoherent-leverage": SWEEP[0],
        "coherent-uniform": SWEEP[4],
        "consistent-blended": SWEEP[8],
        # s < r; rank-lost and below-floor sketches; s = r + 1
        **{f"120x3-s{s}": small_config(sample_rule=str(s), n_trials=120) for s in (2, 3, 4)},
        # seed 0, and a seed of two 32-bit words (no preset seed reaches 2**32)
        "seed-0": small_config(master_seed=0, n_trials=30),
        "seed-2**63+5": small_config(master_seed=2**63 + 5, n_trials=30),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_report_bytes_do_not_depend_on_chunk_size(self, case, tmp_path, monkeypatch,
                                                      count_numpy_calls):
        cfg = self.CASES[case]
        report = run_experiment(cfg)  # at the default chunk size
        lstsq_calls = count_numpy_calls(None, names=("lstsq",))
        bodies = set()
        for per_chunk in (1, 7, cfg.n_trials):
            monkeypatch.setattr(experiment_mod, "CHUNK_DRAWS", per_chunk * report.s)
            path = tmp_path / f"{per_chunk}.csv"
            write_report(run_experiment(cfg), path)
            lines = path.read_bytes().split(b"\n")
            assert lines[-2].startswith(b"# wall_time_s=")
            bodies.add(b"\n".join(lines[:-2]))
        assert len(bodies) == 1
        if case == "120x3-s3":
            # Both of the scorer's lstsq uses occur: rank-lost sketches, and
            # sketches below the Gram floor that still have full rank.
            lost = sum("lost rank" in r.error for r in trial_rows(report))
            assert 0 < lost < lstsq_calls


def test_report_bytes_do_not_depend_on_the_slab_size(monkeypatch):
    # The set-up's two layout copies are filled SLAB_ROWS rows at a time; one
    # slab of all 20000 rows is the whole-matrix copy, and every byte of the
    # report must be the same either way.
    cfg = small_config(problem=ProblemSpec("gaussian-incoherent", n_rows=20000, n_cols=5,
                                           rhs_cols=2, seed=2601),
                       sample_rule="xr:60", n_trials=20)
    bodies = set()
    for slab in (linalg_mod.SLAB_ROWS, 20000):
        monkeypatch.setattr(linalg_mod, "SLAB_ROWS", slab)
        lines = report_lines(run_experiment(cfg))
        assert lines[-1].startswith("# wall_time_s=")
        bodies.add("\n".join(lines[:-1]))
    assert len(bodies) == 1


def test_desk_shaped_run_does_not_depend_on_the_blas_thread_count():
    # A threaded BLAS dot sums in an order that follows the thread count
    # (OpenBLAS's did at 50000 x 5); the desk problem's norms and report rows
    # must come out the same on one BLAS thread as on two.
    desk = PRESETS["main-theorem-desk"].configs[0]
    assert desk.problem.n_rows == 50000 and desk.problem.seed == 20240501
    code = (
        "import dataclasses\n"
        "from levsketch import PRESETS, generate_problem, report_lines, run_experiment\n"
        "cfg = dataclasses.replace(PRESETS['main-theorem-desk'].configs[0], n_trials=3)\n"
        "exact = generate_problem(cfg.problem)[2]['exact']\n"
        "lines = report_lines(run_experiment(cfg))\n"
        "assert lines[-1].startswith('# wall_time_s=')\n"
        "print(exact.b_norm_sq.hex(), exact.residual_sq.hex(), *lines[:-1], sep='\\n')\n"
    )
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 2 + 1 + 3 + 8  # norms, header, trials, trailer
    assert outputs[0] == outputs[1]


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
        # The header is a file-format contract; CSV_COLUMNS follows ChunkScores.
        assert lines[0] == (
            "trial_id,s,beta,sc1_value,sc1_holds,sc2_value,sc2_holds,accuracy_ratio,"
            "eps_accurate,solution_err_sq,solution_bound_limit,solution_bound_holds,"
            "residual_bound_holds,gamma,gamma_bound_limit,gamma_bound_holds,error,"
            "rng_algorithm,rng_seed,rng_stream_index"
        )
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

    def test_column_formatters_match_per_value_format(self, monkeypatch):
        # Rows come from one % template over the score columns, with the
        # run's constants baked in; the bytes must equal those of the
        # per-value type dispatch applied to the trial rows.
        monkeypatch.setattr(RngStream, "algorithm_id", "x\ny,%d")
        report = run_experiment(small_config(n_trials=4, master_seed=0))
        columns = {name: column.copy() for name, column in report.scores._asdict().items()}
        specials = [
            dict(sc1_value=math.nan, gamma=-math.inf, accuracy_ratio=math.inf,
                 sc2_holds=True, eps_accurate=False, error="lost rank, see\nbelow, twice"),
            dict(sc2_value=5e-324, solution_err_sq=1.7976931348623157e308,
                 solution_bound_limit=0.1),
            dict(gamma_bound_limit=-1e-300, error="a,b\n,c"),
        ]
        for t, values in enumerate(specials):
            for name, value in values.items():
                columns[name][t] = value
        report = dataclasses.replace(report, scores=ChunkScores(**columns), beta=-0.0,
                                     success_rate=math.inf, sc1_rate=0.25)
        got = report_lines(report)
        assert got[:5] == oracle_lines(report)
        assert got[7:10] == ["# beta=-0", "# success_rate=inf", "# sc1_rate=0.25"]
        assert got[1].startswith("0,24,-0,nan,")
        assert ",a;b ;c," in got[3] and got[3].endswith(",x y;%d,0,3")
        assert "1.7976931348623157e+308" in got[2] and "4.9406564584124654e-324" in got[2]

    @pytest.mark.parametrize("case", [
        *(pytest.param(cfg, id=f"{name}-{i}")
          for name, preset in PRESETS.items() for i, cfg in enumerate(preset.configs)),
        pytest.param(small_config(sample_rule="2"), id="s<r"),
        pytest.param("generation-failure", id="generation-failure"),
    ])
    def test_report_lines_equal_the_per_value_oracle(self, case, monkeypatch):
        if case == "generation-failure":
            def boom(spec):
                raise GenerationFailedError("nothing, full\nrank today")

            monkeypatch.setattr(experiment_mod, "generate_problem", boom)
            case = small_config(n_trials=5)
        report = run_experiment(case)
        got = report_lines(report)
        assert got[:-9] == oracle_lines(report)
        assert got[-9:-1] == [
            f"# n_trials={case.n_trials}", f"# s={report.s}",
            f"# beta={format(report.beta, '.17g')}",
            *(f"# {k}={format(getattr(report, k), '.17g')}"
              for k in ("success_rate", "sc1_rate", "sc2_rate")),
            f"# implication_violations={report.implication_violations}",
            f"# master_seed={case.master_seed}",
        ]

    @pytest.mark.parametrize("block", [1, 5, 12, 13])
    def test_write_report_streams_the_report_lines(self, block, tmp_path, monkeypatch):
        # Rows are written REPORT_BLOCK trials at a time; the bytes are the
        # joined report_lines whatever the block size.
        report = run_experiment(small_config(sample_rule="3", n_trials=12))
        want = "\n".join(report_lines(report)) + "\n"
        monkeypatch.setattr(experiment_mod, "REPORT_BLOCK", block)
        path = tmp_path / "report.csv"
        write_report(report, path)
        assert path.read_bytes() == want.encode()
        assert "\n".join(report_lines(report)) + "\n" == want

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

    # pytest runs only smoke's configs; the other presets' checks are fed
    # stub reports at and just below each threshold.
    @pytest.mark.parametrize("name, attr, rate", [
        ("main-theorem-desk", "success_rate", 0.8),
        ("sc2-markov-desk", "sc2_rate", 0.75),
    ])
    def test_rate_check_passes_at_its_threshold_and_fails_below(self, name, attr, rate):
        preset = PRESETS[name]
        (cfg,) = preset.configs
        assert rate == pytest.approx(1.0 - cfg.target.delta)
        threshold = rate - 3.0 * math.sqrt(rate * (1.0 - rate) / cfg.n_trials)
        for value, ok in ((threshold, True), (float(np.nextafter(threshold, 0.0)), False)):
            report = SimpleNamespace(**{attr: value}, implication_violations=0)
            assert preset.evaluate([report]) == [
                (attr, ok, f"{attr}={value:.4f} threshold={threshold:.4f}"),
                ("implication_violations", True, "implication_violations=0"),
            ]

    def test_leverage_vs_uniform_check_passes_at_a_tie_and_fails_below(self):
        preset = PRESETS["leverage-vs-uniform"]
        assert [c.distribution for c in preset.configs] == ["leverage", "uniform"]
        for lev, ok in ((0.5, True), (float(np.nextafter(0.5, 0.0)), False), (1.0, True)):
            reports = [SimpleNamespace(success_rate=lev),
                       SimpleNamespace(success_rate=0.5)]
            assert preset.evaluate(reports) == [
                ("leverage_beats_uniform", ok, f"leverage={lev:.4f} uniform=0.5000")]

    def test_evaluate_shape(self):
        preset = PRESETS["smoke"]
        results = preset.evaluate(preset.run())
        for name, ok, detail in results:
            assert isinstance(name, str)
            assert isinstance(ok, bool)
            assert "=" in detail
