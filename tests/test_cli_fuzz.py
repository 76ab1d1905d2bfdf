"""Argument fuzz over all four subcommands: whatever the flags and inputs,
``cli.main`` returns an exit code of the contract (0, 1, 2 or 3), never
raises, and never prints a traceback.

Inputs are tiny Matrix Market files (a good pair, a wide matrix, a
rank-deficient one, a right-hand side whose squared norm overflows, a
malformed file and a missing path) and config files.  Trial counts, sample
counts and accuracy targets come from small sets, so every example runs in
milliseconds; ``validate`` always names a preset, since all of them together
take seconds.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from levsketch import write_matrix
from levsketch.cli import main


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(2026)
    a = rng.standard_normal((30, 3))
    files = {
        "a": a,
        "b": a @ rng.standard_normal((3, 2)) + rng.standard_normal((30, 2)),
        "wide": rng.standard_normal((2, 5)),
        "deficient": np.column_stack([a[:, 0], a[:, 0], a[:, 1]]),
        "huge": 1e307 * rng.standard_normal((30, 2)),
    }
    paths = {}
    for name, m in files.items():
        paths[name] = str(d / f"{name}.mtx")
        write_matrix(paths[name], m)
    paths["malformed"] = str(d / "malformed.mtx")
    (d / "malformed.mtx").write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\nx\n")
    paths["missing"] = str(d / "missing.mtx")
    configs = {
        "generated": "kind = spiked-coherent\nn_rows = 40\nn_cols = 3\n"
                     "coherence_target = 0.9\ntrials = 2\n",
        "consistent": "kind = consistent\nn_rows = 25\nn_cols = 2\nrhs_cols = 1\ntrials = 3\n",
        "files": f"kind = custom-file\na_file = {paths['a']}\nb_file = {paths['b']}\n"
                 "trials = 2\n",
        "overflow": f"kind = custom-file\na_file = {paths['a']}\nb_file = {paths['huge']}\n"
                    "trials = 2\n",
        "deficient": f"kind = custom-file\na_file = {paths['deficient']}\n"
                     f"b_file = {paths['b']}\ntrials = 2\n",
        "too-big": "n_rows = 100000000\nn_cols = 40\ntrials = 1\n",
        "noise-overflow": "n_rows = 50\nn_cols = 3\nnoise_scale = 1e308\ntrials = 3\n",
        "unknown-key": "colour = blue\n",
        "garbage": "???\n",
    }
    for name, text in configs.items():
        paths[f"{name}.cfg"] = str(d / f"{name}.cfg")
        (d / f"{name}.cfg").write_text(text)
    paths["out"] = str(d / "out.txt")
    paths["dir"] = str(d)
    paths["no-dir"] = str(d / "missing" / "out.txt")
    return paths


# Each flag's values: valid ones (listed three times, so most examples get
# past the flag checks to the work) and invalid ones.
def values(valid, invalid):
    return valid * 3 + invalid


FLOATS = values(["0.1", "0.3", "0.9"], ["0", "1", "2", "-0.5", "nan", "inf", "1e-310",
                                        "5e-324", "x"])
SAMPLES = values(["auto", "1", "2", "7", "40", "xr:2", "xR:3"],
                 ["0", "-3", "xr:0", "xr:x", "later", "100000000", str(10**30)])
DISTS = values(["leverage", "uniform", "blended:0.5", "blended:0", "blended:1", "LEVERAGE"],
               ["blended:abc", "blended:2", "psychic", ""])
SEEDS = values(["0", "7", str(2**64 - 1)], ["-1", str(2**64), "x"])
COUNTS = values(["1", "2", "3"], ["0", "-1", "x"])
THREADS = values(["1", "2"], ["0", "-4", "x"])
FILES = ["a", "b", "wide", "deficient", "huge", "malformed", "missing"]
OUTS = ["out", "dir", "no-dir", ""]


def flag(name, choices):
    return st.lists(st.sampled_from(choices), max_size=1).map(
        lambda vs: [tok for v in vs for tok in (name, v)])


def path_flag(name, keys, paths):
    return st.lists(st.sampled_from(keys), max_size=1).map(
        lambda ks: [tok for k in ks for tok in (name, paths.get(k, k))])


def operands(count, paths):
    """``count`` matrix files, now and then one fewer or one more."""
    return st.sampled_from([count] * 4 + [count - 1, count + 1]).flatmap(
        lambda k: st.lists(st.sampled_from(FILES), min_size=k, max_size=k)
    ).map(lambda ks: [paths[k] for k in ks])


def argv_strategy(paths):
    out = path_flag("--out", OUTS, paths)
    extra = st.lists(st.sampled_from(["--bogus", "-h", "--exact", "stray"]), max_size=1)
    solve = st.tuples(
        st.just(["solve"]), operands(2, paths),
        flag("--dist", DISTS), flag("--samples", SAMPLES), flag("--epsilon", FLOATS),
        flag("--delta", FLOATS), flag("--seed", SEEDS), out,
        st.lists(st.just("--exact"), max_size=1), extra,
    )
    leverage = st.tuples(
        st.just(["leverage"]), operands(1, paths),
        out, extra,
    )
    configs = [k for k in paths if k.endswith(".cfg")] + ["missing"]
    bench = st.tuples(
        st.just(["bench"]),
        path_flag("--config", configs, paths),
        st.sampled_from(COUNTS).map(lambda n: ["--trials", n]),
        flag("--dist", DISTS), flag("--samples", SAMPLES), flag("--epsilon", FLOATS),
        flag("--delta", FLOATS), flag("--seed", SEEDS), flag("--cap-samples", COUNTS),
        flag("--threads", THREADS), out, extra,
    )
    validate = st.tuples(
        st.just(["validate"]),
        st.lists(st.sampled_from(["smoke", "nonesuch", ""]), min_size=1, max_size=2).map(
            lambda names: [tok for n in names for tok in ("--preset", n)]),
        flag("--threads", THREADS), extra,
    )
    return st.one_of(solve, leverage, bench, validate).map(
        lambda parts: [tok for part in parts for tok in part])


def test_every_argv_ends_in_a_contract_exit_code(inputs, monkeypatch):
    monkeypatch.chdir(inputs["dir"])  # bench writes report.csv here by default
    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv_strategy(inputs))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if code in (1, 2):
            assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())

    run()
