"""Trial streams drawn a chunk at a time against the RngStream oracle.

``TrialStreams`` derives the Philox keys of many streams in one vectorized
pass and fills their uniforms from one reused Philox; every key, uniform and
multiset must equal what ``RngStream`` (one ``SeedSequence`` and one
``Philox`` per stream) gives, bit for bit.  The key derivation depends on
``SeedSequence``'s mixing and on the layout of ``Philox.state``, so CI also
runs this file on the oldest supported numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import levsketch.experiment as experiment_mod
from levsketch import (
    AccuracyTarget,
    InvalidParameterError,
    ProblemSpec,
    RngStream,
    SamplingDistribution,
    TrialConfig,
    multinomial_draws,
    report_lines,
    run_experiment,
)
from levsketch.sketch import SketchChunk, TrialStreams, draw_chunk

EDGE_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 915247,
              *np.random.default_rng(16).integers(0, 2**64, 20, dtype=np.uint64).tolist()]
EDGE_INDICES = [0, 1, 2, 3, 100, 65535, 2**31, 2**32 - 1]


def seed_sequence_key(seed, index):
    return np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_keys_equal_seed_sequence_on_edge_seeds_and_indices(seed):
    streams = TrialStreams(seed)
    for index in EDGE_INDICES:
        key = streams.keys(range(index, index + 1))
        assert key.dtype == np.uint64 and key.shape == (1, 2)
        np.testing.assert_array_equal(key[0], seed_sequence_key(seed, index))
    block = streams.keys(range(0, 2**32, 2**32 // 7))
    np.testing.assert_array_equal(
        block, [seed_sequence_key(seed, i) for i in range(0, 2**32, 2**32 // 7)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=6))
def test_keys_equal_seed_sequence(seed, first, count):
    stop = min(first + count, 2**32)
    want = [seed_sequence_key(seed, i) for i in range(first, stop)]
    got = TrialStreams(seed).keys(range(first, stop))
    assert got.shape == (stop - first, 2)
    np.testing.assert_array_equal(got, np.array(want, dtype=np.uint64).reshape(-1, 2))


@pytest.mark.parametrize("seed", [0, 12345, 2**32, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("s", [1, 2, 3, 5, 7, 1001])
def test_uniforms_equal_rng_streams(seed, s):
    streams = TrialStreams(seed)
    for indices in (range(4, 5), range(0, 9), range(2**32 - 3, 2**32)):
        want = np.stack([RngStream(seed, i).generator.random(s) for i in indices])
        np.testing.assert_array_equal(streams.uniforms(s, indices), want)
    # The reused generator carries nothing from one block to the next.
    np.testing.assert_array_equal(streams.uniforms(s, range(4, 5))[0],
                                  RngStream(seed, 4).generator.random(s))


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
@pytest.mark.parametrize("s", [1, 3, 7, 31])
@pytest.mark.parametrize("indices", [range(5, 6), range(1, 13)], ids=["chunk-of-1", "chunk-of-T"])
def test_chunk_multisets_equal_rng_streams(seed, s, indices):
    p = SamplingDistribution(probs=np.array([0.5, 0.0, 0.125, 0.25, 0.0, 0.125]))
    chunk = draw_chunk(p, s, TrialStreams(seed), indices)
    assert chunk.offsets.size == len(indices) + 1
    for t, index in enumerate(indices):
        rows, counts = np.unique(multinomial_draws(p, s, RngStream(seed, index)),
                                 return_counts=True)
        lo, hi = chunk.offsets[t], chunk.offsets[t + 1]
        np.testing.assert_array_equal(chunk.unique_rows[lo:hi], rows)
        np.testing.assert_array_equal(chunk.weight_sq_sums[lo:hi], counts / (s * p.probs[rows]))


def test_bad_seeds_and_indices_rejected():
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(InvalidParameterError):
            TrialStreams(seed)
    for indices in (range(-1, 2), range(2**32 - 1, 2**32 + 1)):
        with pytest.raises(InvalidParameterError, match="stream indices"):
            TrialStreams(3).keys(indices)


@pytest.mark.parametrize("master_seed", [0, 2**63 + 5])
def test_run_matches_a_run_drawn_through_rng_streams(master_seed, monkeypatch):
    cfg = TrialConfig(
        problem=ProblemSpec("spiked-coherent", 200, 3, rhs_cols=2, coherence_target=0.9,
                            seed=44),
        distribution="blended:0.5", sample_rule="xr:4", target=AccuracyTarget(0.3, 0.3),
        n_trials=25, master_seed=master_seed)
    want = report_lines(run_experiment(cfg))[:-1]

    def oracle_draw_chunk(p, s, streams, stream_indices):
        rows, sums, offsets = [], [], [0]
        for i in stream_indices:
            unique, counts = np.unique(multinomial_draws(p, s, RngStream(streams.seed, i)),
                                       return_counts=True)
            rows.append(unique)
            sums.append(counts / (s * p.probs[unique]))
            offsets.append(offsets[-1] + unique.size)
        return SketchChunk(p.n_rows, s, np.concatenate(rows), np.concatenate(sums),
                           np.array(offsets))

    monkeypatch.setattr(experiment_mod, "draw_chunk", oracle_draw_chunk)
    monkeypatch.setattr(experiment_mod, "CHUNK_DRAWS", 7 * 12)
    assert report_lines(run_experiment(cfg))[:-1] == want


def test_trial_loop_builds_no_stream_per_trial(monkeypatch):
    # Problem generation builds one RngStream (one SeedSequence and one
    # Philox) and a run's TrialStreams one SeedSequence (for its pool) and
    # one Philox, whatever the trial count.
    counts = {}
    for name in ("SeedSequence", "Philox"):
        original = getattr(np.random, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    built = []
    for n_trials, per_chunk in ((2, 2), (40, 40), (40, 1)):
        counts.update(SeedSequence=0, Philox=0)
        monkeypatch.setattr(experiment_mod, "CHUNK_DRAWS", 24 * per_chunk)
        cfg = TrialConfig(problem=ProblemSpec("gaussian-incoherent", 120, 3, seed=21),
                          sample_rule="xr:8", n_trials=n_trials, master_seed=400)
        assert run_experiment(cfg).s == 24
        built.append(dict(counts))
    assert built == [{"SeedSequence": 2, "Philox": 2}] * 3


def test_trial_count_bound():
    # Trial t draws from stream t + 1, which must fit one 32-bit word.
    assert experiment_mod.MAX_TRIALS <= 2**32 - 1
    base = dict(problem=ProblemSpec("gaussian-incoherent", 120, 3, seed=21))
    assert TrialConfig(**base, n_trials=experiment_mod.MAX_TRIALS).n_trials == \
        experiment_mod.MAX_TRIALS
    for n_trials in (experiment_mod.MAX_TRIALS + 1, 2**32):
        with pytest.raises(InvalidParameterError, match="n_trials"):
            TrialConfig(**base, n_trials=n_trials)
