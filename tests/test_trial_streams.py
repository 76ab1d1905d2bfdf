"""Trial streams drawn a chunk at a time against the RngStream oracle.

Stream ``(seed, i)`` is the seed's stream-0 Philox (keyed by
``SeedSequence(seed, spawn_key=(0,))``) jumped ``i`` times.
``TrialStreams`` fills a chunk's uniforms from one reused Philox, writing
each stream's counter words; every uniform and multiset must equal what
``RngStream`` (and numpy's own ``Philox.jumped``) gives, bit for bit.  This
depends on the layout of ``Philox.state``, so CI also runs this file on the
oldest supported numpy.
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
EDGE_INDICES = [0, 1, 2, 3, 100, 65535, 2**31, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 3,
                2**128 - 1]


def jumped_generator(seed, index):
    philox = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,)))
    return np.random.Generator(philox.jumped(index))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_streams_equal_jumped_philox_on_edge_seeds_and_indices(seed):
    streams = TrialStreams(seed)
    key = np.random.SeedSequence(seed, spawn_key=(0,)).generate_state(2, np.uint64)
    for index in EDGE_INDICES:
        want = jumped_generator(seed, index).random(9)  # past two 4-word Philox blocks
        stream = RngStream(seed, index)
        state = stream.generator.bit_generator.state
        np.testing.assert_array_equal(state["state"]["key"], key)
        np.testing.assert_array_equal(state["state"]["counter"],
                                      [0, 0, index % 2**64, index >> 64])
        assert state["buffer_pos"] == 4
        np.testing.assert_array_equal(stream.generator.random(9), want)
        np.testing.assert_array_equal(streams.uniforms(9, range(index, index + 1)), [want])
    block = range(0, 2**70, 2**70 // 7)
    np.testing.assert_array_equal(streams.uniforms(5, block),
                                  [jumped_generator(seed, i).random(5) for i in block])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**128 - 1),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=1, max_value=9))
def test_uniforms_equal_jumped_philox(seed, first, count, s):
    stop = min(first + count, 2**128)
    got = TrialStreams(seed).uniforms(s, range(first, stop))
    assert got.shape == (stop - first, s)
    np.testing.assert_array_equal(
        got, np.reshape([jumped_generator(seed, i).random(s) for i in range(first, stop)],
                        (-1, s)))


@pytest.mark.parametrize("seed", [0, 12345, 2**32, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("s", [1, 2, 3, 5, 7, 1001])
def test_uniforms_equal_rng_streams(seed, s):
    streams = TrialStreams(seed)
    for indices in (range(4, 5), range(0, 9), range(2**32 - 3, 2**32),
                    range(2**64 - 2, 2**64 + 2)):
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
    for index in (-1, 2**128):
        with pytest.raises(InvalidParameterError, match="stream_index"):
            RngStream(3, index)
    # Jumps wrap at 2**128, where two indices would name one stream.
    for indices in (range(-1, 2), range(2**128 - 1, 2**128 + 1)):
        with pytest.raises(InvalidParameterError, match="stream_index"):
            TrialStreams(3).uniforms(2, indices)


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
    # Problem generation builds one RngStream and a run's TrialStreams
    # another, each one SeedSequence and one Philox (which jumped() copies),
    # whatever the trial count: a trial only writes two counter words.
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
    # The bound holds a run's report in memory; any count over it fails
    # before the problem is generated.
    base = dict(problem=ProblemSpec("gaussian-incoherent", 120, 3, seed=21))
    assert TrialConfig(**base, n_trials=experiment_mod.MAX_TRIALS).n_trials == \
        experiment_mod.MAX_TRIALS
    for n_trials in (experiment_mod.MAX_TRIALS + 1, 2**32):
        with pytest.raises(InvalidParameterError, match="n_trials"):
            TrialConfig(**base, n_trials=n_trials)
