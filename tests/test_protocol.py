import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orthologic import ProtocolConfig, ProtocolStats, protocol, run_detection_protocol

import oracles


def test_quiet_channel_never_disagrees():
    stats = run_detection_protocol(ProtocolConfig(rounds=100_000, seed=7))
    assert stats.disagreements == 0
    assert stats.disagreement_rate == 0.0
    assert not stats.detected


def test_full_interception_disturbs_a_quarter():
    config = ProtocolConfig(
        rounds=100_000, seed=42, eavesdrop_fraction=1.0, strategy="intercept-resend"
    )
    stats = run_detection_protocol(config)
    assert abs(stats.disagreement_rate - 0.25) < 0.01
    assert stats.detected


def test_half_interception_scales_linearly():
    config = ProtocolConfig(
        rounds=100_000, seed=42, eavesdrop_fraction=0.5, strategy="intercept-resend"
    )
    stats = run_detection_protocol(config)
    assert abs(stats.disagreement_rate - 0.125) < 0.01


def test_quarter_interception():
    config = ProtocolConfig(
        rounds=100_000, seed=9, eavesdrop_fraction=0.25, strategy="intercept-resend"
    )
    assert abs(run_detection_protocol(config).disagreement_rate - 0.0625) < 0.01


def test_bit_identical_reruns():
    config = ProtocolConfig(
        rounds=50_000, seed=123, eavesdrop_fraction=0.8, strategy="intercept-resend"
    )
    first = run_detection_protocol(config)
    second = run_detection_protocol(config)
    assert first == second
    assert isinstance(first, ProtocolStats)


def test_different_seeds_differ():
    base = dict(rounds=50_000, eavesdrop_fraction=1.0, strategy="intercept-resend")
    first = run_detection_protocol(ProtocolConfig(seed=1, **base))
    second = run_detection_protocol(ProtocolConfig(seed=2, **base))
    assert first.disagreements != second.disagreements


def test_counts_are_consistent():
    config = ProtocolConfig(
        rounds=10_000, seed=5, eavesdrop_fraction=1.0, strategy="intercept-resend"
    )
    stats = run_detection_protocol(config)
    assert stats.disagreements <= stats.compared <= stats.rounds
    assert stats.disagreement_rate == stats.disagreements / stats.compared
    assert stats.detected == (stats.disagreements > 0)


def test_intercept_strategy_with_zero_fraction_is_quiet():
    config = ProtocolConfig(
        rounds=20_000, seed=11, eavesdrop_fraction=0.0, strategy="intercept-resend"
    )
    assert run_detection_protocol(config).disagreements == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rounds=0, seed=1),
        dict(rounds=-5, seed=1),
        dict(rounds=10, seed=-1),
        dict(rounds=10, seed=2**64),
        dict(rounds=10, seed=1, eavesdrop_fraction=1.5),
        dict(rounds=10, seed=1, strategy="replay"),
        dict(rounds=True, seed=1),
        dict(rounds=10, seed=False),
        dict(rounds=10, seed=1, eavesdrop_fraction=True, strategy="intercept-resend"),
        dict(rounds=True, seed=False, eavesdrop_fraction=True, strategy="intercept-resend"),
        dict(rounds=10, seed=1, eavesdrop_fraction="0.5"),
        dict(rounds=10, seed=1, eavesdrop_fraction=None, strategy="intercept-resend"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ProtocolConfig(**kwargs)


def test_memory_stays_within_a_chunk():
    # below fraction 1 the `active` stream adds one 8-byte word per round of a chunk
    for fraction in (0.5, 1.0):
        config = ProtocolConfig(
            rounds=1_000_003, seed=3, eavesdrop_fraction=fraction, strategy="intercept-resend"
        )
        tracemalloc.start()
        try:
            run_detection_protocol(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, fraction


def test_counts_do_not_depend_on_the_chunk_size(monkeypatch):
    rounds = 100_003  # a multiple of none of the chunk sizes
    config = ProtocolConfig(
        rounds=rounds, seed=17, eavesdrop_fraction=0.6, strategy="intercept-resend"
    )
    results = []
    for chunk in (8, 1000, 4096, 65536, rounds + 1):
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        results.append(run_detection_protocol(config))
    assert all(result == results[0] for result in results)


@pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
def test_rate_within_binomial_bound(fraction):
    rounds = 200_003
    config = ProtocolConfig(
        rounds=rounds, seed=29, eavesdrop_fraction=fraction, strategy="intercept-resend"
    )
    p = fraction / 4
    spread = 6 * math.sqrt(rounds * p * (1 - p))
    assert abs(run_detection_protocol(config).disagreements - rounds * p) <= spread


@pytest.mark.parametrize("fraction", [0, 2**-60, 0.3, 1 - 2**-53, 1.0])
@pytest.mark.parametrize("seed", [0, 5, 2**63 + 7])
@pytest.mark.parametrize("rounds", [1, 4099, 2 * 4096 + 13, 2 * 65536 + 13])
def test_counts_match_drawing_every_stream(monkeypatch, fraction, seed, rounds):
    # rounds are not multiples of the chunk, so the last chunk is short; the
    # longest run keeps the library's own chunk, the others use a 4096 chunk
    assert protocol._CHUNK == 65536
    chunk = protocol._CHUNK if rounds > 2 * protocol._CHUNK else 4096
    monkeypatch.setattr(protocol, "_CHUNK", chunk)
    config = ProtocolConfig(
        rounds=rounds, seed=seed, eavesdrop_fraction=fraction, strategy="intercept-resend"
    )
    expected = oracles.drawn_protocol_disagreements(config, chunk=chunk)
    assert run_detection_protocol(config).disagreements == expected


@given(f=st.floats(0.0, 1.0, exclude_max=True), r=st.integers(0, 2**64 - 1))
@example(f=0.0, r=0)
@example(f=2**-60, r=2**11)
@example(f=0.3, r=2**64 - 1)
@example(f=1 - 2**-53, r=2**64 - 2**11)
def test_interception_threshold_is_the_uniform_draw(f, r):
    # Generator.random() is (r >> 11)·2⁻⁵³; test both sides of the threshold word
    k = math.ceil(f * 2**53)
    words = [w for w in (r, k << 11, (k << 11) - 1) if 0 <= w < 2**64]
    intercepted = protocol._intercepted(np.array(words, dtype=np.uint64), f)
    assert intercepted.tolist() == [(w >> 11) * 2**-53 < f for w in words]
