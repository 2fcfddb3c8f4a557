"""Interaction-detection protocol over a two-basis qubit channel.

Sender and receiver inquire about the same question (shared basis schedule),
so their answers must agree whenever nothing touched the state in between.
An intercept-resend eavesdropper guesses the basis, measures, and forwards
the outcome; a wrong guess randomizes the receiver's answer, so every
intercepted round disagrees with probability 1/4.  Any disagreement at all
therefore certifies an intermediate inquiry: the no-eavesdropper run is
noiseless by construction.

All randomness comes from one Philox stream per variable, drawn in fixed
chunks; results do not depend on the chunk size, and identical
configurations produce bit-identical statistics.  The four bit streams
give one raw 64-bit word per eight rounds, a round's bit being the top
bit of its byte (low byte first): numpy's ``Generator.integers(0, 2, n,
uint8)`` returns exactly these bits.  The ``active`` stream gives one word
per round, and ``Generator.random()`` is that word shifted right by 11
times 2⁻⁵³, so the interception test compares the word with an integer
threshold instead.  The counts are therefore those of the ``Generator``
draws on the same streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ProtocolConfig", "ProtocolStats", "STRATEGIES", "run_detection_protocol"]

STRATEGIES = ("none", "intercept-resend")
_CHUNK = 1 << 16  # rounds per chunk: a multiple of 8, as one raw word holds eight rounds
_TOP_BITS = np.uint64(0x8080808080808080)  # each byte's top bit is one round's bit


@dataclass(frozen=True)
class ProtocolConfig:
    rounds: int
    seed: int
    eavesdrop_fraction: float = 0.0
    strategy: str = "none"

    def __post_init__(self):
        rounds, seed, fraction = self.rounds, self.seed, self.eavesdrop_fraction
        if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds <= 0:
            raise ValueError("rounds must be a positive integer")
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if (
            isinstance(fraction, bool)
            or not isinstance(fraction, (int, float))
            or not 0.0 <= fraction <= 1.0
        ):
            raise ValueError("eavesdrop_fraction must lie in [0, 1]")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


@dataclass(frozen=True)
class ProtocolStats:
    rounds: int
    compared: int
    disagreements: int
    disagreement_rate: float
    detected: bool


def _intercepted(words: np.ndarray, fraction: float) -> np.ndarray:
    """``Generator.random() < fraction`` for the draws whose raw words are ``words``.

    ``random()`` is ``(word >> 11)·2⁻⁵³``, and k·2⁻⁵³ < f exactly when
    k < ceil(f·2⁵³); the threshold fits 64 bits for every fraction below 1.
    """
    return words < np.uint64(math.ceil(fraction * 2**53) << 11)


def run_detection_protocol(config: ProtocolConfig) -> ProtocolStats:
    """Run the seeded protocol and count answer disagreements.

    Per round the sender prepares a uniformly random eigenstate of a
    uniformly random basis (Z or X); the receiver measures in the sender's
    basis, so every round is compared.  Detection is any disagreement,
    because the quiet channel never disagrees; without an eavesdropper
    nothing is drawn.  Each variable's stream is the seed's Philox jumped
    by the variable's index.
    """
    rounds, disagreements = config.rounds, 0
    if config.strategy == "intercept-resend":
        fraction = config.eavesdrop_fraction
        root = np.random.Philox(key=config.seed)
        basis, bit, active, eve_basis, coin = (root.jumped(i) for i in range(5))
        for start in range(0, rounds, _CHUNK):
            n = min(_CHUNK, rounds - start)
            words = -(-n // 8)
            # a wrong-basis interception leaves the receiver with a coin flip
            scrambled = eve_basis.random_raw(words) ^ basis.random_raw(words)
            flipped = coin.random_raw(words) ^ bit.random_raw(words)
            hits = scrambled & flipped & _TOP_BITS
            hits = hits.astype("<u8", copy=False).view(np.uint8)[:n]
            # at fraction 1 every round is intercepted, and no other stream reads `active`
            if fraction < 1.0:
                hits = (hits >> 7) & _intercepted(active.random_raw(n), fraction)
            disagreements += int(np.count_nonzero(hits))
    return ProtocolStats(
        rounds=rounds,
        compared=rounds,
        disagreements=disagreements,
        disagreement_rate=disagreements / rounds,
        detected=disagreements > 0,
    )
