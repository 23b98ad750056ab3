"""Deterministic random-number helpers.

Every stochastic component of the library (trace generators, initial
partitioning, designated-switch selection, failure injection) accepts an
explicit seed and derives an independent ``random.Random`` stream from it, so
experiments are exactly reproducible and independent components never share a
stream.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(base_seed: int, *labels: str) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of string labels.

    The derivation is a SHA-256 hash of the base seed and labels, so streams
    for different components ("trace", "grouping", "failover", ...) are
    statistically independent while remaining fully reproducible.
    """
    digest = hashlib.sha256()
    digest.update(str(base_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x00")
        digest.update(label.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def make_rng(base_seed: int, *labels: str) -> random.Random:
    """Create an independent ``random.Random`` stream for a named component."""
    return random.Random(derive_seed(base_seed, *labels))


def sample_zipf_index(rng: random.Random, population: int, exponent: float = 1.2) -> int:
    """Sample an index in ``[0, population)`` from a Zipf-like distribution.

    Used by the realistic trace generator to produce the heavy-tailed
    host-pair popularity reported in the paper's motivation section (90 % of
    flows from ~10 % of active pairs).
    """
    if population <= 0:
        raise ValueError("population must be positive")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    # Inverse-CDF sampling over harmonic weights would be O(n); a simple
    # rejection-free approximation via the inverse power transform suffices
    # for trace generation purposes.
    u = rng.random()
    index = int(population * (u ** exponent))
    return min(index, population - 1)

