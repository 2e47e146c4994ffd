"""Deterministic sub-seed derivation.

Every random stream in a run (split, init, per-epoch shuffle, per-epoch
neighbor sampling, per-batch dropout, negative sampling) hangs off a single
run seed through named sub-seeds, so no stream perturbs another.
"""

import hashlib

import numpy as np

from .errors import check


def derive_seed(seed: int, *names) -> int:
    """Map a non-negative integer seed and name parts to a stable 64-bit integer seed."""
    key = ":".join([str(int(check("seed", seed, int, 0))), *(str(n) for n in names)]).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def seeded_rng(seed) -> np.random.Generator:
    """A fresh Generator for ``seed``, which must be a non-negative integer."""
    return np.random.default_rng(check("seed", seed, int, 0))
