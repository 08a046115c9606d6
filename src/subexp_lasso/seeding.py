"""Deterministic seed derivation and Monte-Carlo partitions.

Child seeds are a stable (platform-independent) hash of
(master seed, domain label, index), so any unit of work can be re-run in
isolation and parallel schedules cannot change the streams.  A Monte-Carlo
budget is drawn in `partitions`: the budget alone fixes the partition sizes
and seeds, so an estimate is bitwise stable for a given (budget, seed).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigurationError

_SEED_BYTES = 8
MC_CHUNK = 1 << 17  # the most draws one Monte-Carlo partition holds


def derive_seed(master_seed: int, domain: str, index: int = 0) -> int:
    """Stable 64-bit child seed for (master_seed, domain, index)."""
    payload = f"{int(master_seed)}|{domain}|{int(index)}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "little")


def rng_for(master_seed: int, domain: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, domain, index))


def partitions(total: int, seed: int, domain: str) -> list[tuple[int, int]]:
    """The (child seed, size) of each partition of `total` Monte-Carlo draws.

    ceil(total / MC_CHUNK) partitions whose sizes differ by at most one,
    larger first; partition i is seeded by derive_seed(seed, domain, i).
    """
    if total < 1:
        raise ConfigurationError(f"mc_budget must be >= 1, got {total}")
    count = -(-total // MC_CHUNK)
    base, extra = divmod(total, count)
    return [(derive_seed(seed, domain, i), base + (i < extra))
            for i in range(count)]
