"""Run configuration: field modulus, randomness provenance, search bounds."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fields import DEFAULT_PRIME, GF


@dataclass(frozen=True)
class Config:
    prime: int = DEFAULT_PRIME
    seed: int = 12345
    trials: int = 3
    entry_bound: int = 12

    def __post_init__(self):
        GF(self.prime)  # rejects moduli the F_p kernels cannot use
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.entry_bound < 1:
            raise ValueError("entry_bound must be >= 1")

    def field(self):
        return GF(self.prime)

    def rng(self):
        return random.Random(self.seed)

    def provenance(self):
        return {"prime": self.prime, "seed": self.seed, "trials": self.trials}
