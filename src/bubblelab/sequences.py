"""Deterministic sequence generators for endowments, dividends, productivity.

Three forms cover everything the models need: geometric ``a * g**t``,
polynomial ``a * (1+t)**k``, and explicit finite arrays. The generator
forms carry their exact tail asymptotics (geometric ratio and polynomial
power), which lets bubble tests on ratios of two generators resolve
boundary cases exactly instead of estimating them from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class GeometricSeq:
    """scale * ratio**t for t = 0, 1, 2, ..."""

    scale: float
    ratio: float

    def __post_init__(self):
        if not (self.scale >= 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be nonnegative and finite")
        if not (self.ratio > 0.0 and math.isfinite(self.ratio)):
            raise ValueError("ratio must be positive and finite")

    def values(self, n: int) -> np.ndarray:
        return self.scale * self.ratio ** np.arange(n, dtype=float)


@dataclass(frozen=True)
class PolynomialSeq:
    """scale * (1+t)**power for t = 0, 1, 2, ... (power may be negative)."""

    scale: float
    power: float

    def __post_init__(self):
        if not (self.scale >= 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be nonnegative and finite")
        if not math.isfinite(self.power):
            raise ValueError("power must be finite")

    def values(self, n: int) -> np.ndarray:
        return self.scale * (1.0 + np.arange(n, dtype=float)) ** self.power


@dataclass(frozen=True)
class ExplicitSeq:
    """A finite, explicitly listed sequence."""

    entries: tuple[float, ...]

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("explicit sequence must be nonempty")
        if not all(math.isfinite(v) for v in self.entries):
            raise ValueError("explicit sequence entries must be finite")

    def values(self, n: int) -> np.ndarray:
        if n > len(self.entries):
            raise ValueError(
                f"explicit sequence has {len(self.entries)} entries, {n} requested"
            )
        return np.asarray(self.entries[:n], dtype=float)


Sequence = Union[GeometricSeq, PolynomialSeq, ExplicitSeq]


def constant(level: float) -> GeometricSeq:
    return GeometricSeq(scale=level, ratio=1.0)


def always_positive(seq: Sequence) -> bool:
    """True when every entry of the sequence is strictly positive."""
    if isinstance(seq, (GeometricSeq, PolynomialSeq)):
        return seq.scale > 0.0
    return all(v > 0.0 for v in seq.entries)


def tail_asymptotics(seq: Sequence) -> tuple[float, float] | None:
    """(geometric ratio, polynomial power) of the tail, or None if unknown
    (explicit sequences carry no asymptotics). A zero scale gives (0, 0):
    the sequence is identically zero whatever its ratio or power."""
    if isinstance(seq, ExplicitSeq):
        return None
    if seq.scale == 0.0:
        return 0.0, 0.0
    return (seq.ratio, 0.0) if isinstance(seq, GeometricSeq) else (1.0, seq.power)
