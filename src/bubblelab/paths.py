"""The common path container shared by every model.

An ``EquilibriumPath`` is a time-indexed record of (price, dividend, gross
rate) plus the production-economy extras (wealth, capital, investment share)
where the model defines them. All arrays have the same length; ``rate[t]``
is the realized gross return (P_{t+1} + D_{t+1}) / P_t, so its final entry
is NaN (there is no t+1 observation). A path built without ``rate`` derives
it with ``gross_rates``. Valuation only ever consumes rates up to t-1, so
the NaN never propagates.

``capital[t]`` is the capital stock assembled at t and productive at t+1,
matching the savings identity K_{t+1} + P_t X = beta * W_t row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def gross_rates(price: np.ndarray, dividend: np.ndarray) -> np.ndarray:
    """rate[t] = (price[t+1] + dividend[t+1]) / price[t]; last entry NaN.

    Zero prices (a collapsed bubble) yield NaN from that point on, except
    the collapse step itself, where the realized return is a genuine zero.
    """
    price = np.asarray(price, dtype=float)
    dividend = np.asarray(dividend, dtype=float)
    out = np.full(price.size, np.nan)
    if price.size < 2:
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        out[:-1] = (price[1:] + dividend[1:]) / price[:-1]
    out[:-1][price[:-1] == 0.0] = np.nan
    return out


@dataclass
class EquilibriumPath:
    price: np.ndarray
    dividend: np.ndarray
    rate: np.ndarray | None = None
    wealth: np.ndarray | None = None
    capital: np.ndarray | None = None
    phi: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.price = np.asarray(self.price, dtype=float)
        self.dividend = np.asarray(self.dividend, dtype=float)
        n = self.price.size
        for name in ("dividend", "rate", "wealth", "capital", "phi"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            setattr(self, name, arr)
            if arr.size != n:
                raise ValueError(f"{name} has length {arr.size}, expected {n}")
        if self.rate is None:
            self.rate = gross_rates(self.price, self.dividend)

    def __len__(self) -> int:
        return int(self.price.size)

    def price_rent(self) -> np.ndarray:
        """P_t / D_t (inf where the dividend is zero)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.price / self.dividend

    def dividend_yield(self) -> np.ndarray:
        """D_t / P_t, the terms of the bubble-characterization series."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.dividend / self.price
