"""The vectorised ``%.12g`` kernel against ``"%.12g" % x``, byte for byte.

``csvio._g12_lanes`` gives the text of every float cell of a CSV. Each case
below formats an array with it and with the per-cell Python formatter: random
bit patterns (every exponent, subnormals, NaN payloads), a log-uniform sweep
of every decade, a frozen list of edges (ties, rounding across a power of
ten, the switches between fixed and exponent notation, signed zeros, the
extremes), and one case for each branch that hands a cell back to the
per-cell formatter. Every draw comes from a fixed seed."""

import math

import numpy as np
import pytest

from bubblelab import csvio


def kernel_text(x: np.ndarray) -> list[str]:
    rows = csvio._g12_lanes(x).view(np.uint8).copy()
    assert rows.shape == (x.size, 32) and not rows[:, -1].any()
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def assert_matches_g12(x: np.ndarray) -> None:
    got = kernel_text(x)
    want = ["%.12g" % v for v in x.tolist()]
    if got != want:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        bits = x[i : i + 1].view(np.uint64)[0]
        pytest.fail(f"{x[i]!r} (bits {bits:#x}): {got[i]!r} != {want[i]!r}")


def test_random_bit_patterns():
    bits = np.random.default_rng(2024).integers(0, 2**64, 250_000, dtype=np.uint64)
    assert_matches_g12(bits.view(np.float64))


def test_every_decade_both_signs():
    rng = np.random.default_rng(11)
    decades = np.arange(-320, 309)
    with np.errstate(over="ignore"):
        x = 10.0 ** (decades[:, None] + rng.random((decades.size, 150)))
    x = x[np.isfinite(x)]
    assert_matches_g12(x)
    assert_matches_g12(-x)


def neighbours(x: float, k: int = 3) -> list[float]:
    up, down = [x], [x]
    for _ in range(k):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], -math.inf))
    return down[:0:-1] + up


EDGES = [
    # 12-digit ties (dtoa rounds half to even) and near-ties
    1234567890125.0, 1234567890135.0, 123456789012.5, 123456789013.5,
    0.1234567890125, 2.5e-7, 12345678901.25, 999999999999.5, 999999999998.5,
    # the fixed and exponent notations meet at 1e-5 / 1e-4 and at 1e12
    1e-5, 1e-4, 9.99999999999e-5, 0.0001, 0.00001, 1e11, 1e12, 1e13,
    999999999999.0, 999999999999.4, 1000000000000.0,
    # zeros, NaNs with payloads and either sign, infinities
    0.0, -0.0, math.inf, -math.inf,
    # the extremes
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-290, 1e300,
]
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
            0xFFFFFFFFFFFFFFFF, 0x7FF0000000000001]


def test_frozen_edges():
    around_nines = [v for e in range(-310, 309) for v in neighbours(9.999999999995 * 10.0**e)]
    around_powers = [v for e in range(-307, 309) for v in neighbours(10.0**e)]
    values = [v for x in EDGES for v in neighbours(x)]
    x = np.array(values + around_nines + around_powers, dtype=np.float64)
    assert_matches_g12(x)
    assert_matches_g12(np.array(NAN_BITS, dtype=np.uint64).view(np.float64))
    assert kernel_text(np.array([1234567890125.0, 999999999999.5, 1e-5, 1e-4, -0.0])) == [
        "1.23456789012e+12", "1e+12", "1e-05", "0.0001", "-0"
    ]


def test_integers_below_1e12_are_their_str():
    rng = np.random.default_rng(5)
    ints = np.concatenate(
        [np.arange(-20_000, 20_000), rng.integers(-(10**12) + 1, 10**12, 50_000)]
    )
    assert kernel_text(ints.astype(np.float64)) == list(map(str, ints.tolist()))


@pytest.fixture
def fallbacks(monkeypatch):
    """The values the kernel hands to the per-cell formatter."""
    seen = []

    def recording(x):
        seen.append(x)
        return "%.12g" % x

    monkeypatch.setattr(csvio, "_format_g12", recording)
    return seen


def test_ties_fall_back(fallbacks):
    # exact halves past the twelfth digit, which %.12g rounds half to even,
    # then two values close to a half that the kernel decides itself
    ties = np.array([1234567890125.0, 1234567890135.0, 12345678901250.0,
                     123456789012.5, 12345678901.25, 1234567890.125])
    near = np.array([123456789012.5 + 2**-16, 0.1234567890125])
    assert_matches_g12(np.concatenate([ties, near]))
    assert fallbacks == ties.tolist()


def test_values_outside_the_kernel_range_fall_back(fallbacks):
    outside = np.array(
        [1e-291, -5e-324, 2.2250738585072014e-308, 1.01e300, -1.7976931348623157e308]
    )
    inside = np.array([1e-290, 1e300, -1e300])
    assert_matches_g12(np.concatenate([outside, inside]))
    assert fallbacks == outside.tolist()


def test_a_mantissa_out_of_range_after_the_correction_falls_back(fallbacks, monkeypatch):
    # log10 is within one of the exponent, so one correction always suffices;
    # an exponent estimate two decades high leaves the mantissa below 1e11
    log10 = np.log10
    monkeypatch.setattr(csvio.np, "log10", lambda a: log10(a) + 2.0)
    x = np.array([3.5, 123.25, 7e20])
    assert_matches_g12(x)
    assert fallbacks == x.tolist()
