"""The vectorised ``%.12g`` kernel against ``"%.12g" % x``, byte for byte.

``csvio._g12_lanes`` gives the text of every float cell of a CSV. Each case
below formats an array with it and with the per-cell Python formatter: random
bit patterns (every exponent, subnormals, NaN payloads), a log-uniform sweep
of every decade, a frozen list of edges (ties, rounding across a power of
ten, the switches between fixed and exponent notation, signed zeros, the
extremes), and one case for each branch that hands a cell back to the
per-cell formatter. Two more hold the hand-back window to the error of the
kernel's product, computed in exact fractions, and the share of cells handed
back to 0.2%. And two hold the packed layout: a handed-back cell keeps
to its column's bytes, and the blocks of stress-horizon path CSVs carry few
empty bytes. Every draw comes from a fixed seed."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import bubblelab as bl
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
    """The values the kernel hands to the per-cell formatter, which gives
    their digits and exponent as ``%.11e``."""
    seen = []

    def recording(x):
        seen.append(x)
        return "%.11e" % x

    monkeypatch.setattr(csvio, "_format_e11", recording)
    return seen


def test_ties_fall_back(fallbacks):
    # exact halves past the twelfth digit, which %.12g rounds half to even,
    # and two values within the product's error of a half: all handed back;
    # then two values just outside that window, which the kernel decides
    ties = np.array([1234567890125.0, 1234567890135.0, 12345678901250.0,
                     123456789012.5, 12345678901.25, 1234567890.125])
    near = np.array([123456789012.5 + 2**-16, 0.1234567890125])
    outside = np.array([123456789012.5 + 2**-11 + 2**-16, 0.1234567890125 - 6e-16])
    assert_matches_g12(np.concatenate([ties, near, outside]))
    assert fallbacks == ties.tolist() + near.tolist()


def test_the_product_error_is_within_half_the_window():
    # the kernel rounds p = fl(a * fl(10**k)) and hands back a cell when p
    # lies within _TIE_WIDTH of a half; that is sound while p is within
    # _TIE_WIDTH of a * 10**k, and this holds it to half of that, exactly
    tab = csvio._tables()
    rng = np.random.default_rng(16)
    worst = Fraction(0)
    for k in range(-290, 303):
        p10 = tab.pow10[11 - k + csvio._EXP_OFF]
        exact = Fraction(10) ** k
        assert p10 == float(exact)
        for t in rng.uniform(1e11, 1e12, 35).tolist():
            a = float(Fraction(t) / exact)
            worst = max(worst, abs(Fraction(a * p10) - Fraction(a) * exact))
    assert worst < csvio._TIE_WIDTH / 2


def test_a_near_half_before_the_exponent_correction_falls_back(fallbacks):
    # below 9.999999999995 * 10**e the first pass can round up to 1e12; the
    # correction then sees a plain 1e11, and only the first pass's flag
    # sends the cell to the per-cell formatter
    x = np.array([v for e in range(-290, 300) for v in neighbours(9.999999999995 * 10.0**e, 6)])
    e = np.floor(np.log10(x)).astype(np.int64)
    first, _ = csvio._mantissa(csvio._tables(), x, e)
    x = x[first >= 1e12]
    assert x.size > 1000 and 9.999999999994999e-290 in x
    assert_matches_g12(x)
    assert 9.999999999994999e-290 in fallbacks


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


def test_a_handed_back_cell_does_not_widen_its_column(fallbacks):
    # the per-cell formatter gives only the digits and the exponent, which
    # the kernel lays out as its own, so a tie keeps to the column's bytes
    x = 10.0 ** np.random.default_rng(8).uniform(13.0, 200.0, 2000)
    tie = np.array([1234567890125.0])

    def span(v):
        used = (csvio._g12_lanes(v).view(np.uint8) != 0).any(axis=0)
        return np.flatnonzero(used)[[0, -1]].tolist()

    assert span(np.concatenate([x, tie])) == span(x)
    assert 1234567890125.0 in fallbacks
    assert_matches_g12(np.concatenate([x, tie]))


@pytest.fixture
def kernel_cells(monkeypatch):
    """The number of cells given to the kernel."""
    seen = [0]
    lanes = csvio._g12_lanes

    def counting(x):
        seen[0] += x.size
        return lanes(x)

    monkeypatch.setattr(csvio, "_g12_lanes", counting)
    return seen


def write_stress_paths(seed: int, horizon: int = 5000) -> None:
    """Path CSVs of the land economy (valued), Samuelson and Bewley at a
    stress horizon, every column each path defines, starting points and
    truncations drawn from the seed."""
    r = random.Random(seed)

    def land(productivity):
        return bl.BareBonesParams(pi=0.1, beta=0.95, delta=0.08,
                                  productivity=productivity, rent=1.0)

    samuelson = bl.SamuelsonParams(beta=0.5, young_endow=3.0, old_endow=1.0)
    bewley = bl.BewleyParams(beta=0.9, gamma=2.0, growth=1.02, rich_endow=2.0, poor_endow=1.0)
    paths = [
        bl.simulate_from_price(land(0.4), r.uniform(1.0, 10.0), horizon),
        bl.simulate_from_price(land(0.7), r.uniform(1.0, 10.0), horizon),
        bl.construct_equilibrium(land(0.7), 50.0 * r.random() ** 2, horizon).path,
        bl.simulate_timevarying(land(0.7), r.uniform(40.0, 80.0), horizon,
                                rent=bl.GeometricSeq(1.0, r.uniform(1.0, 1.02))).path,
        bl.samuelson_price_path(
            samuelson, bl.samuelson_equilibria(samuelson).stationary_price, horizon
        ),
        bl.bewley_path(bewley, horizon),
    ]
    for path in paths:
        fields = {"t": 0, "price_rent": 0, "yield": 0, **csvio._PATH_FIELDS}
        columns = [c for c, f in fields.items() if not f or getattr(path, f) is not None]
        report = None
        if np.all(path.dividend > 0.0):
            t = r.randint(int(0.3 * horizon), int(0.6 * horizon))
            report = bl.fundamental_value(path, t)
            columns += ["V", "bubble"]
        else:
            columns.remove("price_rent")
        csvio.emit_csv(path, tuple(columns), report)


def test_few_cells_are_handed_back(fallbacks, kernel_cells):
    # the window's share of uniformly spread fractions is 2 * _TIE_WIDTH,
    # about 0.1%; a wider window would move more of the work into Python
    rng = np.random.default_rng(250)
    x = 10.0 ** rng.uniform(-290.0, 300.0, 250_000)
    csvio._g12_lanes(x)
    assert len(fallbacks) <= 0.002 * x.size
    fallbacks.clear()
    kernel_cells[0] = 0
    write_stress_paths(seed=1)
    assert kernel_cells[0] > 100_000
    assert len(fallbacks) <= 0.002 * kernel_cells[0]


def test_path_blocks_carry_few_empty_bytes(monkeypatch):
    # the kernel's rows put each cell's text together and a block ends where
    # a column does, so beside the free byte of every cell a block's NULs
    # are only the padding of cells shorter than their column
    size = empty = 0
    render = csvio.render_csv

    def counting(header, columns):
        nonlocal size, empty
        for cells in columns:
            size += cells.size
            empty += np.count_nonzero(cells[:, :-1] == 0)
        return render(header, columns)

    monkeypatch.setattr(csvio, "render_csv", counting)
    write_stress_paths(seed=1)
    assert size > 1_000_000
    assert empty <= 0.1 * size
