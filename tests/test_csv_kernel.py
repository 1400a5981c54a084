"""The vectorised ``%.12g`` kernel against ``"%.12g" % x``, byte for byte.

``csvio._g12_lanes`` gives the text of every float cell of a CSV. Each case
below formats an array with it and with the per-cell Python formatter: random
bit patterns (every exponent, subnormals, NaN payloads), a log-uniform sweep
of every decade, a frozen list of edges (ties, rounding across a power of
ten, the switches between fixed and exponent notation, signed zeros, the
extremes), and one case for each branch that hands a cell back to the
per-cell formatter. Two more hold the hand-back window to the error of the
kernel's product, computed in exact fractions, and the share of cells handed
back to 0.2%. A seeded property draws mantissas with every count of trailing
zeros, at exponents in every notation. Two cases hold the packed layout: a
handed-back cell keeps to its column's bytes, and the blocks of
stress-horizon path CSVs carry few empty bytes; one pins the bytes of those
CSVs. The rest cover the two ways a block keeps cells from the kernel: the
counting table of small non-negative integers (its growth, its cap, a path's
``t`` column) and a float column that repeats an earlier one's bits. Every
draw comes from a fixed seed."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bubblelab as bl
from bubblelab import csvio
from tests.test_csv_blocks import assert_same_text
from tests.test_csvio import ref_emit_table_csv


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


def test_the_power_table_is_the_exact_integer_one():
    # the kernel's error bound needs fl(10**k) correctly rounded: int / int
    # rounds correctly, and so must the table's parse of "1e{k}", at every
    # k = 11 - e the kernel reaches
    e = np.arange(csvio._EXP_SIZE) - csvio._EXP_OFF
    k = 11 - e
    reached = (-290 <= k) & (k <= 302)
    assert reached.sum() == 593
    want = [float(10**j) if j >= 0 else 1 / 10**-j for j in k[reached].tolist()]
    assert csvio._tables().pow10[reached].tolist() == want


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


def write_stress_paths(seed: int, horizon: int = 5000) -> list[str]:
    """Path CSVs of the land economy and Wilson (valued), Samuelson and
    Bewley at a stress horizon, every column each path defines, starting
    points and truncations drawn from the seed; their texts."""
    r = random.Random(seed)

    def land(productivity):
        return bl.BareBonesParams(pi=0.1, beta=0.95, delta=0.08,
                                  productivity=productivity, rent=1.0)

    samuelson = bl.SamuelsonParams(beta=0.5, young_endow=3.0, old_endow=1.0)
    bewley = bl.BewleyParams(beta=0.9, gamma=2.0, growth=1.02, rich_endow=2.0, poor_endow=1.0)
    wilson = bl.WilsonParams(beta=0.6, young_endow=bl.GeometricSeq(1.0, 1.05),
                             dividend=bl.GeometricSeq(0.1, 1.02))
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
        bl.wilson_path(wilson, horizon),   # every cell distinct
    ]
    texts = []
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
        texts.append(csvio.emit_csv(path, tuple(columns), report))
    return texts


# sha256 of the concatenated texts of write_stress_paths(seed=1)
STRESS_SHA256 = "96bdabe4b906912aa5f61e823424f6727f4fe6d71e4430ecdd09084a254450dc"


def test_stress_path_bytes_are_frozen():
    text = "".join(write_stress_paths(seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == STRESS_SHA256


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


# --- the digit arithmetic ----------------------------------------------------


@st.composite
def twelve_digits(draw):
    """A float whose 12-digit mantissa has 0 to 11 trailing zeros, or sits
    on a digit group's edge, at an exponent of every notation: fixed,
    ``0.000…`` and ``e±XX`` to ``e±XXX``, either sign."""
    zeros = draw(st.integers(0, 11))
    head = draw(st.integers(10 ** (11 - zeros), 10 ** (12 - zeros) - 1))
    k8 = draw(st.integers(1001, 9999))           # m = k8 * 1e8: the last 8 digits 0
    k4 = draw(st.integers(10**7, 10**8 - 1))     # m = k4 * 1e4: the last 4 digits 0
    m = draw(st.sampled_from(
        [head * 10**zeros, 10**11, 10**12 - 1, k8 * 10**8, k8 * 10**8 - 1, k4 * 10**4]
    ))
    e = draw(st.one_of(st.integers(-6, 13), st.integers(-290, 299)))
    x = float(Fraction(m) * Fraction(10) ** (e - 11))
    return -x if draw(st.booleans()) else x


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.lists(twelve_digits(), min_size=1, max_size=40))
def test_digit_groups_and_trailing_zeros_match_g12(xs):
    assert_matches_g12(np.array(xs))


# --- the counting table ------------------------------------------------------


@pytest.fixture
def counts(monkeypatch):
    """An empty counting table, restored after the test."""
    monkeypatch.setattr(csvio, "_counts", np.zeros((0, 6), np.uint8))


def assert_cells_are_str(values: np.ndarray) -> None:
    want = "n\n" + "".join(f"{v}\n" for v in values.tolist())
    assert_same_text(csvio.emit_table_csv(["n"], [values]), want)


def test_the_counting_table_grows_to_the_next_power_of_two(counts, kernel_cells):
    cap = csvio._COUNT_CAP
    for v in [0] + [v for k in range(17) for v in (2**k - 1, 2**k)]:
        size = len(csvio._counts)
        kernel_cells[0] = 0
        assert_cells_are_str(np.array([v, 0]))
        if v >= cap:
            # past the cap the kernel formats the column and the table stays
            assert len(csvio._counts) == size and kernel_cells[0] == 2
        else:
            assert len(csvio._counts) == max(size, 1 << v.bit_length()) <= cap
            # a table grows by formatting all its rows anew, and only then
            assert kernel_cells[0] == (len(csvio._counts) if len(csvio._counts) > size else 0)


def test_a_column_grows_the_table_in_its_second_block(counts):
    assert_cells_are_str(np.arange(csvio.BLOCK_ROWS + 5))
    assert len(csvio._counts) == 2 * csvio.BLOCK_ROWS


def test_unordered_and_unsigned_columns_take_the_table(counts, kernel_cells):
    rng = np.random.default_rng(27)
    assert_cells_are_str(rng.permutation(np.repeat(np.arange(3000), 2)))
    for dtype in (np.uint8, np.uint16, np.uint64, np.int32):
        assert_cells_are_str(rng.integers(0, 3000, 500).astype(dtype))
    assert kernel_cells[0] == len(csvio._counts) == 4096


def test_negative_values_and_values_at_the_cap_take_the_kernel(counts, kernel_cells):
    cap = csvio._COUNT_CAP
    for values in ([-1, 0, 5], [3, cap, 7], [cap - 1, cap + 1], [-(10**11), 10**11]):
        kernel_cells[0] = 0
        assert_cells_are_str(np.array(values))
        assert kernel_cells[0] == len(values)
    assert len(csvio._counts) == 0


def test_a_path_t_column_never_reaches_the_kernel(counts, kernel_cells):
    path = bl.simulate_from_price(bl.BareBonesParams(
        pi=0.1, beta=0.95, delta=0.08, productivity=0.7, rent=1.0), 4.0, 5000)
    csvio.emit_csv(path, ("t",))   # builds the table
    kernel_cells[0] = 0
    assert csvio.emit_csv(path, ("t",)).endswith("\n4999\n5000\n")
    assert kernel_cells[0] == 0
    csvio.emit_csv(path, ("t", "P"))
    assert kernel_cells[0] == len(path)   # the cells of P alone, every one distinct


# --- a repeated column -------------------------------------------------------


def test_price_rent_with_unit_rents_reuses_the_price_cells(kernel_cells):
    path = bl.simulate_from_price(bl.BareBonesParams(
        pi=0.1, beta=0.95, delta=0.08, productivity=0.7, rent=1.0), 4.0, 5000)
    assert np.array_equal(path.price_rent().view(np.uint64), path.price.view(np.uint64))
    together = csvio.emit_csv(path, ("P", "price_rent"))
    cells = kernel_cells[0]
    apart = [csvio.emit_csv(path, (c,)).split("\n") for c in ("P", "price_rent")]
    assert_same_text(together, "\n".join(",".join(row) if row[0] else "" for row in zip(*apart)))
    assert cells == len(path) and kernel_cells[0] == 3 * cells


def test_signed_zeros_and_nan_payloads_are_not_merged(kernel_cells):
    zeros, negative = np.zeros(10), np.full(10, -0.0)
    nans = np.array([0x7FF8000000000000] * 10, dtype=np.uint64).view(np.float64)
    other = np.array([0x7FF8000000000001] * 10, dtype=np.uint64).view(np.float64)
    columns = [zeros, negative, nans, other, zeros.copy(), other.copy()]
    assert csvio._distinct(columns)[1] == [0, 1, 2, 3, 0, 3]
    header = list("abcdef")
    got = csvio.emit_table_csv(header, columns)
    assert_same_text(got, ref_emit_table_csv(header, [list(r) for r in zip(*columns)]))
    assert got.split("\n")[1] == "0,-0,nan,nan,0,nan"
    assert kernel_cells[0] == 4   # one run per distinct column


def test_a_column_equal_in_one_block_only_is_formatted_in_the_next(kernel_cells):
    b = csvio.BLOCK_ROWS
    x = np.random.default_rng(3).random(b + 50)
    y = x.copy()
    y[b + 10] = -y[b + 10]
    got = csvio.emit_table_csv(["x", "y"], [x, y])
    assert_same_text(got, ref_emit_table_csv(["x", "y"], [list(r) for r in zip(x, y)]))
    assert kernel_cells[0] == b + 2 * 50
