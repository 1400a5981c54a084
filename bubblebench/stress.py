"""The ``stress_paths`` operation: every path model at the stress horizon.

One operation builds one path per path model at H = 5000 periods:
barebones in its three steady-state regimes, the backward construction, a
temporary productivity boom, time-varying rents, and the Samuelson, Weil,
Bewley and Wilson economies. Each dividend-paying path is then valued
(``fundamental_value``, ``truncation_identity_residuals``, ``detect_bubble``)
with a truncation T drawn from [0.3 H, 0.6 H], and every path is serialised
by ``csvio.emit_csv`` with all the columns it defines.

Model parameters are the paper calibrations (pi = 0.1, beta = 0.95,
delta = 0.08, productivity 0.4 and 0.7 as in fig1, and the calibrations of
the reference tests); the seed draws starting points, shock windows, rent
growth, the Weil seed and the truncations.

``check_op`` runs the closed-form oracles on an operation's results; it is
kept out of the timed region. Run as a script (``python3 stress.py SEED``)
this module performs a fresh ``import bubblelab.cli`` plus one operation,
which is one set-up sample.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np

import bubblelab as bl
import bubblelab.cli  # noqa: F401  (the set-up cost a user of the CLI pays)
from bubblelab import csvio

H = 5000
PI, BETA, DELTA = 0.1, 0.95, 0.08
BALANCED_A, BUBBLY_A = 0.4, 0.7
VALUED = (
    "barebones_land_only",
    "barebones_balanced",
    "barebones_bubbly",
    "construct",
    "regime_switch",
    "timevarying",
    "wilson",
)
RESIDUAL_TOL = 1e-9   # truncation identity and no-arbitrage, relative to P_t
PRICE_RTOL = 1e-9     # simulated barebones prices against solve_affine


def draw_inputs(seed: int, k: int) -> dict:
    """Inputs of operation k of a run with this seed (same seed, same inputs)."""
    r = random.Random(f"stress_paths:{seed}:{k}")
    low = (1.0 - BETA) / BETA + DELTA
    on = r.randint(1, 20)
    return {
        "land_productivity": r.uniform(0.0, 0.95 * low),
        "p0_balanced": r.uniform(1.0, 10.0),
        "p0_bubbly": r.uniform(1.0, 10.0),
        "k0": 50.0 * r.random() ** 2,
        "shock_window": (on, on + r.randint(5, 30)),
        "rent_growth": r.uniform(1.0, 1.02),
        "w0": r.uniform(40.0, 80.0),
        "weil_seed": r.randrange(2**32),
        "truncation": {name: r.randint(int(0.3 * H), int(0.6 * H)) for name in VALUED},
    }


def barebones_params(productivity: float) -> "bl.BareBonesParams":
    return bl.BareBonesParams(
        pi=PI, beta=BETA, delta=DELTA, productivity=productivity, rent=1.0
    )


def wilson_params() -> "bl.WilsonParams":
    return bl.WilsonParams(
        beta=0.6,
        young_endow=bl.GeometricSeq(1.0, 1.05),
        dividend=bl.GeometricSeq(0.1, 1.02),
    )


def build_paths(inputs: dict) -> dict:
    samuelson = bl.SamuelsonParams(beta=0.5, young_endow=3.0, old_endow=1.0)
    on, off = inputs["shock_window"]
    return {
        "barebones_land_only": bl.steady_path(
            barebones_params(inputs["land_productivity"]), H
        ),
        "barebones_balanced": bl.simulate_from_price(
            barebones_params(BALANCED_A), inputs["p0_balanced"], H
        ),
        "barebones_bubbly": bl.simulate_from_price(
            barebones_params(BUBBLY_A), inputs["p0_bubbly"], H
        ),
        "construct": bl.construct_equilibrium(
            barebones_params(BUBBLY_A), inputs["k0"], H
        ).path,
        "regime_switch": bl.simulate_regime_switch(
            barebones_params(BALANCED_A), barebones_params(BUBBLY_A), on, off, H
        ),
        "timevarying": bl.simulate_timevarying(
            barebones_params(BUBBLY_A),
            inputs["w0"],
            H,
            rent=bl.GeometricSeq(1.0, inputs["rent_growth"]),
        ).path,
        # the stationary start: any lower start underflows to a zero price
        # long before H, which no CSV of finite cells can carry
        "samuelson": bl.samuelson_price_path(
            samuelson, bl.samuelson_equilibria(samuelson).stationary_price, H
        ),
        "weil": bl.weil_sample_path(
            bl.WeilParams(beta=0.5, young_endow=3.0, old_endow=1.0, survival=0.8),
            seed=inputs["weil_seed"],
            horizon=H,
        ),
        "bewley": bl.bewley_path(
            bl.BewleyParams(
                beta=0.9, gamma=2.0, growth=1.02, rich_endow=2.0, poor_endow=1.0
            ),
            H,
        ),
        "wilson": bl.wilson_path(wilson_params(), H),
    }


def columns_for(path: "bl.EquilibriumPath", valued: bool) -> tuple[str, ...]:
    """Every path column the path defines: production columns only where the
    model has them, the price-rent ratio only where rents are positive."""
    cols = ["t", "P", "D", "R"]
    extras = (("W", path.wealth), ("K", path.capital), ("phi", path.phi))
    cols += [c for c, arr in extras if arr is not None]
    if np.all(path.dividend > 0.0):
        cols.append("price_rent")
    cols.append("yield")
    if valued:
        cols += ["V", "bubble"]
    return tuple(cols)


def run_op(inputs: dict) -> dict:
    """One operation; returns per path its valuation results and CSV text."""
    out = {}
    for name, path in build_paths(inputs).items():
        res = {"path": path, "report": None}
        if name in VALUED:
            t = inputs["truncation"][name]
            res["report"] = bl.fundamental_value(path, t)
            res["residuals"] = bl.truncation_identity_residuals(path, t)
            res["detection"] = bl.detect_bubble(path)
        res["csv"] = csvio.emit_csv(
            path, columns_for(path, name in VALUED), res["report"]
        )
        out[name] = res
    return out


def nonfinite_cells(
    text: str, blank_from: int | None = None, allowed: dict[str, int] | None = None
) -> list[str]:
    """Non-finite or unparseable cells of a path CSV. ``allowed`` maps a
    column to the first row from which NaN is legitimate (the final ``R`` is
    always allowed); the V and bubble columns are blank from ``blank_from``
    (valuation is undefined within one truncation window of the end)."""
    lines = text.split("\n")
    header = lines[0].split(",")
    rows = lines[1:-1]
    allow = {"R": len(rows) - 1, **(allowed or {})}
    first_nan = [allow.get(col, len(rows)) for col in header]
    blank = [col in ("V", "bubble") and blank_from is not None for col in header]
    bad = []
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != len(header):
            bad.append(f"row {i} has {len(cells)} cells")
            continue
        for j, cell in enumerate(cells):
            if blank[j] and i >= blank_from:
                if cell != "":
                    bad.append(f"{header[j]}[{i}]={cell!r} (expected blank)")
                continue
            try:
                x = float(cell)
            except ValueError:
                bad.append(f"{header[j]}[{i}]={cell!r}")
                continue
            if not math.isfinite(x) and not (math.isnan(x) and i >= first_nan[j]):
                bad.append(f"{header[j]}[{i}]={cell}")
        if len(bad) >= 5:
            break
    return bad


def _expected_bubble(name: str, inputs: dict) -> bool:
    if name == "barebones_land_only":
        return bl.classify_regime(barebones_params(inputs["land_productivity"])).has_bubble
    if name in ("barebones_balanced", "regime_switch"):
        # the boom ends and the economy returns to the base steady state
        return bl.classify_regime(barebones_params(BALANCED_A)).has_bubble
    if name in ("barebones_bubbly", "construct"):
        return bl.classify_regime(barebones_params(BUBBLY_A)).has_bubble
    if name == "timevarying":
        boundary = bl.timevarying_threshold(PI, BETA, DELTA, inputs["rent_growth"])
        return BUBBLY_A > boundary
    if name == "wilson":
        return bl.wilson_bubble_test(wilson_params()).kind is bl.SeriesKind.CONVERGENT
    raise KeyError(name)


def check_op(inputs: dict, results: dict) -> list[str]:
    """Closed-form oracles for one operation; returns the failures found."""
    errors = []
    for name, res in results.items():
        path, report = res["path"], res["report"]
        n = len(path)
        if n != H + 1:
            errors.append(f"{name}: {n} rows, expected {H + 1}")
        allowed = {}
        if name == "weil" and path.meta["collapse_time"] is not None:
            c = path.meta["collapse_time"]
            allowed = {"R": c, "yield": c}
        blank_from = None if report is None else n - report.truncation
        bad = nonfinite_cells(res["csv"], blank_from, allowed)
        if bad:
            errors.append(f"{name}: non-finite CSV cells {', '.join(bad)}")
        if name in ("barebones_balanced", "barebones_bubbly"):
            a = BALANCED_A if name == "barebones_balanced" else BUBBLY_A
            p0 = inputs["p0_balanced" if name == "barebones_balanced" else "p0_bubbly"]
            rec = bl.price_recurrence(barebones_params(a), p0)
            exact = np.array([bl.solve_affine(rec, t) for t in range(n)])
            err = float(np.max(np.abs(path.price - exact) / np.abs(exact)))
            if not err <= PRICE_RTOL:
                errors.append(f"{name}: prices off solve_affine by {err:.3g} (relative)")
        if report is None:
            continue
        want = "bubbly" if _expected_bubble(name, inputs) else "fundamental"
        if report.verdict != want:
            errors.append(f"{name}: fundamental_value says {report.verdict}, oracle {want}")
        if res["detection"].verdict != report.verdict:
            errors.append(
                f"{name}: detect_bubble says {res['detection'].verdict}, "
                f"fundamental_value {report.verdict}"
            )
        for label, resid in (
            ("truncation identity", res["residuals"]),
            ("no-arbitrage", bl.no_arbitrage_residuals(path)),
        ):
            worst = float(np.max(resid))
            if not worst <= RESIDUAL_TOL:
                errors.append(f"{name}: {label} residual {worst:.3g} > {RESIDUAL_TOL}")
    return errors


if __name__ == "__main__":
    run_op(draw_inputs(int(sys.argv[1]), 0))
