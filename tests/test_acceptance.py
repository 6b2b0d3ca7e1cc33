"""Acceptance suite: one test per acceptance criterion, each recording a
single PASS/FAIL line that the conftest terminal-summary hook prints at the
end of the run, past pytest's output capture.

Criteria with several independent claims (the rate-curve reproduction) are
split into lettered sub-tests so each claim gets its own line.
"""

import cmath
import math
import time

import numpy as np
import pytest

from dmqkd.decoy import (
    bound_e1,
    bound_y0,
    bound_y1,
    cutoff_loss,
    rate_at_loss,
    sweep_loss,
)
from dmqkd.encoding import (
    CalibrationCurve,
    EncodingSymbol,
    TimingParams,
    compile_schedule,
    decompile_schedule,
    encode_symbol,
    phase_for_voltage,
    schedule_from_text,
    schedule_to_text,
    voltage_for_phase,
)
from dmqkd.linksim import (
    STATE_ROWS,
    DecoyIntensities,
    LinkParams,
    expected_row_stats,
    simulate_frames_mc,
)
from dmqkd.photonics import TWO_PI, Phase, amzi_transform, make_frame
from dmqkd.secprops import run_verification

import conftest

A = 1.0
SIGNAL_TABLE = {"signal": 1.0, "decoy": 0.4, "vacuum": 0.0375}


def _report(ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"{status} {label}{suffix}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, f"{label}{suffix}"


def test_criterion_1_closed_form_equivalence():
    """AMZI outputs match the closed forms over 10^4 random phase settings."""
    rng = np.random.default_rng(12)
    start = time.perf_counter()
    worst_mag = 0.0
    worst_phase = 0.0
    for _ in range(10_000):
        phi1, phi12, phi23, phi_rp, phi_rf = rng.uniform(0.0, TWO_PI, size=5)
        out = amzi_transform(make_frame(A, phi1, phi12, phi23, phi_rp, phi_rf))
        worst_mag = max(
            worst_mag,
            abs(abs(out.e) - A * abs(math.cos(phi12 / 2.0))),
            abs(abs(out.l) - A * abs(math.cos(phi23 / 2.0))),
        )
        c12 = math.cos(phi12 / 2.0)
        c23 = math.cos(phi23 / 2.0)
        if abs(out.e) > 1e-6 and abs(out.l) > 1e-6:
            extracted = Phase(cmath.phase(out.l)) - Phase(cmath.phase(out.e))
            closed = (phi12 + phi23) / 2.0
            # The closed form carries the signs of the two cosines in the
            # amplitude, so the complex-phase difference agrees modulo pi in
            # general and exactly when both cosines are positive.
            worst_phase = max(worst_phase, abs(math.sin(extracted - closed)))
            if c12 > 1e-6 and c23 > 1e-6:
                delta = (extracted - closed + math.pi) % TWO_PI - math.pi
                worst_phase = max(worst_phase, abs(delta))
    elapsed = time.perf_counter() - start
    ok = worst_mag < 1e-12 and worst_phase < 1e-9 and elapsed < 1.0
    _report(
        ok,
        "criterion 1: closed-form equivalence over 10^4 draws",
        f"max |dr|={worst_mag:.2e}, max phase dev={worst_phase:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_encoding_table():
    """The four BB84 symbols produce exactly the intended output states."""
    table = {"signal": 1.0}
    intensities = {}
    phases = {}
    for basis, bit in (("Z", 0), ("Z", 1), ("Y", 0), ("Y", 1)):
        pp = encode_symbol(EncodingSymbol(basis, bit), table)
        out = amzi_transform(make_frame(A, 0.0, pp.phi12, pp.phi23, 0.0, 0.0))
        intensities[(basis, bit)] = (abs(out.e) ** 2, abs(out.l) ** 2)
        phases[(basis, bit)] = Phase(cmath.phase(out.l)) - Phase(cmath.phase(out.e))
    ok = (
        abs(intensities[("Z", 0)][0] - A**2) < 1e-12
        and intensities[("Z", 0)][1] < 1e-20
        and intensities[("Z", 1)][0] < 1e-20
        and abs(intensities[("Z", 1)][1] - A**2) < 1e-12
    )
    for bit, target in ((0, math.pi / 2.0), (1, 3.0 * math.pi / 2.0)):
        e2, l2 = intensities[("Y", bit)]
        ok = ok and abs(e2 - 0.5 * A**2) < 1e-12 and abs(l2 - 0.5 * A**2) < 1e-12
        # For the Y states both interfering cosines share a sign, so the
        # complex-phase difference matches the target exactly mod 2*pi.
        delta = (phases[("Y", bit)] - target + math.pi) % TWO_PI - math.pi
        ok = ok and abs(delta) < 1e-12
    _report(ok, "criterion 2: BB84 encoding table (Z one-bin, Y split with pi/2 or 3pi/2)")


def test_criterion_3_calibration_curve():
    """The E bin's amplitude vs drive voltage, through the V-pi calibration and
    the AMZI, is a cosine with null at V-pi; the phase map is linear."""
    cal = CalibrationCurve(v_pi=0.8)

    def e_bin(v):
        """|E| when the E pulse's phase step is driven at voltage v."""
        return abs(amzi_transform(make_frame(A, 0.0, phase_for_voltage(v, cal), 0.0, 0.0, 0.0)).e)

    worst = 0.0
    for v in np.linspace(0.0, 1.6, 401):
        worst = max(worst, abs(e_bin(float(v)) - abs(math.cos(math.pi * v / 1.6))))
    null = e_bin(0.8)
    slope_dev = max(
        abs(voltage_for_phase(phi, cal) - phi * 0.8 / math.pi)
        for phi in np.linspace(0.0, TWO_PI, 200, endpoint=False)
    )
    half = e_bin(0.4) ** 2
    ok = worst < 1e-12 and null < 1e-12 and slope_dev < 1e-12 and abs(half - 0.5) < 1e-12
    _report(
        ok,
        "criterion 3: cosine calibration with null at 0.8 V, linear phase map",
        f"intensity at 0.4 V = {half:.12f}",
    )


@pytest.fixture(scope="module")
def default_sweep():
    params = LinkParams()
    intens = DecoyIntensities()
    start = time.perf_counter()
    points = sweep_loss(0.0, 60.0, 1.0, params, intens)
    elapsed = time.perf_counter() - start
    return points, elapsed


def test_criterion_4a_qber_floor(default_sweep):
    points, _ = default_sweep
    low = [p.breakdown.e_mu for p in points if p.loss_db <= 10.0]
    ok = len(low) == 11 and all(abs(q - 0.033) <= 0.003 for q in low)
    _report(
        ok,
        "criterion 4a: QBER at <= 10 dB equals 3.3% +/- 0.3%",
        f"range [{min(low):.5f}, {max(low):.5f}]",
    )


def test_criterion_4b_rate_at_15db():
    r = rate_at_loss(15.0, LinkParams(), DecoyIntensities()).r_bps
    ok = r > 0.0 and 2.21e6 / 3.0 <= r <= 2.21e6 * 3.0
    _report(
        ok,
        "criterion 4b: r_bps at 15 dB within factor 3 of 2.21 Mbps",
        f"got {r:.4g} bps, ratio {2.21e6 / r:.2f}",
    )


def test_criterion_4c_cutoff_loss(default_sweep):
    points, _ = default_sweep
    cutoff = cutoff_loss(sweep_loss(0.0, 60.0, 0.1, LinkParams(), DecoyIntensities()))
    ok = cutoff is not None and 44.0 <= cutoff <= 54.0
    _report(
        ok,
        "criterion 4c: positive-rate cutoff within [44, 54] dB",
        f"got {cutoff} dB",
    )


def test_criterion_4d_sweep_shape_and_runtime(default_sweep):
    points, elapsed = default_sweep
    ok = len(points) == 61 and elapsed < 1.0
    _report(
        ok,
        "criterion 4d: 61-point sweep in < 1 s",
        f"{len(points)} rows, {elapsed:.3f}s",
    )


def test_criterion_5_decoy_bound_soundness():
    """Bounds never cross the true single-photon statistics of honest channels."""
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    violations = 0
    for _ in range(1_000):
        eta = 10.0 ** (-rng.uniform(0.0, 4.0))
        y0 = rng.uniform(0.0, 1e-4)
        e_det = rng.uniform(0.0, 0.1)
        mu = rng.uniform(0.2, 0.6)
        nu = mu * rng.uniform(0.2, 0.45)
        omega = nu * rng.uniform(0.0, 0.5)

        def gain(lam):
            sig = 1.0 - math.exp(-eta * lam)
            return y0 + sig, 0.5 * y0 + e_det * sig

        q_mu, _ = gain(mu)
        q_nu, eq_nu = gain(nu)
        q_om, eq_om = gain(omega)
        y1_true = y0 + eta
        e1_true = (0.5 * y0 + e_det * eta) / y1_true
        y0_l = bound_y0(q_nu, q_om, nu, omega)
        y1_l = bound_y1(q_mu, q_nu, q_om, mu, nu, omega, y0_l)
        if y0_l > y0 + 1e-12 or y1_l > y1_true + 1e-12:
            violations += 1
            continue
        if y1_l > 0.0:
            e1_u = bound_e1(eq_nu, eq_om, nu, omega, y1_l)
            if e1_u < e1_true - 1e-12:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _report(
        ok,
        "criterion 5: decoy-bound soundness over 10^3 honest channels",
        f"{violations} violations, {elapsed:.2f}s",
    )


def test_criterion_6_mc_analytic_consistency():
    """Per-class gains/QBERs within 3 sigma of analytic values in >= 99/100 seeds.

    Frozen seed set 300..399 at 10^7 frames. The check is two-sided with a
    continuity correction of half a count on the binomial bands.
    """
    params = LinkParams()
    intens = DecoyIntensities()
    expected = {key: expected_row_stats(key, params, intens) for key in STATE_ROWS}
    start = time.perf_counter()
    passed = 0
    for seed in range(300, 400):
        tallies = simulate_frames_mc(10**7, params, intens, seed=seed)
        ok_seed = True
        for key in STATE_ROWS:
            t = tallies.rows[key]
            e = expected[key]
            band_q = 3.0 * math.sqrt(t.sent * e.q * (1.0 - e.q)) + 0.5
            if abs(t.detected - t.sent * e.q) > band_q:
                ok_seed = False
            band_e = 3.0 * math.sqrt(t.detected * e.e * (1.0 - e.e)) + 0.5
            if t.detected and abs(t.errors - t.detected * e.e) > band_e:
                ok_seed = False
        passed += ok_seed
    elapsed = time.perf_counter() - start
    ok = passed >= 99 and elapsed < 120.0
    _report(
        ok,
        "criterion 6: MC within 3 sigma of analytic in >= 99/100 seeds at 10^7 frames",
        f"{passed}/100 seeds, {elapsed:.1f}s",
    )


def test_criterion_7_security_invariants():
    report = run_verification(seed=0)
    failures = [p["name"] for p in report["properties"] if not p["passed"]]
    names = [p["name"] for p in report["properties"]]
    shape_ok = (
        len(names) == 11
        and names[0] == "r_bin_amplitude_encoding_invariance"
        and names[-1] == "negative_control_nonuniform_detected"
    )
    ok = report["all_passed"] and shape_ok
    _report(
        ok,
        "criterion 7: security invariants (exact R-bin equality, uniformity, MI, control)",
        "all 11 properties" if ok else f"failed: {failures}",
    )


def test_criterion_8_schedule_round_trip():
    """Compile/decompile identity and byte-stable serialization, 10^3 streams."""
    rng = np.random.default_rng(8)
    timing = TimingParams()
    cal = CalibrationCurve()
    bases = ["Z0s", "Z1s", "Y0s", "Y1s", "Z0d", "Z1d", "Z0v", "Z1v"]
    symbols_by_token = {
        "Z0s": EncodingSymbol("Z", 0),
        "Z1s": EncodingSymbol("Z", 1),
        "Y0s": EncodingSymbol("Y", 0),
        "Y1s": EncodingSymbol("Y", 1),
        "Z0d": EncodingSymbol("Z", 0, "decoy"),
        "Z1d": EncodingSymbol("Z", 1, "decoy"),
        "Z0v": EncodingSymbol("Z", 0, "vacuum"),
        "Z1v": EncodingSymbol("Z", 1, "vacuum"),
    }
    worst = 0.0
    stable = True
    for _ in range(1_000):
        n = int(rng.integers(1, 13))
        stream = [symbols_by_token[bases[i]] for i in rng.integers(0, len(bases), n)]
        sched = compile_schedule(stream, timing, cal, SIGNAL_TABLE)
        text = schedule_to_text(sched)
        again = schedule_to_text(compile_schedule(stream, timing, cal, SIGNAL_TABLE))
        reserialized = schedule_to_text(schedule_from_text(text))
        stable = stable and text == again == reserialized
        pairs = decompile_schedule(schedule_from_text(text), timing, cal)
        for sym, got in zip(stream, pairs):
            want = encode_symbol(sym, SIGNAL_TABLE)
            worst = max(
                worst,
                abs(float(got.phi12) - float(want.phi12)),
                abs(float(got.phi23) - float(want.phi23)),
            )
    ok = stable and worst < 1e-9
    _report(
        ok,
        "criterion 8: compile/decompile round trip on 10^3 streams, byte-stable text",
        f"max phase dev {worst:.2e}",
    )
