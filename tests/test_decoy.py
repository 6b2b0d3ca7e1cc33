import hashlib
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dmqkd.decoy import (
    MAX_SWEEP_POINTS,
    SWEEP_CSV_HEADER,
    RateBreakdown,
    SweepPoint,
    _e1_u,
    _gain_qber,
    _h2,
    _y0_l,
    _y1_l,
    analytic_class_gains,
    bound_e1,
    bound_y0,
    bound_y1,
    cutoff_loss,
    rate_at_loss,
    secure_key_rate,
    sweep_csv_lines,
    sweep_loss,
    sweep_point_count,
)
from dmqkd.errors import ConfigurationError, DmqkdError, ModelValidityError
from dmqkd.linksim import DecoyIntensities, GainQber, LinkParams, with_loss


class TestBinaryEntropy:
    def test_endpoints(self):
        assert _h2(0.0) == 0.0
        assert _h2(1.0) == 0.0
        assert _h2(0.5) == 1.0

    def test_known_value(self):
        assert _h2(0.033) == pytest.approx(0.2092204778691527, rel=1e-12)

    def test_symmetry(self):
        assert _h2(0.2) == pytest.approx(_h2(0.8))


class TestBounds:
    def test_y0_with_true_vacuum_reads_the_gain(self):
        assert bound_y0(0.01, 3e-8, 0.16, 0.0) == pytest.approx(3e-8)

    def test_y0_clamped_at_zero(self):
        assert bound_y0(0.5, 0.0, 0.16, 0.015) == 0.0

    def test_y0_degenerate(self):
        with pytest.raises(ConfigurationError, match=r"^need nu > omega >= 0"):
            bound_y0(0.01, 0.01, 0.16, 0.16)

    def test_y1_clamped(self):
        assert 0.0 <= bound_y1(0.9, 0.8, 0.7, 0.4, 0.16, 0.015, 0.0) <= 1.0

    def test_y1_bad_intensities(self):
        with pytest.raises(ConfigurationError):
            bound_y1(0.01, 0.005, 0.001, 0.4, 0.3, 0.2, 0.0)

    def test_y1_denominator_that_rounds_to_zero_names_the_denominator(self):
        # mu > nu > omega and nu + omega < mu hold; the rounded denominator
        # is 0.0. DecoyIntensities refuses them with the same message.
        mu, nu, omega = 0.6024124315095266, 0.29027758371436535, 0.2902775837143647
        message = (
            r"^Y1 bound denominator mu\*nu - mu\*omega - nu\*nu \+ omega\*omega must be > 0, "
            r"got 0\.0 \(mu=0\.6024124315095266, nu=0\.29027758371436535, "
            r"omega=0\.2902775837143647\)$"
        )
        with pytest.raises(ConfigurationError, match=message):
            bound_y1(0.01, 0.005, 0.001, mu, nu, omega, 0.0)
        with pytest.raises(ConfigurationError, match=message):
            DecoyIntensities(mu, nu, omega)

    @pytest.mark.parametrize("y1_l", [0.0, -0.0, -1e-300])
    def test_e1_is_half_for_zero_yield(self, y1_l):
        assert bound_e1(1e-4, 1e-8, 0.16, 0.015, y1_l) == 0.5

    def test_e1_at_zero_yield_is_what_the_rate_reports(self):
        # These intensities clamp y1_l to 0 at the default link.
        params, intens = LinkParams(), DecoyIntensities(1.0, 0.5, 0.4)
        b = rate_at_loss(15.0, params, intens)
        assert b.y1_l == 0.0
        _, nu_g, om_g = analytic_class_gains(with_loss(params, 15.0), intens)
        e1_u = bound_e1(nu_g.e * nu_g.q, om_g.e * om_g.q, intens.nu, intens.omega, b.y1_l)
        assert e1_u == b.e1_u == 0.5

    def test_e1_clamped_to_half(self):
        assert bound_e1(0.5, 0.0, 0.16, 0.015, 1e-6) == 0.5

    def test_e1_degenerate(self):
        with pytest.raises(ConfigurationError, match=r"^need nu > omega >= 0"):
            bound_e1(1e-4, 1e-8, 0.16, 0.16, 0.01)


class TestSecureKeyRate:
    def test_default_operating_point(self):
        b = rate_at_loss(15.0, LinkParams(), DecoyIntensities())
        assert b.q_mu == pytest.approx(0.008815322890016408, rel=1e-12)
        assert b.e_mu == pytest.approx(0.03300158927814369, rel=1e-12)
        assert b.y0_l == 0.0
        assert b.y1_l == pytest.approx(0.02116514292622537, rel=1e-12)
        assert b.e1_u == pytest.approx(0.040989997662225136, rel=1e-12)
        assert b.q1_l == pytest.approx(0.00567496783226331, rel=1e-12)
        assert b.r_per_pulse == pytest.approx(0.0017291808961597973, rel=1e-12)
        assert b.r_bps == pytest.approx(576393.6320532657, rel=1e-12)

    def test_rate_zero_at_extreme_loss(self):
        assert rate_at_loss(60.0, LinkParams(), DecoyIntensities()).r_bps == 0.0

    def test_vanishing_yield_sets_e1_to_half(self):
        # A signal gain far above what the decoy gains support drives the
        # single-photon yield bound to its zero clamp.
        b = secure_key_rate(
            GainQber(0.9, 0.033),
            GainQber(1e-6, 0.033),
            GainQber(1e-6, 0.033),
            LinkParams(),
            DecoyIntensities(),
        )
        assert b.y1_l == 0.0 and b.e1_u == 0.5 and b.r_bps == 0.0

    def test_rate_decreases_with_loss(self):
        params, intens = LinkParams(), DecoyIntensities()
        rates = [rate_at_loss(db, params, intens).r_bps for db in range(0, 61, 5)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.0


class TestSweep:
    def test_inclusive_endpoints(self):
        points = sweep_loss(0.0, 60.0, 1.0, LinkParams(), DecoyIntensities())
        assert len(points) == 61
        assert points[0].loss_db == 0.0 and points[-1].loss_db == 60.0

    def test_single_point(self):
        points = sweep_loss(15.0, 15.0, 1.0, LinkParams(), DecoyIntensities())
        assert len(points) == 1

    def test_empty_when_inverted(self):
        assert sweep_loss(20.0, 10.0, 1.0, LinkParams(), DecoyIntensities()) == []

    def test_bad_step(self):
        with pytest.raises(ConfigurationError):
            sweep_loss(0.0, 10.0, 0.0, LinkParams(), DecoyIntensities())

    @pytest.mark.parametrize(
        "lo,hi,step",
        [
            (0.0, 1e308, 1e-300),  # the count overflows a float
            (0.0, 1e308, 1.0),
            (0.0, float(MAX_SWEEP_POINTS), 1.0),
            (-1e308, 1e308, 1.0),  # the span overflows
        ],
    )
    def test_point_cap(self, lo, hi, step):
        with pytest.raises(ConfigurationError, match="points"):
            sweep_loss(lo, hi, step, LinkParams(), DecoyIntensities())

    @pytest.mark.parametrize(
        "lo,hi,step",
        [(0.0, 10.0, -1.0), (0.0, 10.0, math.nan), (0.0, math.inf, 1.0), (math.nan, 10.0, 1.0)],
    )
    def test_non_finite_or_bad_step(self, lo, hi, step):
        with pytest.raises(ConfigurationError):
            sweep_loss(lo, hi, step, LinkParams(), DecoyIntensities())

    def test_point_count(self):
        assert sweep_point_count(0.0, float(MAX_SWEEP_POINTS - 1), 1.0) == MAX_SWEEP_POINTS
        assert sweep_point_count(0.0, 60.0, 0.01) == 6001
        assert sweep_point_count(20.0, 10.0, 1.0) == 0

    def test_range_whose_last_point_overflows_rejected(self):
        # The last of four points, 0 + 3 * step, is inf.
        with pytest.raises(ConfigurationError, match=r"^sweep 0\.0\.\.1\.7976931348623157e\+308 "
                           r"dB in steps of 5\.992310449541053e\+307 dB has a last point, "
                           r"0\.0 \+ 3 \* 5\.992310449541053e\+307 dB, that overflows to inf$"):
            sweep_point_count(0.0, sys.float_info.max, 5.992310449541053e307)
        # Three points end at 1.198e308, which is finite.
        assert sweep_point_count(0.0, 1.2e308, 5.992310449541053e307) == 3

    def test_cutoff(self):
        points = sweep_loss(0.0, 60.0, 1.0, LinkParams(), DecoyIntensities())
        cutoff = cutoff_loss(points)
        assert cutoff is not None
        for p in points:
            if p.loss_db <= cutoff:
                continue
            assert p.breakdown.r_bps == 0.0

    def test_cutoff_none_when_rate_never_positive(self):
        points = sweep_loss(59.0, 60.0, 1.0, LinkParams(), DecoyIntensities())
        assert cutoff_loss(points) is None

    def test_csv_lines(self):
        points = sweep_loss(10.0, 12.0, 1.0, LinkParams(), DecoyIntensities())
        lines = sweep_csv_lines(points)
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 10.0
        assert len(first) == len(SWEEP_CSV_HEADER.split(","))


def test_bounds_sound_on_a_simple_honest_channel():
    """Spot check of the bound inequalities against the true photon yields."""
    eta, y0, e_det = 0.02, 3e-8, 0.033
    mu, nu, omega = 0.4, 0.16, 0.015

    def gain(lam):
        sig = 1.0 - math.exp(-eta * lam)
        return y0 + sig, 0.5 * y0 + e_det * sig

    q_mu, _ = gain(mu)
    q_nu, eq_nu = gain(nu)
    q_om, eq_om = gain(omega)
    y0_l = bound_y0(q_nu, q_om, nu, omega)
    y1_l = bound_y1(q_mu, q_nu, q_om, mu, nu, omega, y0_l)
    y1_true = y0 + eta
    e1_true = (0.5 * y0 + e_det * eta) / y1_true
    assert y0_l <= y0 + 1e-15
    assert 0.0 < y1_l <= y1_true + 1e-15
    assert bound_e1(eq_nu, eq_om, nu, omega, y1_l) >= e1_true - 1e-15


def test_sweep_rejects_a_negative_loss():
    with pytest.raises(ConfigurationError, match=r"loss_db must be >= 0, got -1\.0"):
        sweep_loss(-1.0, 1.0, 0.5, LinkParams(), DecoyIntensities())


def _sweep_csv_digest(loss_max, step, params, intens):
    """SHA-256 of a sweep from 0 dB as `dmqkd sweep` writes it."""
    csv = "\n".join(sweep_csv_lines(sweep_loss(0.0, loss_max, step, params, intens))) + "\n"
    return hashlib.sha256(csv.encode()).hexdigest()


def test_golden_sweep_csv():
    """The default 0-60 dB sweep at 0.01 dB."""
    assert _sweep_csv_digest(60.0, 0.01, LinkParams(), DecoyIntensities()) == (
        "261d5dc97fe6878164fe0aace5dc8575865aaf4e84dcb87bb02247b3b6daa6be"
    )


@pytest.mark.parametrize("params, intens, digest", [
    # A true vacuum class and no dark counts: the vacuum gain is 0, so y0_l is
    # exactly +0.0 at every point, and the rate never reaches its cutoff.
    (LinkParams(dark_rate=0.0), DecoyIntensities(omega=0.0),
     "05c0ac13f387ed4e876ee3b65fc1760894ce39989d7cfc7c0aa99753207ffd81"),
    # A dead channel: every gain is 0 with QBER 0.5, y1_l and the rate's
    # bracket are exactly +0.0, and e1_u takes the worst case.
    (LinkParams(det_efficiency=0.0, dark_rate=0.0), DecoyIntensities(),
     "f160e36b88da7e36b7fcc813356c00c42df518eae7da3e8ad06ee7dcf9999b93"),
], ids=["true-vacuum-no-darks", "dead-channel"])
def test_golden_sweep_csv_at_the_clamp_edges(params, intens, digest):
    """0-80 dB sweeps at 0.1 dB whose bounds sit on the clamps' edges."""
    assert _sweep_csv_digest(80.0, 0.1, params, intens) == digest


unit_floats = st.floats(0.0, 1.0)
# Honest links: dark probability 2 * dark_rate * window <= 0.08, e_det <= 0.5.
honest_links = st.builds(
    LinkParams,
    det_efficiency=unit_floats,
    dark_rate=st.floats(0.0, 1e5),
    window=st.floats(0.0, 4e-7),
    p_y_alice=unit_floats,
    p_y_bob=unit_floats,
    e_det=st.floats(0.0, 0.5),
    f_ec=st.floats(1.0, 2.0),
    y_receiver_factor=unit_floats,
)


@st.composite
def decoy_intensities(draw):
    mu = draw(st.floats(0.01, 1.0))
    nu = mu * draw(st.floats(0.01, 0.66))
    omega = nu * draw(st.floats(0.0, 0.5))
    assume(mu > nu > omega and nu + omega < mu)
    return DecoyIntensities(mu, nu, omega)


@settings(max_examples=300, deadline=None)
@given(honest_links, decoy_intensities(), st.floats(0.0, 80.0))
def test_bounds_sound_over_random_honest_links(params, intens, loss_db):
    """The rate's decoy bounds never cross the true vacuum and single-photon
    yields Y0 = y0, Y1 = Y0 + eta, nor the true e1 = (Y0/2 + e_det*eta)/Y1."""
    b = rate_at_loss(loss_db, params, intens)
    y0, eta = params.y0, with_loss(params, loss_db).eta
    y1 = y0 + eta
    assert b.y0_l <= y0 + 1e-12
    assert b.y1_l <= y1 + 1e-12
    if b.y1_l > 0.0:
        # Each term divided first: 0.5 * y0 is inexact when y0 is subnormal.
        assert b.e1_u >= 0.5 * (y0 / y1) + params.e_det * (eta / y1) - 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 8: 1 - e^(-eta*lambda) by subtraction loses precision once "
    "eta*lambda is far below 1, and the Y1 and e1 bounds cross the true values"))
@pytest.mark.parametrize("params, intens, loss_db", [
    (LinkParams(det_efficiency=1e-15, dark_rate=0.0, window=0.0, e_det=0.5),
     DecoyIntensities(0.375, 0.1875, 0.0), 0.0),
    (LinkParams(det_efficiency=3.4139404567989e-07, dark_rate=1.192092896e-07,
                window=1.192092896e-07, p_y_alice=0.0, p_y_bob=0.0, e_det=0.0, f_ec=1.0,
                y_receiver_factor=0.0),
     DecoyIntensities(0.25, 0.0025, 0.0), 49.0),
], ids=["eta-1e-15", "eta-mu-1e-12"])
def test_e1_bound_sound_at_tiny_detector_efficiency(params, intens, loss_db):
    """Cases of test_bounds_sound_over_random_honest_links whose bounds are
    unsound: y1_l is 1.565 and 1.0019 times the true Y1, and e1_u is 0.45648
    against a true e1 of 0.5 and 0.0032825 against 0.0032847."""
    b = rate_at_loss(loss_db, params, intens)
    y0, eta = params.y0, with_loss(params, loss_db).eta
    y1 = y0 + eta
    assert b.y1_l > 0.0
    assert b.y1_l <= y1 * (1.0 + 1e-9)
    assert b.e1_u >= 0.5 * (y0 / y1) + params.e_det * (eta / y1) - 1e-12


def test_rate_records_are_immutable_tuples():
    params, intens = LinkParams(), DecoyIntensities()
    b = rate_at_loss(15.0, params, intens)
    assert RateBreakdown._fields == (
        "q_mu", "e_mu", "y0_l", "y1_l", "e1_u", "q1_l", "r_per_pulse", "r_bps"
    )
    assert SweepPoint._fields == ("loss_db", "breakdown")
    (point,) = sweep_loss(15.0, 15.0, 1.0, params, intens)
    assert b == tuple(b) and point == (15.0, b) and point.breakdown.e_mu == b[1]
    with pytest.raises(AttributeError):
        b.r_bps = 0.0
    with pytest.raises(AttributeError):
        point.loss_db = 0.0


# The frozen-dataclass record and the per-point GainQber construction that the
# named tuples replaced, kept as the oracle: the same class name, so equal
# reprs mean equal fields, bit for bit.
@dataclass(frozen=True)
class _OracleRateBreakdown:
    q_mu: float
    e_mu: float
    y0_l: float
    y1_l: float
    e1_u: float
    q1_l: float
    r_per_pulse: float
    r_bps: float


_OracleRateBreakdown.__name__ = _OracleRateBreakdown.__qualname__ = "RateBreakdown"


# decoy's per-point formulas with the builtin min/max clamps that its
# conditional expressions replaced, kept as their oracle.
def _oracle_y0_l(q_nu, q_omega, nu, omega, exp_nu, exp_omega, nu_omega):
    return max((nu * q_omega * exp_omega - omega * q_nu * exp_nu) / nu_omega, 0.0)


def _oracle_y1_l(q_mu, q_nu, q_omega, y0_l, exp_mu, exp_nu, exp_omega, mu_denom, nu2_omega2_mu2):
    y1 = q_nu * exp_nu - q_omega * exp_omega - nu2_omega2_mu2 * (q_mu * exp_mu - y0_l)
    return min(max(mu_denom * y1, 0.0), 1.0)


def _oracle_e1_u(eq_nu, eq_omega, y1_l, exp_nu, exp_omega, nu_omega):
    if y1_l <= 0.0:
        return 0.5
    return min(max((eq_nu * exp_nu - eq_omega * exp_omega) / (nu_omega * y1_l), 0.0), 0.5)


def _oracle_gain_qber(y0, e_det, sig):
    q = y0 + sig
    if q > 1.0:
        raise ModelValidityError(f"linearized gain Y0 + {sig!r} = {q!r} exceeds 1")
    return q, (min((0.5 * y0 + e_det * sig) / q, 1.0) if q > 0.0 else 0.5)


def _oracle_class_gains(params, intens):
    y0, e_det, eta = params.y0, params.e_det, params.eta
    mu, nu, omega = [1.0 - math.exp(-eta * lam) for lam in (intens.mu, intens.nu, intens.omega)]
    return tuple(GainQber(*_oracle_gain_qber(y0, e_det, sig)) for sig in (mu, nu, omega))


def _oracle_h2(x):
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _oracle_rate(mu_gain, nu_gain, omega_gain, params, intens):
    mu, nu, omega = intens.mu, intens.nu, intens.omega
    exp_mu, exp_nu, exp_omega = math.exp(mu), math.exp(nu), math.exp(omega)
    y0_l = _oracle_y0_l(nu_gain.q, omega_gain.q, nu, omega, exp_nu, exp_omega, nu - omega)
    y1_l = _oracle_y1_l(
        mu_gain.q, nu_gain.q, omega_gain.q, y0_l, exp_mu, exp_nu, exp_omega,
        mu / (mu * nu - mu * omega - nu * nu + omega * omega),
        (nu * nu - omega * omega) / (mu * mu),
    )
    e1_u = _oracle_e1_u(
        nu_gain.e * nu_gain.q, omega_gain.e * omega_gain.q, y1_l, exp_nu, exp_omega, nu - omega
    )
    q1_l = y1_l * mu * math.exp(-mu)
    q_sift = params.p_y_alice * params.p_y_bob
    r_per_pulse = q_sift * max(
        0.0,
        -mu_gain.q * params.f_ec * _oracle_h2(mu_gain.e)
        + q1_l * (1.0 - _oracle_h2(e1_u)),
    )
    r_bps = r_per_pulse * params.clock * params.y_receiver_factor
    return _OracleRateBreakdown(
        q_mu=mu_gain.q, e_mu=mu_gain.e, y0_l=y0_l, y1_l=y1_l, e1_u=e1_u, q1_l=q1_l,
        r_per_pulse=r_per_pulse, r_bps=r_bps,
    )


@settings(max_examples=500, deadline=None)
@given(honest_links, unit_floats, decoy_intensities(), st.floats(0.0, 80.0))
def test_rate_matches_the_dataclass_oracle_bit_for_bit(params, e_det, intens, loss_db):
    # e_det over all of [0, 1], so that the QBER reaches 1, where the oracle clamps.
    params = params.replace(e_det=e_det)
    at = with_loss(params, loss_db)
    gains = _oracle_class_gains(at, intens)
    b = _oracle_rate(*gains, at, intens)
    assert repr(rate_at_loss(loss_db, params, intens)) == repr(b)
    assert repr(analytic_class_gains(at, intens)) == repr(gains)
    # The public bounds run the same formulas as the rate.
    (mu_g, nu_g, om_g), nu, omega = gains, intens.nu, intens.omega
    y0_l = bound_y0(nu_g.q, om_g.q, nu, omega)
    y1_l = bound_y1(mu_g.q, nu_g.q, om_g.q, intens.mu, nu, omega, y0_l)
    e1_u = bound_e1(nu_g.e * nu_g.q, om_g.e * om_g.q, nu, omega, y1_l)
    assert repr((y0_l, y1_l, e1_u)) == repr((b.y0_l, b.y1_l, b.e1_u))


def _oracle_sweep(loss_min, loss_max, step, params, intens):
    """The sweep point by point through with_loss and the oracles above."""
    points = []
    for i in range(sweep_point_count(loss_min, loss_max, step)):
        loss = loss_min + i * step
        at = with_loss(params, loss)
        points.append(SweepPoint(loss, _oracle_rate(*_oracle_class_gains(at, intens), at, intens)))
    return points


def _outcome(sweep, *args):
    """repr of the sweep's points, or the type and message of what it raised."""
    try:
        return repr(sweep(*args))
    except DmqkdError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    honest_links, unit_floats, decoy_intensities(), st.floats(0.0, 80.0),
    st.floats(1e-3, 5.0), st.floats(-1.0, 49.5),
)
def test_sweep_matches_the_point_by_point_oracle(params, e_det, intens, loss_min, step, steps):
    params = params.replace(e_det=e_det)
    args = (loss_min, loss_min + steps * step, step, params, intens)
    assert _outcome(sweep_loss, *args) == _outcome(_oracle_sweep, *args)


@settings(max_examples=100, deadline=None)
@given(honest_links, decoy_intensities())
def test_sweep_csv_matches_the_min_max_oracle(params, intens):
    args = (0.0, 80.0, 0.5, params, intens)
    assert sweep_csv_lines(sweep_loss(*args)) == sweep_csv_lines(_oracle_sweep(*args))


# Floats at and around every clamp edge, the specials included.
any_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf, -math.inf, math.nan]),
    st.floats(-2.0, 2.0),
    st.floats(),
)
# GainQber refuses non-finite and out-of-range values; secure_key_rate reads
# only .q and .e.
_AnyGain = namedtuple("_AnyGain", "q e")


def _result(f, *args):
    """repr of f(*args), or the type and message of the arithmetic, domain or
    model error it raised."""
    try:
        return repr(f(*args))
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(st.lists(any_floats, min_size=9, max_size=9))
@example([0.0, 0.0, math.inf] + [1.0] * 6)
def test_clamps_match_the_builtin_min_max_oracle(xs):
    for clamped, oracle, n_args in [
        (_y0_l, _oracle_y0_l, 7),
        (_y1_l, _oracle_y1_l, 9),
        (_e1_u, _oracle_e1_u, 6),
    ]:
        assert _result(clamped, *xs[:n_args]) == _result(oracle, *xs[:n_args])


@settings(max_examples=1000, deadline=None)
@given(st.floats(0.0, 0.1), unit_floats, unit_floats)
@example(0.05, 0.5, 0.96)  # Y0 + sig = 1.01: ModelValidityError
@example(0.0, 1.0, 5e-324)
@example(5e-324, 1.0, 1.0 - 2**-53)
def test_qber_stays_at_most_one_without_a_clamp(y0, e_det, sig):
    """On a valid link (Y0 <= 0.1, the most LinkParams.y0 allows, and e_det and
    the click probability in [0, 1]) the unclamped QBER is at most 1, so it
    equals the oracle's, which clamps at 1."""
    assert _result(_gain_qber, y0, e_det, sig) == _result(_oracle_gain_qber, y0, e_det, sig)
    if y0 + sig <= 1.0:
        assert 0.0 <= _gain_qber(y0, e_det, sig)[1] <= 1.0


@settings(max_examples=300, deadline=None)
@given(honest_links, decoy_intensities(), st.lists(any_floats, min_size=6, max_size=6))
def test_rate_of_any_gains_matches_the_builtin_min_max_oracle(params, intens, xs):
    gains = [_AnyGain(q, e) for q, e in zip(xs[::2], xs[1::2])]
    assert _result(secure_key_rate, *gains, params, intens) == _result(
        _oracle_rate, *gains, params, intens
    )


_DBL_MAX = sys.float_info.max
_Q_ABOVE_ONE = DecoyIntensities(40.0, 1.0, 0.0)  # Q > 1 at 0 dB


@pytest.mark.parametrize(
    "loss_min,loss_max,step,params,intens",
    [
        (-1.0, 1.0, 0.5, LinkParams(), DecoyIntensities()),
        (-1.0, 1.0, 0.5, LinkParams(dark_rate=1e9), DecoyIntensities()),
        (0.0, 0.0, 1.0, LinkParams(), _Q_ABOVE_ONE),
        (0.0, 10.0, 1.0, LinkParams(dark_rate=1e9), DecoyIntensities()),
        # The last of four points, 3 * step, overflows to inf: sweep_point_count,
        # which both sweeps call first, refuses the range.
        (0.0, _DBL_MAX, 5.992310449541053e307, LinkParams(), DecoyIntensities()),
        (0.0, _DBL_MAX, 5.992310449541053e307, LinkParams(), _Q_ABOVE_ONE),
    ],
    ids=["negative-loss", "negative-loss-before-dark", "gain-above-one", "dark",
         "last-loss-inf", "gain-above-one-before-last-loss-inf"],
)
def test_sweep_raises_what_the_oracle_raises(loss_min, loss_max, step, params, intens):
    args = (loss_min, loss_max, step, params, intens)
    expected = _outcome(_oracle_sweep, *args)
    assert isinstance(expected, tuple)
    assert _outcome(sweep_loss, *args) == expected


def test_empty_sweep_reads_no_dark_probability():
    assert sweep_loss(20.0, 10.0, 1.0, LinkParams(dark_rate=1e9), DecoyIntensities()) == []
