"""Asymptotic two-decoy BB84 analysis: yield/error bounds and secure key rate.

Given per-class gains and QBERs (analytic or measured), bound the vacuum yield
Y0 and single-photon yield Y1 from below and the single-photon error e1 from
above, then evaluate the standard asymptotic key-rate formula. Bounds are
clamped to their physical ranges and never overestimate the rate obtained from
the true single-photon statistics of an honest channel.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

from .errors import ConfigurationError, ModelValidityError
from .linksim import (
    DecoyIntensities, GainQber, LinkParams, _check_loss_db, _clicks, _eta, _y1_denominator
)


class RateBreakdown(NamedTuple):
    """All intermediate quantities behind one secure-key-rate evaluation."""

    q_mu: float
    e_mu: float
    y0_l: float
    y1_l: float
    e1_u: float
    q1_l: float
    r_per_pulse: float
    r_bps: float


class SweepPoint(NamedTuple):
    loss_db: float
    breakdown: RateBreakdown


# The bound formulas take the exponentials and intensity differences as
# arguments, which a sweep computes once; the public bound_* check their inputs.
# Every per-point clamp is a conditional expression, not a builtin min/max
# call (the calls were a third of a sweep's time), and gives what the builtin
# gives, NaN and -0.0 included: max keeps its first argument unless the second
# is greater, min unless the second is less.
def _h2(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x), with H2(0) = H2(1) = 0."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _y0_l(q_nu, q_omega, nu, omega, exp_nu, exp_omega, nu_omega):
    y0 = (nu * q_omega * exp_omega - omega * q_nu * exp_nu) / nu_omega
    return 0.0 if 0.0 > y0 else y0


def _y1_l(q_mu, q_nu, q_omega, y0_l, exp_mu, exp_nu, exp_omega, mu_denom, nu2_omega2_mu2):
    y1 = mu_denom * (
        q_nu * exp_nu - q_omega * exp_omega - nu2_omega2_mu2 * (q_mu * exp_mu - y0_l)
    )
    return 0.0 if 0.0 > y1 else 1.0 if 1.0 < y1 else y1


def _e1_u(eq_nu, eq_omega, y1_l, exp_nu, exp_omega, nu_omega):
    if y1_l <= 0.0:  # no single-photon yield to bound: assume the worst, e1 = 0.5
        return 0.5
    e1 = (eq_nu * exp_nu - eq_omega * exp_omega) / (nu_omega * y1_l)
    return 0.0 if 0.0 > e1 else 0.5 if 0.5 < e1 else e1


def bound_y0(q_nu: float, q_omega: float, nu: float, omega: float) -> float:
    """Lower bound on the vacuum yield from the two decoy gains.

    With omega = 0 this reduces to reading Y0 directly off the vacuum gain.
    """
    if not nu > omega >= 0.0:
        raise ConfigurationError(f"need nu > omega >= 0, got nu={nu}, omega={omega}")
    return _y0_l(q_nu, q_omega, nu, omega, math.exp(nu), math.exp(omega), nu - omega)


def bound_y1(
    q_mu: float,
    q_nu: float,
    q_omega: float,
    mu: float,
    nu: float,
    omega: float,
    y0_l: float,
) -> float:
    """Lower bound on the single-photon yield, clamped to [0, 1]; intensities
    whose Y1 denominator rounds to <= 0 raise what DecoyIntensities raises."""
    denom = _y1_denominator(mu, nu, omega)
    return _y1_l(
        q_mu, q_nu, q_omega, y0_l, math.exp(mu), math.exp(nu), math.exp(omega),
        mu / denom, (nu * nu - omega * omega) / (mu * mu),
    )


def bound_e1(
    eq_nu: float, eq_omega: float, nu: float, omega: float, y1_l: float
) -> float:
    """Upper bound on the single-photon error rate, clamped to [0, 0.5].

    eq_nu and eq_omega are the error-gain products E*Q of the decoy and vacuum
    classes. When the Y1 bound vanishes there is nothing to bound, and the
    result is the worst case, 0.5.
    """
    if not nu > omega >= 0.0:
        raise ConfigurationError(f"need nu > omega >= 0, got nu={nu}, omega={omega}")
    return _e1_u(eq_nu, eq_omega, y1_l, math.exp(nu), math.exp(omega), nu - omega)


def _rate_of_gains(params: LinkParams, intens: DecoyIntensities) -> Callable[..., RateBreakdown]:
    """secure_key_rate of the six (mu, nu, omega) gains and QBERs, with every
    factor that depends only on params and intens computed once. A valid
    DecoyIntensities meets the bounds' conditions on the intensities."""
    mu, nu, omega = intens.mu, intens.nu, intens.omega
    exp_mu, exp_nu, exp_omega, exp_neg_mu = map(math.exp, (mu, nu, omega, -mu))
    nu_omega, mu_denom = nu - omega, mu / _y1_denominator(mu, nu, omega)
    nu2_omega2_mu2 = (nu * nu - omega * omega) / (mu * mu)
    q_sift = params.p_y_alice * params.p_y_bob
    f_ec, clock, y_receiver_factor = params.f_ec, params.clock, params.y_receiver_factor
    new = tuple.__new__

    def rate(q_mu, e_mu, q_nu, e_nu, q_omega, e_omega):
        y0_l = _y0_l(q_nu, q_omega, nu, omega, exp_nu, exp_omega, nu_omega)
        y1_l = _y1_l(
            q_mu, q_nu, q_omega, y0_l, exp_mu, exp_nu, exp_omega, mu_denom, nu2_omega2_mu2
        )
        e1_u = _e1_u(e_nu * q_nu, e_omega * q_omega, y1_l, exp_nu, exp_omega, nu_omega)
        q1_l = y1_l * mu * exp_neg_mu
        bracket = -q_mu * f_ec * _h2(e_mu) + q1_l * (1.0 - _h2(e1_u))
        r_per_pulse = q_sift * (bracket if bracket > 0.0 else 0.0)
        r_bps = r_per_pulse * clock * y_receiver_factor
        return new(RateBreakdown, (q_mu, e_mu, y0_l, y1_l, e1_u, q1_l, r_per_pulse, r_bps))

    return rate


def secure_key_rate(
    mu_gain: GainQber, nu_gain: GainQber, omega_gain: GainQber,
    params: LinkParams, intens: DecoyIntensities,
) -> RateBreakdown:
    """Secure key rate from measured/analytic per-class gains and QBERs.

    r_per_pulse = q_sift * max(0, -Q_mu*f_ec*H2(E_mu) + Q1*(1 - H2(e1))) with
    q_sift = p_y_alice * p_y_bob and Q1 = Y1_lower * mu * exp(-mu);
    r_bps additionally carries the symbol clock and the Y-receiver efficiency
    factor (which is not part of the gains handed in here).
    """
    return _rate_of_gains(params, intens)(
        mu_gain.q, mu_gain.e, nu_gain.q, nu_gain.e, omega_gain.q, omega_gain.e
    )


def _gain_qber(y0: float, e_det: float, sig: float) -> tuple[float, float]:
    q = y0 + sig  # >= 0, and 0 only on a dead channel
    if q > 1.0:
        raise ModelValidityError(f"linearized gain Y0 + {sig!r} = {q!r} exceeds 1")
    if q > 0.0:
        # 0.5 * y0 <= y0 and e_det * sig <= sig, and rounding is monotone, so e <= 1.
        return q, (0.5 * y0 + e_det * sig) / q
    return q, 0.5


def analytic_class_gains(
    params: LinkParams, intens: DecoyIntensities
) -> tuple[GainQber, GainQber, GainQber]:
    """Analytic (mu, nu, omega) gains/QBERs at the params' operating point:
    Q = Y0 + the Z row's signal-click probability (GLLP), with errors e_det on
    signal clicks and random on dark counts; a dead channel gets E = 0.5.
    The linearized Q exceeds 1 when a bright pulse meets dark counts, which
    raises ModelValidityError."""
    y0, e_det = params.y0, params.e_det
    clicks = _clicks(params.eta, intens.mu, intens.nu, intens.omega)
    return tuple(GainQber(*_gain_qber(y0, e_det, sig)) for sig in clicks)


def _sweep(losses: list[float], params: LinkParams, intens: DecoyIntensities) -> list[SweepPoint]:
    """analytic_class_gains and secure_key_rate at each of a nondecreasing list
    of losses, with the same results and the same first error; each point
    computes only eta, the clicks, the gains, the bounds and the rate."""
    if not losses:
        return []
    # Only leading losses can be negative, and sweep_point_count keeps the
    # last one finite.
    _check_loss_db(losses[0])
    y0, e_det, det_efficiency = params.y0, params.e_det, params.det_efficiency
    mu, nu, omega = intens.mu, intens.nu, intens.omega
    rate, new, points = _rate_of_gains(params, intens), tuple.__new__, []
    for loss in losses:
        c_mu, c_nu, c_omega = _clicks(_eta(det_efficiency, loss), mu, nu, omega)
        q_mu, e_mu = _gain_qber(y0, e_det, c_mu)
        q_nu, e_nu = _gain_qber(y0, e_det, c_nu)
        q_omega, e_omega = _gain_qber(y0, e_det, c_omega)
        points.append(new(SweepPoint, (loss, rate(q_mu, e_mu, q_nu, e_nu, q_omega, e_omega))))
    return points


def rate_at_loss(
    loss_db: float, params: LinkParams, intens: DecoyIntensities
) -> RateBreakdown:
    """Full analytic pipeline at one channel-loss point."""
    return _sweep([loss_db], params, intens)[0].breakdown


# Most points a sweep may hold.
MAX_SWEEP_POINTS = 1_000_000


def sweep_point_count(loss_min: float, loss_max: float, step: float) -> int:
    """Points of the inclusive sweep, floor((max - min) / step + 1e-9) + 1, or
    0 when min > max. A non-finite bound or step, a step <= 0, more than
    MAX_SWEEP_POINTS points or a last point min + (n - 1) * step that
    overflows is a ConfigurationError."""
    if not (math.isfinite(step) and step > 0.0):
        raise ConfigurationError(f"loss step must be > 0, got {step!r}")
    if not (math.isfinite(loss_min) and math.isfinite(loss_max)):
        raise ConfigurationError(f"sweep range must be finite, got {loss_min!r}..{loss_max!r}")
    if loss_min > loss_max:
        return 0
    # Compared as a float: the point count can be too large for an int.
    span = (loss_max - loss_min) / step + 1e-9
    if span >= MAX_SWEEP_POINTS:
        raise ConfigurationError(
            f"sweep {loss_min!r}..{loss_max!r} dB in steps of {step!r} dB has more "
            f"than {MAX_SWEEP_POINTS} points"
        )
    n = int(math.floor(span)) + 1
    if not math.isfinite(loss_min + (n - 1) * step):
        raise ConfigurationError(
            f"sweep {loss_min!r}..{loss_max!r} dB in steps of {step!r} dB has a last "
            f"point, {loss_min!r} + {n - 1} * {step!r} dB, that overflows to inf"
        )
    return n


def sweep_loss(
    loss_min: float, loss_max: float, step: float, params: LinkParams, intens: DecoyIntensities
) -> list[SweepPoint]:
    """Evaluate the analytic rate over a loss range (inclusive of both ends)."""
    n = sweep_point_count(loss_min, loss_max, step)
    return _sweep([loss_min + i * step for i in range(n)], params, intens)


def cutoff_loss(points: Iterable[SweepPoint]) -> float | None:
    """Largest swept loss with a positive key rate, or None."""
    return max((p.loss_db for p in points if p.breakdown.r_bps > 0.0), default=None)


SWEEP_CSV_HEADER = "loss_db,q_mu,e_mu,y1_l,e1_u,r_per_pulse,r_bps"


def sweep_csv_lines(points: Iterable[SweepPoint]) -> list[str]:
    """CSV rows for a sweep, full double precision."""
    lines = [SWEEP_CSV_HEADER]
    for p in points:
        b = p.breakdown
        lines.append(
            f"{p.loss_db!r},{b.q_mu!r},{b.e_mu!r},{b.y1_l!r},{b.e1_u!r},"
            f"{b.r_per_pulse!r},{b.r_bps!r}"
        )
    return lines
