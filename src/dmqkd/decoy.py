"""Asymptotic two-decoy BB84 analysis: yield/error bounds and secure key rate.

Given per-class gains and QBERs (analytic or measured), bound the vacuum yield
Y0 and single-photon yield Y1 from below and the single-photon error e1 from
above, then evaluate the standard asymptotic key-rate formula. Bounds are
clamped to their physical ranges and never overestimate the rate obtained from
the true single-photon statistics of an honest channel.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import (
    ConfigurationError,
    DegenerateDecoyError,
    ModelValidityError,
    UndefinedBoundError,
)
from .linksim import (
    DecoyIntensities,
    GainQber,
    LinkParams,
    signal_click_probs,
    with_loss,
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


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x), with H2(0) = H2(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise ConfigurationError(f"binary_entropy argument must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def bound_y0(q_nu: float, q_omega: float, nu: float, omega: float) -> float:
    """Lower bound on the vacuum yield from the two decoy gains.

    With omega = 0 this reduces to reading Y0 directly off the vacuum gain.
    """
    if not nu > omega >= 0.0:
        raise DegenerateDecoyError(f"need nu > omega >= 0, got nu={nu}, omega={omega}")
    y0 = (nu * q_omega * math.exp(omega) - omega * q_nu * math.exp(nu)) / (nu - omega)
    return max(y0, 0.0)


def bound_y1(
    q_mu: float,
    q_nu: float,
    q_omega: float,
    mu: float,
    nu: float,
    omega: float,
    y0_l: float,
) -> float:
    """Lower bound on the single-photon yield, clamped to [0, 1]."""
    denom = mu * nu - mu * omega - nu * nu + omega * omega
    if denom <= 0.0:
        raise ConfigurationError(
            "decoy intensities violate mu > nu > omega and nu + omega < mu"
        )
    y1 = (mu / denom) * (
        q_nu * math.exp(nu)
        - q_omega * math.exp(omega)
        - ((nu * nu - omega * omega) / (mu * mu)) * (q_mu * math.exp(mu) - y0_l)
    )
    return min(max(y1, 0.0), 1.0)


def bound_e1(
    eq_nu: float, eq_omega: float, nu: float, omega: float, y1_l: float
) -> float:
    """Upper bound on the single-photon error rate, clamped to [0, 0.5].

    eq_nu and eq_omega are the error-gain products E*Q of the decoy and vacuum
    classes. Undefined when the Y1 bound vanishes; callers must then treat the
    key rate as zero.
    """
    if not nu > omega >= 0.0:
        raise DegenerateDecoyError(f"need nu > omega >= 0, got nu={nu}, omega={omega}")
    if y1_l <= 0.0:
        raise UndefinedBoundError("e1 bound undefined for y1_l = 0")
    e1 = (eq_nu * math.exp(nu) - eq_omega * math.exp(omega)) / ((nu - omega) * y1_l)
    return min(max(e1, 0.0), 0.5)


def secure_key_rate(
    mu_gain: GainQber,
    nu_gain: GainQber,
    omega_gain: GainQber,
    params: LinkParams,
    intens: DecoyIntensities,
) -> RateBreakdown:
    """Secure key rate from measured/analytic per-class gains and QBERs.

    r_per_pulse = q_sift * max(0, -Q_mu*f_ec*H2(E_mu) + Q1*(1 - H2(e1))) with
    q_sift = p_y_alice * p_y_bob and Q1 = Y1_lower * mu * exp(-mu);
    r_bps additionally carries the symbol clock and the Y-receiver efficiency
    factor (which is not part of the gains handed in here).
    """
    y0_l = bound_y0(nu_gain.q, omega_gain.q, intens.nu, intens.omega)
    y1_l = bound_y1(
        mu_gain.q, nu_gain.q, omega_gain.q, intens.mu, intens.nu, intens.omega, y0_l
    )
    if y1_l > 0.0:
        e1_u = bound_e1(
            nu_gain.e * nu_gain.q,
            omega_gain.e * omega_gain.q,
            intens.nu,
            intens.omega,
            y1_l,
        )
    else:
        e1_u = 0.5
    q1_l = y1_l * intens.mu * math.exp(-intens.mu)
    q_sift = params.p_y_alice * params.p_y_bob
    r_per_pulse = q_sift * max(
        0.0,
        -mu_gain.q * params.f_ec * binary_entropy(mu_gain.e)
        + q1_l * (1.0 - binary_entropy(e1_u)),
    )
    r_bps = r_per_pulse * params.clock * params.y_receiver_factor
    return RateBreakdown(mu_gain.q, mu_gain.e, y0_l, y1_l, e1_u, q1_l, r_per_pulse, r_bps)


def analytic_class_gains(
    params: LinkParams, intens: DecoyIntensities
) -> tuple[GainQber, GainQber, GainQber]:
    """Analytic (mu, nu, omega) gains/QBERs at the params' operating point:
    Q = Y0 + the Z row's signal-click probability (GLLP), with errors e_det on
    signal clicks and random on dark counts; a dead channel gets E = 0.5.
    The linearized Q exceeds 1 when a bright pulse meets dark counts, which
    raises ModelValidityError."""
    y0, e_det = params.y0, params.e_det
    _, mu, nu, omega = signal_click_probs(params, intens)  # STATE_ROWS order
    gains = []
    for sig in (mu, nu, omega):
        q = y0 + sig  # >= 0, and 0 only on a dead channel
        if q > 1.0:
            raise ModelValidityError(f"linearized gain Y0 + {sig!r} = {q!r} exceeds 1")
        # q and e lie in [0, 1] here, so GainQber's range check is skipped.
        g = object.__new__(GainQber)
        g.__dict__.update(q=q, e=min((0.5 * y0 + e_det * sig) / q, 1.0) if q > 0.0 else 0.5)
        gains.append(g)
    return tuple(gains)


def rate_at_loss(
    loss_db: float, params: LinkParams, intens: DecoyIntensities
) -> RateBreakdown:
    """Full analytic pipeline at one channel-loss point."""
    at = with_loss(params, loss_db)
    mu_g, nu_g, om_g = analytic_class_gains(at, intens)
    return secure_key_rate(mu_g, nu_g, om_g, at, intens)


class SweepPoint(NamedTuple):
    loss_db: float
    breakdown: RateBreakdown


# Most points a sweep may hold.
MAX_SWEEP_POINTS = 1_000_000


def sweep_point_count(loss_min: float, loss_max: float, step: float) -> int:
    """Points of the inclusive sweep, floor((max - min) / step + 1e-9) + 1, or
    0 when min > max. A non-finite bound or step, a step <= 0 or more than
    MAX_SWEEP_POINTS points is a ConfigurationError."""
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
    return int(math.floor(span)) + 1


def sweep_loss(
    loss_min: float,
    loss_max: float,
    step: float,
    params: LinkParams,
    intens: DecoyIntensities,
) -> list[SweepPoint]:
    """Evaluate the analytic rate over a loss range (inclusive of both ends)."""
    losses = [loss_min + i * step for i in range(sweep_point_count(loss_min, loss_max, step))]
    return [SweepPoint(loss, rate_at_loss(loss, params, intens)) for loss in losses]


def cutoff_loss(points: Iterable[SweepPoint]) -> float | None:
    """Largest swept loss with a positive key rate, or None."""
    positive = [p.loss_db for p in points if p.breakdown.r_bps > 0.0]
    return max(positive) if positive else None


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
