"""Channel, detector and receiver model: analytic gains/QBERs and Monte Carlo.

The channel is a flat attenuator; detection of a mean-photon-number lambda
pulse train is Poissonian with click probability 1 - e^(-eta*lambda). Dark
counts are linearized over the detection window. The link model is defined
once: LinkParams.y0, _eta (LinkParams.eta) and _clicks (signal_click_probs)
feed the sampler, its expected gains/QBERs and decoy's gains and sweep alike.
Bob chooses his basis passively with a beamsplitter; only basis-matched
(sifted) frames are tallied.

The Y-basis receiver interferes the time bins in a second AMZI and measures a
single output pulse, which costs a constant efficiency factor
(y_receiver_factor, nominally 1/2) on the Y-basis gain. Misalignment,
interference imperfections and laser phase noise are lumped into the single
error parameter e_det.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping, Sequence

from ._fanout import Crew, fan_out
from ._record import Record
from .errors import ConfigurationError, ModelValidityError, check_seed

# (intensity_class, basis) rows of every tally; Y carries signal states only.
STATE_ROWS: tuple[tuple[str, str], ...] = (
    ("signal", "Y"),
    ("signal", "Z"),
    ("decoy", "Z"),
    ("vacuum", "Z"),
)

DEFAULT_BLOCK_SIZE = 1 << 16


def _row_index(key: tuple[str, str]) -> int:
    """Position of key in STATE_ROWS; any other key is a ConfigurationError."""
    try:
        return STATE_ROWS.index(key)
    except ValueError:
        raise ConfigurationError(
            f"unknown state row {key!r}; STATE_ROWS are {STATE_ROWS}"
        ) from None


def _check_loss_db(loss_db: float) -> None:
    if not (math.isfinite(loss_db) and loss_db >= 0.0):
        raise ConfigurationError(f"loss_db must be >= 0, got {loss_db!r}")


def _eta(det_efficiency: float, loss_db: float) -> float:
    return det_efficiency * 10.0 ** (-loss_db / 10.0)


def _clicks(eta: float, mu: float, nu: float, omega: float) -> tuple[float, float, float]:
    """Click probabilities 1 - e^(-eta*lambda) at lambda = mu, nu and omega."""
    return 1.0 - math.exp(-eta * mu), 1.0 - math.exp(-eta * nu), 1.0 - math.exp(-eta * omega)


def _y1_denominator(mu: float, nu: float, omega: float) -> float:
    """The two-decoy Y1 bound's denominator, (nu - omega)(mu - nu - omega);
    one that rounds to <= 0 is a ConfigurationError."""
    denom = mu * nu - mu * omega - nu * nu + omega * omega
    if not denom > 0.0:
        raise ConfigurationError(
            "Y1 bound denominator mu*nu - mu*omega - nu*nu + omega*omega must be > 0, "
            f"got {denom!r} (mu={mu!r}, nu={nu!r}, omega={omega!r})"
        )
    return denom


class LinkParams(Record):
    """Channel, detector and protocol parameters for one operating point."""

    loss_db: float = 15.0
    det_efficiency: float = 0.7
    dark_rate: float = 50.0
    window: float = 300e-12
    clock: float = 2e9 / 3.0
    p_y_alice: float = 0.9
    p_y_bob: float = 0.9
    e_det: float = 0.033
    f_ec: float = 1.16
    y_receiver_factor: float = 0.5

    def __post_init__(self) -> None:
        _check_loss_db(self.loss_db)
        for name in ("det_efficiency", "p_y_alice", "p_y_bob", "e_det",
                     "y_receiver_factor"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ConfigurationError(f"{name} must lie in [0, 1], got {v!r}")
        if not (math.isfinite(self.dark_rate) and self.dark_rate >= 0.0):
            raise ConfigurationError(f"dark_rate must be >= 0, got {self.dark_rate!r}")
        if not (math.isfinite(self.window) and self.window >= 0.0):
            raise ConfigurationError(f"window must be >= 0, got {self.window!r}")
        if not (math.isfinite(self.clock) and self.clock > 0.0):
            raise ConfigurationError(f"clock must be > 0, got {self.clock!r}")
        if not (math.isfinite(self.f_ec) and self.f_ec >= 1.0):
            raise ConfigurationError(f"f_ec must be >= 1, got {self.f_ec!r}")

    @property
    def eta(self) -> float:
        """Overall photon survival probability: detector efficiency times channel."""
        return _eta(self.det_efficiency, self.loss_db)

    @property
    def y0(self) -> float:
        """Dark-click probability per frame of the two detectors, linearized
        over the window; above 0.1 it raises ModelValidityError rather than
        silently extrapolating."""
        y0 = 2 * self.dark_rate * self.window
        if y0 > 0.1:
            raise ModelValidityError(
                f"dark probability {y0} too large for the linearized model"
            )
        return y0


class DecoyIntensities(Record):
    """Mean photon numbers of the signal, decoy and vacuum classes."""

    mu: float = 0.4
    nu: float = 0.16
    omega: float = 0.015

    def __post_init__(self) -> None:
        if not (self.mu > self.nu > self.omega >= 0.0):
            raise ConfigurationError(
                f"need mu > nu > omega >= 0, got {self.mu}, {self.nu}, {self.omega}"
            )
        if not (self.nu + self.omega < self.mu):
            raise ConfigurationError(
                "need nu + omega < mu for the single-photon yield bound"
            )
        # The decoy bounds take e^mu, which overflows above ln(DBL_MAX).
        if self.mu > math.log(sys.float_info.max):
            raise ConfigurationError(f"mu must be <= ln(DBL_MAX) = 709.78, got {self.mu!r}")
        # nu + omega < mu can hold while the rounded denominator is <= 0.
        _y1_denominator(self.mu, self.nu, self.omega)


class GainQber(Record):
    """Gain (detections per sent state) and QBER of one state class."""

    q: float
    e: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.q <= 1.0 and 0.0 <= self.e <= 1.0):
            raise ConfigurationError(f"gain/QBER out of range: {self!r}")


class RowTally(Record, frozen=False):
    """Counts for one (class, basis) row; errors <= detected <= sent."""

    sent: int = 0
    detected: int = 0
    errors: int = 0


class TallyCounts(Record, frozen=False):
    """Per-(class, basis) sifted counts from a Monte Carlo run."""

    rows: dict[tuple[str, str], RowTally]

    def __init__(self) -> None:
        super().__init__({row: RowTally() for row in STATE_ROWS})

    def gain_qber(self, key: tuple[str, str]) -> GainQber:
        t = self.rows[STATE_ROWS[_row_index(key)]]
        q = t.detected / t.sent if t.sent else 0.0
        e = t.errors / t.detected if t.detected else 0.5
        return GainQber(q, e)

    def csv_rows(self) -> list[str]:
        lines = ["class,basis,sent,detected,errors"]
        for (cls, basis), t in self.rows.items():
            lines.append(f"{cls},{basis},{t.sent},{t.detected},{t.errors}")
        return lines


def default_state_probs(
    params: LinkParams, z_mix: Sequence[float] = (1 / 3, 1 / 3, 1 / 3)
) -> dict[tuple[str, str], float]:
    """Alice's per-frame state mix: p_y_alice on (signal, Y), the rest split
    over the Z-basis classes according to z_mix."""
    if len(z_mix) != 3 or any(p < 0.0 for p in z_mix):
        raise ConfigurationError("z_mix must be three nonnegative fractions")
    total = sum(z_mix)
    if not math.isfinite(total) or total <= 0.0:
        raise ConfigurationError("z_mix must have positive total")
    pz = 1.0 - params.p_y_alice
    return {
        ("signal", "Y"): params.p_y_alice,
        ("signal", "Z"): pz * z_mix[0] / total,
        ("decoy", "Z"): pz * z_mix[1] / total,
        ("vacuum", "Z"): pz * z_mix[2] / total,
    }


def signal_click_probs(
    params: LinkParams, intens: DecoyIntensities
) -> tuple[float, float, float, float]:
    """Per-row probability that the pulse itself (not a dark count) clicks,
    in STATE_ROWS order; the Y-basis row carries the receiver factor."""
    mu, nu, omega = _clicks(params.eta, intens.mu, intens.nu, intens.omega)
    return params.y_receiver_factor * mu, mu, nu, omega


def expected_row_stats(
    key: tuple[str, str], params: LinkParams, intens: DecoyIntensities
) -> GainQber:
    """Exact per-sifted-frame detection probability and QBER of the MC process.

    Matches decoy.analytic_class_gains up to the negligible dark-and-signal
    coincidence term.
    """
    y0 = params.y0
    p_sig = signal_click_probs(params, intens)[_row_index(key)]
    p_det = 1.0 - (1.0 - y0) * (1.0 - p_sig)
    if p_det <= 0.0:
        return GainQber(0.0, 0.5)
    e = (0.5 * y0 + params.e_det * p_sig * (1.0 - y0)) / p_det
    return GainQber(p_det, min(e, 1.0))


def simulate_frames_mc(
    n_frames: int,
    params: LinkParams,
    intens: DecoyIntensities,
    state_probs: Mapping[tuple[str, str], float] | None = None,
    seed: int = 0,
) -> TallyCounts:
    """Monte Carlo frame sampling; deterministic given the seed.

    Frames are processed in blocks of DEFAULT_BLOCK_SIZE, each with a
    generator derived from (seed, block index), so every block's tally
    depends only on the seed and its index. The draws of a block and their
    order and sizes are fixed: the state uniforms, Bob's basis uniforms, one
    signal-click and one dark-click uniform per sifted frame, then one error
    uniform per detection. The blocks are shared out over one thread per CPU
    this process may use; the tallies are integer sums of the blocks' counts,
    so they do not depend on the number of threads.
    """
    import numpy as np

    if isinstance(n_frames, bool) or not isinstance(n_frames, (int, np.integer)):
        raise ConfigurationError(f"n_frames must be an integer, got {n_frames!r}")
    if n_frames <= 0:
        raise ConfigurationError(f"n_frames must be > 0, got {n_frames!r}")
    check_seed(seed)
    if state_probs is None:
        state_probs = default_state_probs(params)
    probs = np.array([state_probs.get(row, 0.0) for row in STATE_ROWS], dtype=float)
    # Written so that a NaN fails both comparisons.
    if not (np.all(probs >= 0.0) and abs(probs.sum() - 1.0) <= 1e-9):
        raise ConfigurationError("state probabilities must be nonnegative and sum to 1")
    extra = set(state_probs) - set(STATE_ROWS)
    if extra:
        raise ConfigurationError(f"unknown state rows in probabilities: {sorted(extra)}")

    y0, e_det, p_y_bob = params.y0, params.e_det, params.p_y_bob
    p_sig = np.array(signal_click_probs(params, intens))
    cum = np.cumsum(probs)
    n_blocks = -(-int(n_frames) // DEFAULT_BLOCK_SIZE)

    def run(first: int, crew: Crew) -> tuple[np.ndarray, np.ndarray]:
        """Tallies of blocks first, first + workers, ... as (sent, clicks)."""
        # Each draw is consumed by a compare before the next one refills the buffer.
        buf = np.empty(DEFAULT_BLOCK_SIZE)
        row_buf = np.empty(DEFAULT_BLOCK_SIZE, dtype=np.int8)
        sent = np.zeros(4, dtype=np.int64)
        # Detections by row + 4 * error.
        clicks = np.zeros(8, dtype=np.int64)
        for b in range(first, n_blocks, crew.workers):
            if crew.stopped:  # after an error
                break
            start = b * DEFAULT_BLOCK_SIZE
            n = min(DEFAULT_BLOCK_SIZE, n_frames - start)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
            u = rng.random(out=buf[:n])
            # The row index is the number of cum[:3] bounds at or below u, which
            # is min(searchsorted(cum, u, "right"), 3) since cum is nondecreasing.
            row = row_buf[:n]
            np.greater_equal(u, cum[0], out=row)
            row += u >= cum[1]
            row += u >= cum[2]
            # STATE_ROWS[0] is the only Y-basis row; Bob measures Y with p_y_bob.
            sifted = (row == 0) == (rng.random(out=buf[:n]) < p_y_bob)
            row_s = np.compress(sifted, row)  # faster than row[sifted] on int8
            m = row_s.size
            # Row 0 usually holds most sifted frames: compare all against its click
            # probability, then redo the frames of the Z-basis rows.
            z = np.flatnonzero(row_s != 0)
            u_sig = rng.random(out=buf[:m])
            sig_click = u_sig < p_sig[0]
            sig_click[z] = u_sig[z] < p_sig[row_s[z]]
            dark_click = rng.random(out=buf[:m]) < y0
            detected = sig_click | dark_click
            # Dark events (including coincidences with a signal click) are assigned
            # a random bit; pure signal clicks err with probability e_det.
            err_p = np.where(dark_click[detected], 0.5, e_det)
            errors = rng.random(out=buf[:np.count_nonzero(detected)]) < err_p
            sent += np.bincount(row_s[z], minlength=4)
            sent[0] += m - z.size
            clicks += np.bincount(row_s[detected] + 4 * errors, minlength=8)
        return sent, clicks

    # The block body is numpy calls that release the GIL, so the workers run
    # in parallel.
    results = fan_out(n_blocks, run)
    sent = sum(r[0] for r in results)
    clicks = sum(r[1] for r in results)

    tallies = TallyCounts()
    for i, key in enumerate(STATE_ROWS):
        tallies.rows[key] = RowTally(
            sent=int(sent[i]), detected=int(clicks[i] + clicks[4 + i]), errors=int(clicks[4 + i])
        )
    return tallies


def with_loss(params: LinkParams, loss_db: float) -> LinkParams:
    """Copy of params at another channel loss."""
    return params.replace(loss_db=loss_db)
