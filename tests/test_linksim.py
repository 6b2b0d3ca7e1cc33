import hashlib
import math
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmqkd import linksim
from dmqkd.decoy import analytic_class_gains
from dmqkd.errors import ConfigurationError, ModelValidityError
from dmqkd.linksim import (
    DEFAULT_BLOCK_SIZE,
    STATE_ROWS,
    DecoyIntensities,
    GainQber,
    LinkParams,
    TallyCounts,
    default_state_probs,
    expected_row_stats,
    signal_click_probs,
    simulate_frames_mc,
    with_loss,
)


class TestTransmittance:
    """LinkParams.eta: detector efficiency times channel transmission."""

    def test_known_values(self):
        assert LinkParams(loss_db=15.0).eta == pytest.approx(0.022135943621178652, rel=1e-15)
        assert LinkParams(loss_db=48.0).eta == pytest.approx(1.1094252347227798e-05, rel=1e-15)
        assert LinkParams(loss_db=0.0, det_efficiency=1.0).eta == 1.0

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            LinkParams(loss_db=-1.0)
        with pytest.raises(ConfigurationError):
            LinkParams(loss_db=10.0, det_efficiency=1.2)


class TestDarkProb:
    """LinkParams.y0: dark clicks of both detectors over the window."""

    def test_default_operating_point(self):
        assert LinkParams().y0 == pytest.approx(3e-8, rel=1e-12)

    def test_linearization_limit(self):
        # Checked when read, not when built: only the link models need it.
        params = LinkParams(dark_rate=1e9, window=1e-9)
        with pytest.raises(ModelValidityError):
            params.y0

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            LinkParams(dark_rate=-1.0, window=1e-9)
        with pytest.raises(ConfigurationError):
            LinkParams(dark_rate=50.0, window=-1e-9)


class TestAnalyticGainQber:
    """decoy.analytic_class_gains: Q = Y0 + signal click, per Z row."""

    def test_default_signal_class(self):
        g, _, _ = analytic_class_gains(LinkParams(), DecoyIntensities())
        assert g.q == pytest.approx(0.008815322890016408, rel=1e-12)
        assert g.e == pytest.approx(0.03300158927814369, rel=1e-12)

    def test_dead_channel_convention(self):
        params = LinkParams(det_efficiency=0.0, dark_rate=0.0)
        for g in analytic_class_gains(params, DecoyIntensities()):
            assert g.q == 0.0 and g.e == 0.5

    def test_dark_dominated_qber_approaches_half(self):
        # eta = 7e-13 and Y0 = 2 * dark_rate * window = 1e-3.
        params = LinkParams(loss_db=120.0, dark_rate=5e5, window=1e-9)
        g, _, _ = analytic_class_gains(params, DecoyIntensities())
        assert g.e == pytest.approx(0.5, rel=1e-3)

    def test_z_rows_share_the_signal_click_probabilities(self):
        params, intens = LinkParams(), DecoyIntensities()
        _, *z_sig = signal_click_probs(params, intens)
        for g, sig in zip(analytic_class_gains(params, intens), z_sig):
            assert g.q == params.y0 + sig

    def test_domain(self):
        # A negative intensity cannot reach the model: DecoyIntensities refuses it.
        with pytest.raises(ConfigurationError):
            analytic_class_gains(LinkParams(), DecoyIntensities(0.4, 0.16, -0.1))


class TestParamValidation:
    def test_link_params(self):
        with pytest.raises(ConfigurationError):
            LinkParams(loss_db=-5.0)
        with pytest.raises(ConfigurationError):
            LinkParams(det_efficiency=1.5)
        with pytest.raises(ConfigurationError):
            LinkParams(f_ec=0.9)
        with pytest.raises(ConfigurationError):
            LinkParams(clock=0.0)

    def test_intensities(self):
        DecoyIntensities(0.4, 0.16, 0.015)
        with pytest.raises(ConfigurationError):
            DecoyIntensities(0.16, 0.4, 0.015)
        with pytest.raises(ConfigurationError):
            DecoyIntensities(0.4, 0.3, 0.2)  # nu + omega >= mu
        with pytest.raises(ConfigurationError):
            DecoyIntensities(0.4, 0.16, -0.01)

    def test_gain_qber_range(self):
        with pytest.raises(ConfigurationError):
            GainQber(1.5, 0.0)


class TestStateProbs:
    def test_defaults_sum_to_one(self):
        probs = default_state_probs(LinkParams())
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs[("signal", "Y")] == pytest.approx(0.9)

    def test_z_mix_renormalised(self):
        probs = default_state_probs(LinkParams(), z_mix=(2.0, 1.0, 1.0))
        assert probs[("signal", "Z")] == pytest.approx(0.05)
        assert probs[("decoy", "Z")] == pytest.approx(0.025)

    def test_bad_mix(self):
        with pytest.raises(ConfigurationError):
            default_state_probs(LinkParams(), z_mix=(1.0, -1.0, 1.0))
        with pytest.raises(ConfigurationError):
            default_state_probs(LinkParams(), z_mix=(0.0, 0.0, 0.0))


_UNKNOWN_ROW = (
    r"^unknown state row \('decoy', 'Y'\); STATE_ROWS are \(\('signal', 'Y'\), "
    r"\('signal', 'Z'\), \('decoy', 'Z'\), \('vacuum', 'Z'\)\)$"
)


class TestExpectedRowStats:
    def test_z_rows_match_analytic_gains(self):
        params, intens = LinkParams(), DecoyIntensities()
        gains = analytic_class_gains(params, intens)
        for cls, ana in zip(("signal", "decoy", "vacuum"), gains):
            exp = expected_row_stats((cls, "Z"), params, intens)
            # They differ only by the dark/signal coincidence term y0 * p_sig.
            assert exp.q == pytest.approx(ana.q, abs=1e-9)
            assert exp.e == pytest.approx(ana.e, abs=1e-6)

    def test_y_row_carries_receiver_factor(self):
        params, intens = LinkParams(), DecoyIntensities()
        y = expected_row_stats(("signal", "Y"), params, intens)
        z = expected_row_stats(("signal", "Z"), params, intens)
        assert (y.q - params.y0) / (z.q - params.y0) == pytest.approx(0.5, abs=1e-6)

    def test_unknown_row_names_the_rows(self):
        with pytest.raises(ConfigurationError, match=_UNKNOWN_ROW):
            expected_row_stats(("decoy", "Y"), LinkParams(), DecoyIntensities())


def _simulate_block(
    n: int,
    block_index: int,
    seed: int,
    probs: np.ndarray,
    p_sig: np.ndarray,
    y0: float,
    e_det: float,
    p_y_bob: float,
) -> np.ndarray:
    """Tally one block of frames; rng depends only on (seed, block_index)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    cum = np.cumsum(probs)
    row = np.searchsorted(cum, rng.random(n), side="right")
    row = np.minimum(row, len(probs) - 1)
    bob_y = rng.random(n) < p_y_bob
    alice_y = row == 0  # STATE_ROWS[0] is the only Y-basis row
    sifted = alice_y == bob_y
    row_s = row[sifted]
    m = row_s.size
    sig_click = rng.random(m) < p_sig[row_s]
    dark_click = rng.random(m) < y0
    detected = sig_click | dark_click
    # Dark events (including coincidences with a signal click) are assigned a
    # random bit; pure signal clicks err with probability e_det.
    u_err = rng.random(int(detected.sum()))
    err_p = np.where(dark_click[detected], 0.5, e_det)
    errors = u_err < err_p
    out = np.zeros((len(probs), 3), dtype=np.int64)
    np.add.at(out[:, 0], row_s, 1)
    np.add.at(out[:, 1], row_s[detected], 1)
    np.add.at(out[:, 2], row_s[detected][errors], 1)
    return out


def _oracle_tallies(n_frames, params, intens, probs, seed):
    """The sampler as one _simulate_block call per block, summed: the oracle
    the block loop of simulate_frames_mc must match count for count."""
    p = np.array([probs.get(row, 0.0) for row in STATE_ROWS])
    p_sig = np.array(signal_click_probs(params, intens))
    total = sum(
        _simulate_block(
            min(DEFAULT_BLOCK_SIZE, n_frames - start), b, seed, p, p_sig, params.y0,
            params.e_det, params.p_y_bob,
        )
        for b, start in enumerate(range(0, n_frames, DEFAULT_BLOCK_SIZE))
    )
    return [tuple(int(c) for c in total[i]) for i in range(len(STATE_ROWS))]


# y0 = 2 * dark_rate * window reaches its 0.1 limit exactly at this dark rate.
_WINDOW = 1e-9
_MAX_DARK_RATE = 5e7


@st.composite
def state_mixes(draw):
    """Four row probabilities, some of them 0, summing to 1 or 1 +- 1e-10."""
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=4, max_size=4)
        .filter(lambda w: sum(w) > 0.0)
    )
    scale = (1.0 + draw(st.sampled_from((0.0, -1e-10, 1e-10)))) / sum(weights)
    return dict(zip(STATE_ROWS, (w * scale for w in weights)))


def _bounded(lo, hi):
    return st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi))


@st.composite
def link_points(draw):
    return LinkParams(
        loss_db=draw(st.floats(0.0, 40.0)),
        det_efficiency=draw(_bounded(0.0, 1.0)),
        dark_rate=draw(_bounded(0.0, _MAX_DARK_RATE)),
        window=_WINDOW,
        p_y_bob=draw(_bounded(0.0, 1.0)),
        e_det=draw(_bounded(0.0, 1.0)),
    )


# From one frame to three whole blocks plus an odd remainder.
frame_counts = st.builds(
    lambda blocks, half: blocks * DEFAULT_BLOCK_SIZE + 2 * half + 1,
    st.integers(0, 3),
    st.integers(0, DEFAULT_BLOCK_SIZE // 2 - 1),
)


class TestSamplerMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        n_frames=frame_counts,
        params=link_points(),
        probs=state_mixes(),
        seed=st.integers(0, 2**32),
    )
    @example(
        n_frames=3 * DEFAULT_BLOCK_SIZE + 12345,
        params=LinkParams(),
        probs=default_state_probs(LinkParams()),
        seed=300,
    )
    def test_tallies_equal_the_block_oracle(self, n_frames, params, probs, seed):
        intens = DecoyIntensities()
        tallies = simulate_frames_mc(n_frames, params, intens, probs, seed=seed)
        got = [(t.sent, t.detected, t.errors) for t in tallies.rows.values()]
        assert got == _oracle_tallies(n_frames, params, intens, probs, seed)

    def test_dark_rate_bound_is_the_linearization_limit(self):
        assert LinkParams(dark_rate=_MAX_DARK_RATE, window=_WINDOW).y0 == 0.1


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        params, intens = LinkParams(), DecoyIntensities()
        a = simulate_frames_mc(200_000, params, intens, seed=7)
        b = simulate_frames_mc(200_000, params, intens, seed=7)
        assert a.rows == b.rows
        c = simulate_frames_mc(200_000, params, intens, seed=8)
        assert a.rows != c.rows

    # SHA-256 of the tally CSV at 10^6 frames and the default operating point.
    # Any change to the sampler's random stream or tallying moves these, and
    # acceptance criterion 6 is pinned to the current stream.
    @pytest.mark.parametrize(
        "seed,digest",
        [
            (0, "49c34f8ce1c30c7d418b3b1fb33183b23a7eebb9ac6fcfddf5806cf3b4122e89"),
            (7, "1a06813949cda34d5968596a3964af3b9239e64a5e2287f11dbb74c0d75b4a71"),
            (300, "cb795fdac78a4f3acbc504319e89a7bf426d1175a39dbf577946cb960395c29e"),
        ],
    )
    def test_golden_tallies(self, seed, digest):
        tallies = simulate_frames_mc(1_000_000, LinkParams(), DecoyIntensities(), seed=seed)
        csv = "\n".join(tallies.csv_rows()).encode()
        assert hashlib.sha256(csv).hexdigest() == digest

    def test_counts_are_consistent(self):
        params, intens = LinkParams(), DecoyIntensities()
        tallies = simulate_frames_mc(100_000, params, intens, seed=0)
        total_sent = sum(t.sent for t in tallies.rows.values())
        # Only sifted (basis-matched) frames are tallied.
        assert total_sent < 100_000
        for t in tallies.rows.values():
            assert 0 <= t.errors <= t.detected <= t.sent

    def test_gains_near_expectation(self):
        params, intens = LinkParams(), DecoyIntensities()
        n = 1_000_000
        tallies = simulate_frames_mc(n, params, intens, seed=0)
        for key in STATE_ROWS:
            t = tallies.rows[key]
            e = expected_row_stats(key, params, intens)
            sigma = math.sqrt(t.sent * e.q * (1.0 - e.q))
            assert abs(t.detected - t.sent * e.q) < 5.0 * sigma + 1.0

    def test_gain_qber_empty_convention(self):
        tallies = TallyCounts()
        g = tallies.gain_qber(("signal", "Z"))
        assert g.q == 0.0 and g.e == 0.5

    def test_gain_qber_of_an_unknown_row_names_the_rows(self):
        with pytest.raises(ConfigurationError, match=_UNKNOWN_ROW):
            TallyCounts().gain_qber(("decoy", "Y"))

    def test_csv_rows(self):
        tallies = TallyCounts()
        lines = tallies.csv_rows()
        assert lines[0] == "class,basis,sent,detected,errors"
        assert len(lines) == 1 + len(STATE_ROWS)

    def test_invalid_inputs(self):
        params, intens = LinkParams(), DecoyIntensities()
        with pytest.raises(ConfigurationError):
            simulate_frames_mc(0, params, intens)
        with pytest.raises(ConfigurationError):
            simulate_frames_mc(100, params, intens, state_probs={("signal", "Y"): 0.5})
        # The unknown row is named, though the known rows also miss the sum.
        with pytest.raises(ConfigurationError, match="unknown state rows"):
            simulate_frames_mc(
                100, params, intens,
                state_probs={("signal", "Y"): 0.5, ("bright", "Z"): 0.5},
            )
        # A row of probability 0 passes the sum check, so only the row check
        # can refuse it.
        probs = {**default_state_probs(params), ("decoy", "Y"): 0.0}
        message = "unknown state rows in probabilities: [('decoy', 'Y')]"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            simulate_frames_mc(10**5, params, intens, probs)

    @pytest.mark.parametrize("n_frames", [1e5, 100.0, True, False, "100"])
    def test_non_integer_frame_count_rejected(self, n_frames):
        with pytest.raises(ConfigurationError, match="n_frames must be an integer"):
            simulate_frames_mc(n_frames, LinkParams(), DecoyIntensities())

    def test_numpy_integer_frame_count_accepted(self):
        params, intens = LinkParams(), DecoyIntensities()
        for n in (np.int64(1000), np.int32(1000), np.uint16(1000)):
            assert simulate_frames_mc(n, params, intens, seed=3) == simulate_frames_mc(
                1000, params, intens, seed=3
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        params, intens = LinkParams(), DecoyIntensities()
        with pytest.raises(ConfigurationError, match="state probabilities"):
            simulate_frames_mc(10**5, params, intens, {row: bad for row in STATE_ROWS})
        probs = dict(default_state_probs(params))
        probs[("vacuum", "Z")] = bad
        with pytest.raises(ConfigurationError, match="state probabilities"):
            simulate_frames_mc(10**5, params, intens, probs)


class TestWorkers:
    """simulate_frames_mc runs its blocks on one thread per CPU the process
    may use; the tallies must not depend on how many that is."""

    @pytest.mark.parametrize(
        "n_frames",
        # Fewer blocks than workers, one whole block, a one-frame trailing
        # block, and larger runs with a partial last block.
        [1, DEFAULT_BLOCK_SIZE, DEFAULT_BLOCK_SIZE + 1, 200_000, 1_000_005],
    )
    def test_tallies_do_not_depend_on_the_worker_count(self, monkeypatch, n_frames):
        params, intens = LinkParams(), DecoyIntensities()
        rows = []
        # More workers than cores and frequent thread switches, so that a race
        # on the tallies would show.
        interval, threads = sys.getswitchinterval(), threading.active_count()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 2, 3, 7):
                monkeypatch.setattr(
                    os, "sched_getaffinity", lambda pid, k=cpus: set(range(k))
                )
                rows.append(simulate_frames_mc(n_frames, params, intens, seed=11).rows)
        finally:
            sys.setswitchinterval(interval)
        assert all(r == rows[0] for r in rows[1:])
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpu_count", [None, 1, 3])
    def test_cpu_count_where_there_is_no_affinity(self, monkeypatch, cpu_count):
        params, intens = LinkParams(), DecoyIntensities()
        want = simulate_frames_mc(200_000, params, intens, seed=5).rows
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert simulate_frames_mc(200_000, params, intens, seed=5).rows == want

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_error_in_a_block_reaches_the_caller(self, monkeypatch, cpus):
        default_rng = np.random.default_rng

        def failing_rng(seed_seq):
            if seed_seq.spawn_key == (1,):
                raise RuntimeError("block 1 failed")
            return default_rng(seed_seq)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(np.random, "default_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^block 1 failed$"):
            simulate_frames_mc(4 * DEFAULT_BLOCK_SIZE, LinkParams(), DecoyIntensities())
        assert threading.active_count() == before

    def test_memory_does_not_grow_with_the_block_count(self, monkeypatch):
        # 16-frame blocks make 12,500 blocks of 2 * 10^5 frames: a result
        # kept per block (two small arrays, about 250 B) would hold 3 MiB.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(linksim, "DEFAULT_BLOCK_SIZE", 16)
        params, intens = LinkParams(), DecoyIntensities()
        simulate_frames_mc(1_000, params, intens)
        tracemalloc.start()
        try:
            simulate_frames_mc(200_000, params, intens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18, f"{peak / 2**10:.0f} KiB"

    def test_other_workers_stop_after_an_error(self, monkeypatch):
        default_rng, started = np.random.default_rng, []

        def failing_rng(seed_seq):
            started.append(seed_seq.spawn_key)
            if seed_seq.spawn_key == (0,):
                raise RuntimeError("block 0 failed")
            return default_rng(seed_seq)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(np.random, "default_rng", failing_rng)
        with pytest.raises(RuntimeError, match="^block 0 failed$"):
            simulate_frames_mc(200 * DEFAULT_BLOCK_SIZE, LinkParams(), DecoyIntensities())
        # The other worker stops at its next claim, not after the 200 blocks.
        assert len(started) < 50


def test_with_loss_changes_only_loss():
    p = with_loss(LinkParams(), 30.0)
    assert p.loss_db == 30.0
    assert p.det_efficiency == 0.7


unit_floats = st.floats(0.0, 1.0)
link_params = st.builds(
    LinkParams,
    loss_db=st.floats(0.0, 1e300),
    det_efficiency=unit_floats,
    dark_rate=st.floats(0.0, 1e9),
    window=st.floats(0.0, 1e-6),
    clock=st.floats(1e-3, 1e12),
    p_y_alice=unit_floats,
    p_y_bob=unit_floats,
    e_det=unit_floats,
    f_ec=st.floats(1.0, 10.0),
    y_receiver_factor=unit_floats,
)


class TestWithLoss:
    """with_loss checks the new loss; the copy equals a record built afresh."""

    @settings(max_examples=300, deadline=None)
    @given(link_params, st.floats(0.0, 1e300) | st.integers(0, 10**6))
    def test_equals_replace(self, params, loss_db):
        at = with_loss(params, loss_db)
        fresh = LinkParams(**{**params.asdict(), "loss_db": loss_db})
        assert at == fresh
        assert repr(at) == repr(fresh)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_what_the_constructor_rejects(self, bad):
        with pytest.raises(ConfigurationError) as built:
            LinkParams(loss_db=bad)
        with pytest.raises(ConfigurationError) as copied:
            with_loss(LinkParams(), bad)
        assert str(copied.value) == str(built.value)
