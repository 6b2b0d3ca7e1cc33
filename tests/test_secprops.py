import cmath
import functools
import hashlib
import json
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmqkd import _fanout, secprops
from dmqkd.encoding import EncodingSymbol, PhasePair, encode_symbol
from dmqkd.errors import SampleSizeError
from dmqkd.photonics import TWO_PI, Phase
from dmqkd.secprops import (
    BB84_SYMBOLS,
    N_EXACT,
    _rayleigh,
    _unit_sum,
    axial_uniformity_p,
    mutual_information_bits,
    r_bin_amplitude,
    run_verification,
    sample_phi_erp,
    sample_phi_lr,
)

SIGNAL_TABLE = {"signal": 1.0}


class TestRBinAmplitude:
    def test_identical_across_bb84_encodings(self):
        rng = np.random.default_rng(11)
        pairs = [encode_symbol(sym, SIGNAL_TABLE) for sym in BB84_SYMBOLS]
        for _ in range(500):
            phi1 = rng.uniform(0.0, TWO_PI)
            phi_rf = rng.uniform(0.0, TWO_PI)
            amps = [r_bin_amplitude(pp, phi1, phi_rf, 1.0) for pp in pairs]
            assert max(abs(z - amps[0]) for z in amps[1:]) < 1e-12

    def test_distinguishable_outside_the_protocol_set(self):
        # A pair violating phi12 + phi23 = pi mod 2*pi gives a different R bin.
        legal = encode_symbol(EncodingSymbol("Z", 0), SIGNAL_TABLE)
        rogue = PhasePair(Phase(0.3), Phase(0.6))
        assert abs(r_bin_amplitude(legal, 0.1, 0.2, 1.0) - r_bin_amplitude(rogue, 0.1, 0.2, 1.0)) > 1e-3


class TestLeakagePhases:
    """The samplers are the one implementation of phi_LR = (phi_rf + phi23)/2
    and phi_ER_P = (phi_rp - phi12)/2; each is checked against the same draws
    from a generator of the same seed."""

    @pytest.mark.parametrize("fixed", secprops.FIXED_ENCODING_PHASES)
    def test_samplers_follow_the_formula(self, fixed):
        pad = np.random.default_rng(6).uniform(0.0, TWO_PI, size=1000)
        for sampler, sums in ((sample_phi_lr, pad + fixed), (sample_phi_erp, pad - fixed)):
            got = sampler(fixed, pad.size, np.random.default_rng(6))
            # Values from the formula, the sum reduced mod 2*pi before halving.
            assert got.tolist() == [(x % TWO_PI) / 2.0 for x in sums.tolist()]
            # A sum outside [0, 2*pi) halves to a value off by pi from the
            # unreduced half-sum.
            wrapped = (sums < 0.0) | (sums >= TWO_PI)
            assert np.allclose(np.abs(got[wrapped] - sums[wrapped] / 2.0), math.pi)
            # The axial range [0, pi).
            assert ((0.0 <= got) & (got < math.pi)).all()


def _rayleigh_of(angles):
    """_rayleigh of a float array, with a fresh buffer for its unit vectors."""
    return _rayleigh(_unit_sum(angles, np.empty(angles.shape, dtype=complex)), angles.size)


class TestUniformityStats:
    def test_equally_spaced_angles_are_maximally_uniform(self):
        samples = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
        z, p = _rayleigh_of(samples)
        assert z == pytest.approx(0.0, abs=1e-12)
        assert p == 1.0

    def test_concentrated_angles_rejected(self):
        rng = np.random.default_rng(1)
        _, p = _rayleigh_of(rng.normal(0.0, 0.2, size=1000) % TWO_PI)
        assert p < 1e-6

    def test_p_value_that_underflows_is_positive_zero(self):
        # exp(-z) is 0 and the correction factor is negative, so p is -0.0
        # before the clamp; the report must print 0.0.
        p = axial_uniformity_p([0.1] * 100_000)
        assert p == 0.0 and math.copysign(1.0, p) == 1.0
        control = run_verification(seed=0)["properties"][-1]
        assert json.dumps(control["p_value"]) == "0.0"

    def test_sample_size_floor(self):
        with pytest.raises(SampleSizeError, match="^need at least 100 samples, got 99$"):
            axial_uniformity_p([0.1] * 99)

    def test_axial_uniform_half_circle(self):
        # Uniform on [0, pi) is the axial null; the plain circular test would
        # reject it, the doubled-angle test must not.
        rng = np.random.default_rng(2)
        samples = rng.uniform(0.0, math.pi, size=50_000)
        assert axial_uniformity_p(samples) > 0.01
        _, p_plain = _rayleigh_of(samples)
        assert p_plain < 1e-6


class TestBadSamples:
    """Non-finite or mismatched samples raise SampleSizeError naming the
    problem, instead of a misleading statistic or a raw numpy error."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rayleigh_rejects_a_non_finite_sample(self, bad):
        samples = np.linspace(0.0, TWO_PI, 200)
        samples[17] = bad
        with pytest.raises(
            SampleSizeError,
            match=f"^samples must be finite and at most 8.988e\\+307 in magnitude, got {bad}$",
        ):
            axial_uniformity_p(samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_axial_rejects_a_non_finite_sample(self, bad):
        samples = np.linspace(0.0, math.pi, 200)
        samples[0] = bad
        with pytest.raises(SampleSizeError, match=f"finite and at most 8.988e\\+307 in magnitude, got {bad}$"):
            axial_uniformity_p(samples)

    def test_axial_rejects_a_sample_whose_double_overflows(self):
        samples = np.linspace(0.0, math.pi, 200)
        samples[5] = -1e308
        with pytest.raises(SampleSizeError, match="got -1e\\+308$"):
            axial_uniformity_p(samples)

    def test_finite_extremes_keep_their_statistics(self):
        samples = np.linspace(0.0, math.pi, 200)
        samples[5] = sys.float_info.max / 2.0
        assert 0.0 <= axial_uniformity_p(samples) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mutual_information_rejects_a_non_finite_phase(self, bad):
        phases = np.linspace(0.0, TWO_PI, 200)
        phases[3] = bad
        with pytest.raises(SampleSizeError, match=f"^phases must be finite, got {bad}$"):
            mutual_information_bits(np.arange(200) % 2, phases)

    def test_mutual_information_rejects_empty_input(self):
        with pytest.raises(SampleSizeError, match="^need at least one sample, got 0$"):
            mutual_information_bits([], [])

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda ph: mutual_information_bits([0.5, math.nan] * 100, ph),
             "labels must be finite, got nan"),
            (lambda ph: mutual_information_bits([1, -math.inf] * 100, ph),
             "labels must be finite, got -inf"),
            (lambda ph: mutual_information_bits([None, 1] * 100, ph),
             "labels must be real numbers, got dtype object"),
            (lambda ph: mutual_information_bits(["0", "1"] * 100, ph),
             "labels must be real numbers, got dtype <U1"),
            (lambda ph: mutual_information_bits(np.arange(200) % 2 + 0j, ph),
             "labels must be real numbers, got dtype complex128"),
            (lambda ph: mutual_information_bits(np.arange(200) % 2, ph + 0j),
             "phases must be real numbers, got dtype complex128"),
            (lambda ph: axial_uniformity_p(ph + 1j),
             "samples must be real numbers, got dtype complex128"),
            (lambda ph: axial_uniformity_p(ph.astype(np.complex64)),
             "samples must be real numbers, got dtype complex64"),
            (lambda ph: axial_uniformity_p(list(map(str, ph))),
             "samples must be real numbers, got dtype <U"),
            (lambda ph: axial_uniformity_p([None] * 200),
             "samples must be real numbers, got dtype object"),
            (lambda ph: axial_uniformity_p(ph > 1.0),
             "samples must be real numbers, got dtype bool"),
        ],
        ids=["nan-label", "inf-label", "none-label", "str-label", "complex-label",
             "complex-phase", "complex-rayleigh", "complex-axial", "str-sample",
             "none-sample", "bool-sample"],
    )
    def test_values_that_are_not_finite_real_numbers_rejected(self, call, message):
        with pytest.raises(SampleSizeError, match=f"^{message}"):
            call(np.linspace(0.0, TWO_PI, 200))

    def test_bool_and_float_labels_give_the_int_labels_statistic(self):
        phases = np.random.default_rng(4).uniform(0.0, TWO_PI, 200)
        bits = np.arange(200) % 3 == 0
        want = mutual_information_bits(bits.astype(int), phases)
        assert mutual_information_bits(bits, phases) == want
        assert mutual_information_bits(bits.astype(float), phases) == want

    @pytest.mark.parametrize("n_labels", [199, 201])
    def test_mutual_information_rejects_mismatched_lengths(self, n_labels):
        with pytest.raises(
            SampleSizeError,
            match=f"^labels and phases differ in length: {n_labels} labels, 200 phases$",
        ):
            mutual_information_bits(np.arange(n_labels) % 2, np.linspace(0.0, 1.0, 200))


def _rayleigh_by_exp(samples):
    """The Rayleigh test as it was written with the complex exponential,
    kept as the oracle of _rayleigh."""
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    rbar = float(abs(np.exp(1j * arr).mean()))
    z = n * rbar * rbar
    p = math.exp(-z) * (1.0 + (2.0 * z - z * z) / (4.0 * n))
    return z, min(max(0.0, p), 1.0)


@st.composite
def _angle_arrays(draw):
    """At least 100 angles: uniform, normal, huge or negative."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(100, 5000))
    kind = draw(st.sampled_from(["uniform", "normal", "huge", "negative"]))
    if kind == "uniform":
        return rng.uniform(0.0, TWO_PI, n)
    if kind == "normal":
        return rng.normal(draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 10.0)), n)
    if kind == "huge":
        return rng.uniform(-1.0, 1.0, n) * 10.0 ** draw(st.integers(6, 300))
    return -rng.exponential(draw(st.floats(1e-3, 1e6)), n)


@settings(max_examples=300, deadline=None)
@given(_angle_arrays())
def test_rayleigh_matches_the_complex_exponential_bit_for_bit(samples):
    assert repr(_rayleigh_of(samples)) == repr(_rayleigh_by_exp(samples))


# Each draw of run_verification's quarter tasks, as a draw of 1/parts of the whole.
_QUARTER_DRAWS = [
    ("random(out=)", lambda g, parts: g.random(out=np.empty(secprops.N_UNIFORM // parts))),
    ("standard_normal(out=)",
     lambda g, parts: g.standard_normal(out=np.empty(secprops.N_UNIFORM // parts))),
    ("uniform rows", lambda g, parts: g.uniform(0.0, TWO_PI, size=(N_EXACT // parts, 2))),
]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**64 - 1))
@pytest.mark.parametrize("name,draw", _QUARTER_DRAWS, ids=[d[0] for d in _QUARTER_DRAWS])
def test_quarter_draws_continue_the_whole_draw(name, draw, seed):
    """run_verification's premise for its quarter tasks: four draws of a
    quarter each are the whole draw, and leave the generator where it does."""
    whole, quartered = np.random.default_rng(seed), np.random.default_rng(seed)
    want = draw(whole, 1)
    quarters = secprops._QUARTERS
    got = np.concatenate([draw(quartered, quarters) for _ in range(quarters)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
        f"premise broken: four quarter draws of {name} differ from the whole draw"
    )
    assert quartered.bit_generator.state == whole.bit_generator.state, (
        f"premise broken: four quarter draws of {name} leave the generator elsewhere"
    )


class TestMutualInformation:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=100_000)
        phases = rng.uniform(0.0, TWO_PI, size=100_000)
        assert mutual_information_bits(bits, phases) < 0.001

    # Label 0 has 3 samples in bin 0 and 1 in bin 5, label 1 has 1 and 3, so
    # p(label) = p(bin) = 1/2 and I = 2 * (3/8 log2(3/2) + 1/8 log2(1/2)).
    _HAND_BINS = np.array([0, 0, 0, 5, 0, 5, 5, 5])
    _HAND_LABELS = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    _HAND_MI = 0.75 * math.log2(1.5) - 0.25

    def _hand_counts(self):
        counts = np.zeros((2, secprops.MI_BINS), dtype=np.int64)
        counts[:, [0, 5]] = [[3, 1], [1, 3]]
        return counts

    def test_hand_counted_table(self):
        assert secprops._mi_bits(self._hand_counts()) == pytest.approx(self._HAND_MI, rel=1e-15)

    def test_phases_are_binned_over_the_axial_range(self):
        # Bin centres, each moved by a different whole number of half-turns.
        centres = (self._HAND_BINS + 0.5) * (math.pi / secprops.MI_BINS)
        phases = centres + math.pi * np.array([0, 1, -3, 7, 2, -1, 40, 1e6])
        assert mutual_information_bits(self._HAND_LABELS, phases) == pytest.approx(
            self._HAND_MI, rel=1e-15)

    def test_verify_bins_phi_lr_over_the_axial_range(self):
        # Pads whose phi_LR = (pad * 2*pi + phi23)/2 mod pi is the centre of
        # bin 0 or 5: Z0 (phi23 = pi) needs pads 1/2 + 1/64 and 1/2 + 11/64,
        # Z1 (phi23 = 0) pads 1/64 and 11/64.
        pads = np.array([33, 33, 33, 43, 1, 11, 11, 11]) / 64.0
        bufs = secprops._Buffers(pads, np.full(pads.size, complex(math.nan, math.nan)))
        counts = secprops._bit_counts(self._HAND_LABELS.copy(), bufs)
        assert np.array_equal(counts.reshape(2, -1), self._hand_counts())

    def test_matches_np_histogram_over_the_axial_range(self):
        # np.histogram's bins of [0, pi) on the phases mod pi, counted per label.
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, size=20_000)
        phases = rng.uniform(-20.0, 20.0, size=labels.size) + 0.2 * labels
        edges = np.linspace(0.0, math.pi, secprops.MI_BINS + 1)
        counts = np.array([np.histogram(np.remainder(phases[labels == k], math.pi), edges)[0]
                           for k in range(3)])
        assert mutual_information_bits(labels, phases) == pytest.approx(
            secprops._mi_bits(counts), rel=1e-12)

    def test_deterministic_coupling_near_one_bit(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=100_000)
        phases = np.where(bits == 0, 1.0, 4.0)
        assert mutual_information_bits(bits, phases) > 0.99


class TestSamplers:
    def test_outputs_cover_the_axial_range(self):
        rng = np.random.default_rng(5)
        lr = sample_phi_lr(math.pi, 10_000, rng)
        erp = sample_phi_erp(math.pi / 2.0, 10_000, rng)
        for arr in (lr, erp):
            assert arr.min() >= 0.0 and arr.max() < math.pi
            assert axial_uniformity_p(arr) > 0.001

    def test_deterministic_given_rng_state(self):
        a = sample_phi_lr(0.0, 1000, np.random.default_rng(9))
        b = sample_phi_lr(0.0, 1000, np.random.default_rng(9))
        assert np.array_equal(a, b)


# Two sums of n unit vectors whose angles agree to rounding differ by at most
# n * _SUM_EPS: per term a few ulps of an angle below 4*pi (8 eps each), of
# cos and sin, and numpy's pairwise summation error in each sum.
_SUM_EPS = 64 * np.finfo(float).eps


def _p_tolerance(n):
    """How far two Rayleigh p-values of n angles that agree to rounding may
    lie apart: z = |S|^2 / n moves by at most twice the sums' difference,
    since |S| <= n, and p by at most 1.01 times what z moves."""
    return 3 * n * _SUM_EPS


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**64 - 1),
       st.one_of(st.integers(25, 750).map(lambda k: 4 * k), st.just(secprops._QUARTER)))
def test_worker_buffers_match_the_allocating_functions(seed, n):
    """One set of worker buffers of n samples, dirty from the test before,
    run through the quarter kernels as run_verification calls them, four
    quarters per property: the uniformity test at every fixed phase of both
    samplers, the MI test and the negative control. The quarters' resultants
    add up to the formula's over rng.uniform and rng.normal, and each
    statistic equals the allocating functions' on the same 4 * n draws
    (sample_phi_*, axial_uniformity_p, mutual_information_bits), to rounding;
    each generator ends in the same state."""
    bufs = secprops._Buffers(np.full(n, math.nan), np.full(n, complex(math.nan, math.nan)))
    quarters, total = range(secprops._QUARTERS), secprops._QUARTERS * n
    buffered, allocating, formula = (np.random.default_rng(seed) for _ in range(3))
    for sampler, sign in ((sample_phi_lr, 1.0), (sample_phi_erp, -1.0)):
        for fixed in secprops.FIXED_ENCODING_PHASES:
            resultant = sum(secprops._padded_sum(sign * fixed, buffered.random(out=bufs.samples),
                                                 bufs) for _ in quarters)
            uniform = formula.uniform(0.0, TWO_PI, size=total)
            assert abs(resultant - np.exp(1j * (uniform + sign * fixed)).sum()) <= total * _SUM_EPS
            want = axial_uniformity_p(sampler(fixed, total, allocating))
            assert abs(_rayleigh(resultant, total)[1] - want) <= _p_tolerance(total)
            assert buffered.bit_generator.state == allocating.bit_generator.state
            assert buffered.bit_generator.state == formula.bit_generator.state
    bits, counts = buffered.integers(0, 2, size=total), []
    for q in quarters:
        buffered.random(out=bufs.samples)
        counts.append(secprops._bit_counts(bits[q * n:(q + 1) * n], bufs))
    mi = secprops._mi_bits(sum(counts).reshape(2, secprops.MI_BINS))
    want_bits = allocating.integers(0, 2, size=total)
    want = sample_phi_lr(secprops._BB84_PHASES[want_bits, 1], total, allocating)
    # Both bin a phase alike unless it lies within rounding of a bin edge.
    assert mi == pytest.approx(mutual_information_bits(want_bits, want), rel=1e-12)
    resultant = sum(secprops._control_sum(buffered.standard_normal(out=bufs.samples), bufs)
                    for _ in quarters)
    normal = allocating.normal(0.0, 0.3, size=total)
    assert abs(resultant - np.exp(1j * (normal + math.pi)).sum()) <= total * _SUM_EPS
    assert buffered.bit_generator.state == allocating.bit_generator.state


def test_uniformity_resultant_does_not_depend_on_the_fixed_phase():
    """One draw's resultant |sum e^{i(2*pi*u + c)}| = |sum e^{i 2*pi*u}| at
    every fixed phase c of both samplers, to rounding: the eight uniformity
    tests are one Rayleigh test of the generator's uniforms, on eight draws."""
    n = secprops.N_UNIFORM
    pads = np.random.default_rng(8).random(n)
    bufs = secprops._Buffers(np.empty(n), np.empty(n, dtype=complex))
    lengths = []
    for shift in sorted({sign * c for sign in (1.0, -1.0) for c in secprops.FIXED_ENCODING_PHASES}):
        np.copyto(bufs.samples, pads)
        lengths.append(abs(secprops._padded_sum(shift, bufs.samples, bufs)))
    assert len(lengths) == 7
    assert max(lengths) - min(lengths) <= n * _SUM_EPS


@functools.cache
def _report(seed: int) -> dict:
    return run_verification(seed=seed)


class TestRunVerification:
    def test_all_properties_pass(self):
        report = run_verification(seed=0)
        assert report["all_passed"] is True
        assert len(report["properties"]) == 11

    def test_negative_control_is_detected(self):
        report = run_verification(seed=0)
        control = report["properties"][-1]
        assert control["name"] == "negative_control_nonuniform_detected"
        assert control["passed"] is True
        assert control["p_value"] < 0.01

    def test_report_is_deterministic(self):
        assert run_verification(seed=3) == run_verification(seed=3)

    def test_report_is_json_friendly(self):
        json.dumps(run_verification(seed=1))

    def test_exact_check_fails_off_the_protocol_set(self, monkeypatch):
        # Y1's phi12 moved by 0.1 rad breaks phi12 + phi23 = pi mod 2*pi, so
        # its R bin differs from Z0's by |e^{0.1i} - 1| * |cos(phi_rf / 2)|,
        # which 10^4 draws take to within 1e-3 of its maximum.
        rogue = secprops._BB84_PHASES.copy()
        rogue[3, 0] += 0.1
        monkeypatch.setattr(secprops, "_BB84_PHASES", rogue)
        report = run_verification(seed=0)
        exact = report["properties"][0]
        assert exact["passed"] is False
        assert exact["max_deviation"] == pytest.approx(abs(cmath.exp(0.1j) - 1.0), rel=1e-3)
        assert [p["passed"] for p in report["properties"][1:]] == [True] * 10

    def test_exact_check_matches_the_scalar_loop(self, monkeypatch):
        # Off the protocol set the spreads are of order 0.1, not rounding, so
        # the vectorised check and one r_bin_amplitude loop per draw compare.
        rogue = secprops._BB84_PHASES.copy()
        rogue[3, 0] += 0.1
        monkeypatch.setattr(secprops, "_BB84_PHASES", rogue)
        pairs = [PhasePair(phi12, phi23) for phi12, phi23 in rogue.tolist()]
        draws = np.random.default_rng(7).uniform(0.0, TWO_PI, size=(2_000, 2))
        by_loop = 0.0
        for phi1, phi_rf in draws.tolist():
            amps = [r_bin_amplitude(pp, phi1, phi_rf, 1.0) for pp in pairs]
            by_loop = max(by_loop, max(abs(z - amps[0]) for z in amps[1:]))
        assert by_loop > 0.09
        assert secprops._max_spread(draws) == pytest.approx(by_loop, rel=1e-12)

    # SHA-256 over the JSON reports of seeds 0..39, one line each: any change
    # to a draw, its order or a property's arithmetic moves it.
    def test_golden_security_reports(self):
        digest = hashlib.sha256()
        for seed in range(40):
            digest.update(json.dumps(_report(seed), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == (
            "1450be0f5a2abb51f252c07d2781a08ce72303a93bd8b6fea4841adbba60466d"
        )


def _within_watchdog(fn, timeout=60.0):
    """fn() on a daemon thread: its exception (None if it returned), failing
    the test if fn is still running after timeout seconds."""
    outcome = []

    def call():
        try:
            fn()
            outcome.append(None)
        except BaseException as exc:
            outcome.append(exc)

    watchdog = threading.Thread(target=call, daemon=True)
    watchdog.start()
    watchdog.join(timeout)
    assert not watchdog.is_alive(), f"still running after {timeout} s"
    return outcome[0]


class TestVerificationWorkers:
    """run_verification runs its properties' quarter tasks on one thread per
    CPU the process may use, up to one per task, which take the draws in
    order as they claim the tasks: the report must not depend on the thread
    count, a failed task must reach the caller and stop the others, and no
    thread may outlive the call."""

    def test_report_does_not_depend_on_the_worker_count(self, monkeypatch):
        scratches = []  # per fan_out call, one entry per scratch() call

        def recording_fan_out(n_tasks, scratch, draw, work):
            calls = []
            scratches.append(calls)

            def counted_scratch():
                calls.append(None)
                return scratch()

            return _fanout.fan_out(n_tasks, counted_scratch, draw, work)

        monkeypatch.setattr(secprops, "fan_out", recording_fan_out)
        threads = threading.active_count()
        reports = {}
        # Frequent thread switches, so that draws taken out of turn would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 2, 3, 16):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
                reports[cpus] = [run_verification(seed=seed) for seed in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert list(map(len, scratches)) == [1] * 5 + [2] * 5 + [3] * 5 + [16] * 5
        assert all(r == reports[1] for r in reports.values())
        assert reports[1] == [_report(seed) for seed in range(5)]
        assert threading.active_count() == threads

    # Measured peaks of 1.43 MiB on 1 CPU and 2.04-2.10 MiB on 2 (each
    # worker's 0.60 MiB of quarter buffers and the MI test's 0.76 MiB of
    # bits), with 0.3 MiB of slack; buffers for whole properties read 3.22
    # and 5.61, and the MI test's allocating histogram 8.0 on 2.
    @pytest.mark.parametrize("cpus,bound_mib", [(1, 1.75), (2, 2.4)])
    def test_traced_peak_memory_of_a_call(self, monkeypatch, cpus, bound_mib):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        run_verification(seed=0)
        tracemalloc.start()
        try:
            run_verification(seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_failed_draw_reaches_the_caller(self, monkeypatch, cpus):
        # The third phi_ER_P draw, at its first quarter the 29th generator
        # call, raises while its task holds the claim; the other workers,
        # waiting for the claim, then find no task to claim.
        calls, make_rng = [], np.random.default_rng

        class FailingGenerator:
            def __init__(self, seed):
                self._rng = make_rng(seed)

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def call(*args, **kwargs):
                    calls.append(name)
                    if len(calls) == 29:
                        time.sleep(0.1)  # so that the other workers are waiting
                        raise RuntimeError("third phi_erp draw failed")
                    return method(*args, **kwargs)

                return call

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
        before = threading.active_count()
        exc = _within_watchdog(lambda: run_verification(seed=0))
        assert isinstance(exc, RuntimeError) and str(exc) == "third phi_erp draw failed"
        assert calls == ["uniform"] * 4 + ["random"] * 25
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_claims_run_in_task_order_and_end_at_a_failed_draw(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        drawn = []

        def draw(i, tasks):
            drawn.append(i)
            if i == fail_at:
                time.sleep(0.1)  # so that the other workers wait for the claim
                raise RuntimeError(f"draw {i} failed")
            return -i

        def work(i, d, tasks):
            time.sleep(0.001)  # so that the workers' claims interleave
            tasks.append((i, d))

        fail_at = None
        scratches = _fanout.fan_out(20, list, draw, work)
        assert len(scratches) == cpus
        assert drawn == list(range(20))
        assert sorted(sum(scratches, [])) == [(i, -i) for i in range(20)]
        drawn.clear()
        fail_at = 5
        with pytest.raises(RuntimeError, match="^draw 5 failed$"):
            _fanout.fan_out(20, list, draw, work)
        assert drawn == list(range(6))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_failed_test_reaches_the_caller(self, monkeypatch, cpus):
        def failing(bits, bufs):
            raise RuntimeError("mutual information failed")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(secprops, "_bit_counts", failing)
        before = threading.active_count()
        exc = _within_watchdog(lambda: run_verification(seed=0))
        assert isinstance(exc, RuntimeError) and str(exc) == "mutual information failed"
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_an_interrupt_in_the_calling_thread_stops_the_others(self, monkeypatch, cpus):
        # The calling thread is interrupted in the first uniformity quarter
        # it claims, once every other worker has run one and is held there.
        # After the interrupt the others stop claiming: without the stop they
        # would run the rest of the 36 uniformity and control quarters.
        caller, unit_sum = [], secprops._unit_sum
        ran, others_ran, interrupting = [], threading.Semaphore(0), threading.Event()

        def test_or_interrupt(*args):
            if threading.get_ident() == caller[0]:
                for _ in range(cpus - 1):
                    assert others_ran.acquire(timeout=10.0), "no other worker ran a test"
                interrupting.set()
                raise KeyboardInterrupt
            total = unit_sum(*args)
            ran.append(total)
            if len(ran) < cpus:
                others_ran.release()
                assert interrupting.wait(10.0), "the calling thread was not interrupted"
            return total

        def call():
            caller.append(threading.get_ident())
            run_verification(seed=0)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(secprops, "_unit_sum", test_or_interrupt)
        before = threading.active_count()
        exc = _within_watchdog(call)
        assert isinstance(exc, KeyboardInterrupt)
        assert len(ran) < 12, f"{len(ran)} uniformity and control quarters ran"
        assert threading.active_count() == before
