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
    _mod_two_pi,
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
def _angle_arrays(draw, sizes=st.integers(100, 5000)):
    """At least 100 angles: uniform, normal, huge or negative."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(sizes)
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


@settings(max_examples=30, deadline=None)
@given(_angle_arrays(st.just(secprops.N_UNIFORM)))
def test_quarter_sums_are_the_leaves_of_the_whole_sum(angles):
    """run_verification's premise for its uniformity tests: the unit vectors'
    sums over four quarters of N_UNIFORM angles, combined in tree order, are
    np.add.reduce over all of them, and over N_UNIFORM their mean."""
    unit = np.exp(1j * angles)
    leaves = [np.add.reduce(quarter) for quarter in np.split(unit, secprops._QUARTERS)]
    whole, combined = np.add.reduce(unit), secprops._tree_sum(leaves)
    assert repr(complex(combined)) == repr(complex(whole)), (
        "premise broken: np.add.reduce's pairwise tree over N_UNIFORM complex values"
        f" no longer has the quarter sums as its leaves ({combined!r} != {whole!r})"
    )
    assert repr(complex(combined / angles.size)) == repr(complex(unit.mean())), (
        "premise broken: mean() is no longer np.add.reduce divided by the count"
    )


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


def _edges(v):
    return [v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf)]


_MOD_SPECIALS = sorted(
    {x for v in (0.0, TWO_PI, 2.0 * TWO_PI, -TWO_PI, 5e-324, 2.2250738585072014e-308)
     for x in _edges(v) + _edges(-v)}
) + [-0.0, math.nan, math.inf, -math.inf, 1e300, -1e300]
_MOD_ELEMENTS = st.one_of(
    st.sampled_from(_MOD_SPECIALS),
    st.floats(-TWO_PI, 2.0 * TWO_PI, exclude_min=True, exclude_max=True),
    st.floats(),
)


@st.composite
def _mod_inputs(draw):
    if draw(st.booleans()):
        return np.array(draw(st.lists(_MOD_ELEMENTS, max_size=40)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-TWO_PI, 2.0 * TWO_PI, draw(st.integers(0, 2000)))
    # Plant in-range edge values among the uniform draws.
    picks = draw(st.lists(st.sampled_from([v for v in _MOD_SPECIALS if -TWO_PI < v < 2 * TWO_PI]),
                          max_size=min(x.size, 10)))
    x[: len(picks)] = picks
    return x


@settings(max_examples=500, deadline=None)
@given(_mod_inputs())
def test_mod_two_pi_matches_np_remainder_bit_for_bit(x):
    with np.errstate(invalid="ignore"):
        want = np.remainder(x, TWO_PI)
        # In place, out aliasing x, with dirty scratch of both kinds: the
        # turns are the first half of a complex buffer, as in the workers.
        in_place = x.copy()
        unit = np.full(x.shape, complex(math.nan, math.nan))
        scratch = unit.view(np.float64)[: x.size]
        mask = np.ones(x.shape, dtype=bool)
        results = [_mod_two_pi(x), _mod_two_pi(in_place, in_place, scratch, mask)]
    assert results[1] is in_place
    for got in results:
        assert got.dtype == want.dtype and got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


_BIN_EDGES = np.linspace(0.0, TWO_PI, secprops.MI_BINS + 1)


def _mi_by_histogram(labels, phases):
    """mutual_information_bits as it was written with one np.histogram per
    label, kept as the oracle of the bin kernel and the bincount."""
    labels, phases = np.asarray(labels), np.remainder(np.asarray(phases, dtype=float), TWO_PI)
    joint = np.stack(
        [np.histogram(phases[labels == v], bins=_BIN_EDGES)[0] for v in np.unique(labels)]
    ).astype(float)
    joint /= labels.size
    p_label = joint.sum(axis=1, keepdims=True)
    p_phase = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log2(joint / (p_label * p_phase))
    return float(np.nansum(terms))


_NEAR_EDGES = np.concatenate(
    [_BIN_EDGES, np.nextafter(_BIN_EDGES, -math.inf), np.nextafter(_BIN_EDGES, math.inf)]
)


@st.composite
def _labelled_phases(draw):
    """Labels of one to four values (int, float or bool) and phases that are
    uniform, huge, negative or planted on and beside the bin edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    labels = rng.integers(0, draw(st.integers(1, 4)), n)
    labels = draw(st.sampled_from([labels, labels * 0.5 - 1.0, labels == 0]))
    phases = rng.uniform(-1.0, 1.0, n) * 10.0 ** draw(st.integers(0, 300))
    picks = rng.choice(np.concatenate([_NEAR_EDGES, [-0.0, -1e-17]]), n)
    return labels, np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), picks, phases)


@settings(max_examples=200, deadline=None)
@given(_labelled_phases())
def test_mutual_information_matches_the_histogram_per_label_bit_for_bit(labelled):
    labels, phases = labelled
    assert repr(mutual_information_bits(labels, phases)) == repr(_mi_by_histogram(labels, phases))


class TestMutualInformation:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=100_000)
        phases = rng.uniform(0.0, TWO_PI, size=100_000)
        assert mutual_information_bits(bits, phases) < 0.001

    def test_kernel_counts_equal_np_histogram(self):
        # The kernel's premise: every edge scales to at least its index.
        assert (_BIN_EDGES * (secprops.MI_BINS / TWO_PI) >= np.arange(secprops.MI_BINS + 1)).all()
        # Every edge and its neighbours in [0, 2*pi], both zeros and the
        # float below pi, each alone and then among random phases.
        special = np.concatenate([_NEAR_EDGES[(0.0 <= _NEAR_EDGES) & (_NEAR_EDGES <= TWO_PI)],
                                  [0.0, -0.0, np.nextafter(math.pi, 0.0)]])
        phases = np.concatenate([special, np.random.default_rng(12).uniform(0.0, TWO_PI, 10_000)])
        n = phases.size
        bins = secprops._phase_bins(phases, np.full(n, -7, dtype=np.int64), np.full(n, math.nan),
                                    np.ones(n, dtype=bool))
        assert bins[: special.size].tolist() == [
            int(np.histogram([x], bins=_BIN_EDGES)[0].argmax()) for x in special
        ]
        labels = np.random.default_rng(13).integers(0, 2, n)
        counts = np.bincount(labels * secprops.MI_BINS + bins, minlength=2 * secprops.MI_BINS)
        assert np.array_equal(
            counts.reshape(2, secprops.MI_BINS),
            np.stack([np.histogram(phases[labels == v], bins=_BIN_EDGES)[0] for v in (0, 1)]),
        )

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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**64 - 1),
       st.one_of(st.integers(25, 750).map(lambda k: 4 * k), st.just(secprops._QUARTER)))
def test_worker_buffers_match_the_allocating_functions_bit_for_bit(seed, n):
    """One set of worker buffers of n samples, dirty from the test before,
    run through the quarter kernels as run_verification calls them, four
    quarters per property: the uniformity test at every fixed phase of both
    samplers, the MI test and the negative control. Each statistic, from the
    quarters' partial results, equals the allocating functions' on the same
    4 * n draws (sample_phi_*, axial_uniformity_p, mutual_information_bits),
    and the formula over rng.uniform and rng.normal, and each generator ends
    in the same state. With n a multiple of 4, the quarters' sums are the
    leaves of np.add.reduce's tree over 4 * n values, as at N_UNIFORM. Last,
    planted pads whose reduction rounds to 2*pi."""
    bufs = secprops._Buffers(np.full(n, math.nan), np.ones(n, dtype=bool),
                             np.full(n, complex(math.nan, math.nan)))
    quarters = range(secprops._QUARTERS)

    def same_bits(a, b):
        return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))

    def p_value(leaves):
        return _rayleigh(secprops._tree_sum(leaves), 4 * n)[1]

    buffered, allocating, formula = (np.random.default_rng(seed) for _ in range(3))
    for sampler, sign in ((sample_phi_lr, 1.0), (sample_phi_erp, -1.0)):
        for fixed in secprops.FIXED_ENCODING_PHASES:
            leaves, doubled = [], []
            for _ in quarters:
                pads = buffered.random(out=bufs.samples)
                leaves.append(secprops._padded_sum(sign * fixed, pads, bufs))
                doubled.append(pads.copy())
            p = p_value(leaves)
            want = sampler(fixed, 4 * n, allocating)
            assert same_bits(np.concatenate(doubled), np.remainder(2.0 * want, TWO_PI))
            uniform = formula.uniform(0.0, TWO_PI, size=4 * n)
            assert same_bits(want, np.remainder(uniform + sign * fixed, TWO_PI) / 2.0)
            assert repr(p) == repr(axial_uniformity_p(want))
            assert repr(p) == repr(_rayleigh_by_exp(np.remainder(2.0 * want, TWO_PI))[1])
            assert buffered.bit_generator.state == allocating.bit_generator.state
            assert buffered.bit_generator.state == formula.bit_generator.state
    bits = buffered.integers(0, 2, size=4 * n)
    labels, counts = bits.copy(), []
    for q in quarters:
        buffered.random(out=bufs.samples)
        counts.append(secprops._bit_counts(labels[q * n:(q + 1) * n], bufs))
    mi = secprops._mi_bits(sum(counts).reshape(2, secprops.MI_BINS))
    want_bits = allocating.integers(0, 2, size=4 * n)
    want = sample_phi_lr(secprops._BB84_PHASES[want_bits, 1], 4 * n, allocating)
    assert repr(mi) == repr(mutual_information_bits(want_bits, want))
    assert repr(mi) == repr(_mi_by_histogram(bits, want))
    leaves = []
    for _ in quarters:
        buffered.standard_normal(out=bufs.samples)
        leaves.append(secprops._control_sum(bufs.samples, bufs))
    concentrated = np.remainder(np.remainder(allocating.normal(0.0, 0.3, size=4 * n), TWO_PI)
                                + math.pi, TWO_PI) / 2.0
    assert repr(p_value(leaves)) == repr(axial_uniformity_p(concentrated))
    assert buffered.bit_generator.state == allocating.bit_generator.state
    # A pad of 0.0 at a shift just below 0 reduces to exactly 2*pi, whose
    # half-angle pi doubles and reduces again to 0.0. The one-pass kernel
    # must fold it too, since sin(2*pi) is not 0.
    for shift in (-1e-17, -2.0**-51, -2.0**-53, -5e-324):
        pads = buffered.random(out=bufs.samples)
        pads[::3] = 0.0
        halves = np.remainder(pads * TWO_PI + shift, TWO_PI) / 2.0
        assert halves[0] == math.pi
        p = _rayleigh(secprops._padded_sum(shift, pads, bufs), n)[1]
        assert repr(p) == repr(axial_uniformity_p(halves))
        # The doubled angles, left in the pads' buffer, are the round trip's.
        assert same_bits(pads, np.remainder(2.0 * halves, TWO_PI)) and pads[0] == 0.0


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
        import json

        json.dumps(run_verification(seed=1))


def _exact_by_loop(seed: int) -> tuple[float, dict]:
    """The exact R-bin check as one scalar r_bin_amplitude loop per draw: the
    largest spread over N_EXACT draws, and the generator state after them."""
    rng = np.random.default_rng(seed)
    pairs = [encode_symbol(sym, SIGNAL_TABLE) for sym in BB84_SYMBOLS]
    max_dev = 0.0
    for _ in range(N_EXACT):
        phi1 = rng.uniform(0.0, TWO_PI)
        phi_rf = rng.uniform(0.0, TWO_PI)
        amps = [r_bin_amplitude(pp, phi1, phi_rf, 1.0) for pp in pairs]
        spread = max(abs(z - amps[0]) for z in amps[1:])
        max_dev = max(max_dev, spread)
    return max_dev, rng.bit_generator.state


@functools.cache
def _report(seed: int) -> dict:
    return run_verification(seed=seed)


class TestExactCheckOracle:
    """run_verification's exact check against the scalar loop: the same
    maximum spread, bit for bit, and the same draws in the same order."""

    def test_matches_the_loop_at_seeds_0_to_39(self):
        for seed in range(40):
            max_dev, state = _exact_by_loop(seed)
            assert _report(seed)["properties"][0]["max_deviation"] == max_dev
            rng = np.random.default_rng(seed)
            rng.uniform(0.0, TWO_PI, size=2 * N_EXACT)
            assert rng.bit_generator.state == state

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_matches_the_loop_at_random_seeds(self, seed):
        exact = run_verification(seed=seed)["properties"][0]
        assert exact["max_deviation"] == _exact_by_loop(seed)[0]
        assert exact["passed"] is True

    # SHA-256 over the JSON reports of seeds 0..39, one line each: any change
    # to a draw, its order or a property's arithmetic moves it.
    def test_golden_security_reports(self):
        digest = hashlib.sha256()
        for seed in range(40):
            digest.update(json.dumps(_report(seed), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == (
            "8d894fde8a775d913b9894711146d487f95da5e0c855a477aa8ea9495301c8c5"
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
        crews = []

        class RecordingCrew(_fanout.Crew):
            def __init__(self, workers, n_tasks):
                crews.append(workers)
                super().__init__(workers, n_tasks)

        monkeypatch.setattr(_fanout, "Crew", RecordingCrew)
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
        assert crews == [1] * 5 + [2] * 5 + [3] * 5 + [16] * 5
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

    def test_claims_run_in_task_order_and_end_at_a_failed_draw_or_a_stop(self):
        crew = _fanout.Crew(1, 4)
        assert [crew.claim(lambda i: i) for _ in range(2)] == [0, 1]

        def failing(i):
            raise RuntimeError(f"draw {i} failed")

        with pytest.raises(RuntimeError, match="^draw 2 failed$"):
            crew.claim(failing)
        assert crew.claim(lambda i: i) is None
        stopped = _fanout.Crew(1, 4)
        stopped.stop()
        assert stopped.claim(lambda i: i) is None

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
        caller, doubled_sum = [], secprops._doubled_sum
        ran, others_ran, interrupting = [], threading.Semaphore(0), threading.Event()

        def test_or_interrupt(*args):
            if threading.get_ident() == caller[0]:
                for _ in range(cpus - 1):
                    assert others_ran.acquire(timeout=10.0), "no other worker ran a test"
                interrupting.set()
                raise KeyboardInterrupt
            total = doubled_sum(*args)
            ran.append(total)
            if len(ran) < cpus:
                others_ran.release()
                assert interrupting.wait(10.0), "the calling thread was not interrupted"
            return total

        def call():
            caller.append(threading.get_ident())
            run_verification(seed=0)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(secprops, "_doubled_sum", test_or_interrupt)
        before = threading.active_count()
        exc = _within_watchdog(call)
        assert isinstance(exc, KeyboardInterrupt)
        assert len(ran) < 12, f"{len(ran)} uniformity and control quarters ran"
        assert threading.active_count() == before
