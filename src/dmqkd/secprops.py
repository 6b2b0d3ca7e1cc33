"""Executable checks of the transmitter's side-channel properties.

Two families of statements about the unused 'random' interference bins that
flank each encoded early/late pair:

* exact: the complex amplitude of the R and R_P bins is identical for all four
  BB84 encodings, because every encoding satisfies phi12 + phi23 = pi mod 2*pi;
* statistical: the relative phases between an encoded bin and its adjoining
  randomised bin are one-time padded by the uniformly random inter-triplet
  phases, so they carry no information about the encoded bit.

The relative phase of two interfered pulses is a half-angle of the underlying
phase step and is therefore an axial quantity (defined modulo pi, since the
signed amplitude absorbs the other half-turn). Uniformity is accordingly
tested on the doubled angles, the standard circular-statistics treatment of
axial data.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from ._fanout import Crew, fan_out
from .encoding import EncodingSymbol, PhasePair, encode_symbol
from .errors import SampleSizeError, check_seed
from .photonics import TWO_PI

# Sizes and thresholds of run_verification: exact-check draws, samples per
# statistical test, the uniformity p-value level, the mutual-information
# ceiling (bits) and its histogram's phase bins.
N_EXACT = 10_000
N_UNIFORM = 100_000
P_THRESHOLD = 0.01
MI_THRESHOLD = 0.01
MI_BINS = 32
_EXACT_BLOCK = 250  # draws per block of the exact check; 1,000 raised peak RSS
# run_verification runs each property as _QUARTERS tasks of _QUARTER samples
# (the exact check's of N_EXACT // _QUARTERS draws); eighths made twice the
# numpy calls and cost 8% more time, halves saved less memory.
_QUARTERS = 4
_QUARTER = N_UNIFORM // _QUARTERS


def r_bin_amplitude(pp: PhasePair, phi1: float, phi_rf: float, a: float) -> complex:
    """Complex amplitude of the trailing random bin after the AMZI.

    (A/2) * e^{i(phi1 + phi12 + phi23)} * (1 + e^{i phi_rf}); identical for
    all four BB84 phase pairs since their phi12 + phi23 agree mod 2*pi.
    """
    return (
        0.5
        * a
        * cmath.exp(1j * (float(phi1) + float(pp.phi12) + float(pp.phi23)))
        * (1.0 + cmath.exp(1j * float(phi_rf)))
    )


def _finite(samples: Sequence[float], what: str, bound: float = sys.float_info.max) -> np.ndarray:
    """samples as a float array, each finite and at most bound in magnitude,
    or SampleSizeError naming the first that is not. The dtype is checked
    before the cast, so complex, text or object samples are not coerced."""
    arr = np.asarray(samples)
    if arr.dtype.kind not in "iuf":
        raise SampleSizeError(f"{what} must be real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    # Written so that a NaN fails both comparisons.
    if arr.size and not (-bound <= arr.min() and arr.max() <= bound):
        bad = arr[~(np.abs(arr) <= bound)].flat[0]
        limit = "" if bound == sys.float_info.max else f" and at most {bound:.4g} in magnitude"
        raise SampleSizeError(f"{what} must be finite{limit}, got {bad}")
    return arr


def _unit_sum(angles: np.ndarray, unit: np.ndarray) -> complex:
    """np.add.reduce of the unit vectors of finite angles, written into unit,
    a complex buffer of their shape: cos and sin written into one complex
    buffer equal np.exp(1j * angles) bit for bit."""
    np.cos(angles, out=unit.real)
    np.sin(angles, out=unit.imag)
    return np.add.reduce(unit)


def _rayleigh(total: complex, n: int) -> tuple[float, float]:
    """Rayleigh test of circular uniformity of n angles, at least 100, whose
    unit vectors sum to total: returns (z, p), z = n * Rbar^2 with Rbar the
    mean resultant length and p ~ exp(-z) * (1 + (2z - z^2)/(4n)). Large p
    supports uniformity. total / n is the unit vectors' mean() bit for bit."""
    rbar = float(abs(total / n))
    z = n * rbar * rbar
    p = math.exp(-z) * (1.0 + (2.0 * z - z * z) / (4.0 * n))
    # max(p, 0.0) would keep a p of -0.0.
    return z, min(max(0.0, p), 1.0)


def _mod_two_pi(
    x: np.ndarray,
    out: np.ndarray | None = None,
    turns: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """np.remainder(x, TWO_PI, out=out) bit for bit; out may be x. On
    (-2*pi, 4*pi) that is x + 2*pi, x - 2*pi (exact by Sterbenz's lemma) or
    x + 0.0 (-0.0 becomes +0.0), which costs less than np.remainder's divmod;
    turns (float) and mask (bool) are scratch of x's shape, made if None.
    Any other input goes to np.remainder."""
    if x.size and -TWO_PI < x.min() and x.max() < 2.0 * TWO_PI:
        turns = np.less(x, 0.0, out=np.empty(x.shape) if turns is None else turns)
        turns -= np.greater_equal(x, TWO_PI, out=mask)
        turns *= TWO_PI
        return np.add(x, turns, out=out)
    return np.remainder(x, TWO_PI, out=out)


def axial_uniformity_p(samples: Sequence[float]) -> float:
    """Rayleigh p-value on the doubled angles (axial-data convention). The
    test needs at least 100 samples, each finite and at most DBL_MAX/2 in
    magnitude so that its double is finite; else SampleSizeError."""
    arr = _finite(samples, "samples", sys.float_info.max / 2.0)
    if arr.size < 100:
        raise SampleSizeError(f"need at least 100 samples, got {arr.size}")
    doubled = arr * 2.0
    _, p = _rayleigh(_unit_sum(_mod_two_pi(doubled, doubled), np.empty(arr.shape, dtype=complex)),
                     arr.size)
    return p


# The edges of mutual_information_bits' phase bins, as np.histogram takes them.
_MI_EDGES = np.linspace(0.0, TWO_PI, MI_BINS + 1)


def _phase_bins(phases: np.ndarray, bins: np.ndarray, edge: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
    """np.histogram's bin on _MI_EDGES of each phase in [0, 2*pi], written
    into bins (int64): bin k holds e_k <= phase < e_k+1, and the last bin
    holds 2*pi too. edge (float) and mask (bool) are scratch of phases'
    shape. Each e_k scales to at least k and the scaling is monotone, so a
    scaled phase is never a bin low, and one bin high only below an edge."""
    np.multiply(phases, MI_BINS / TWO_PI, out=bins, casting="unsafe")
    np.minimum(bins, MI_BINS - 1, out=bins)
    bins -= np.less(phases, np.take(_MI_EDGES, bins, mode="clip", out=edge), out=mask)
    return bins


def _mi_bits(counts: np.ndarray) -> float:
    """Mutual information in bits of label and phase bin from their joint
    histogram counts[label, bin]."""
    joint = counts / counts.sum()
    p_label = joint.sum(axis=1, keepdims=True)
    p_phase = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log2(joint / (p_label * p_phase))
    return float(np.nansum(terms))


def mutual_information_bits(labels: Sequence[int], phases: Sequence[float]) -> float:
    """Histogram estimate (in bits) of I(label; phase) with MI_BINS phase bins."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biuf":
        raise SampleSizeError(f"labels must be real numbers, got dtype {labels.dtype}")
    # A NaN label equals no label: its samples would drop out of the joint
    # histogram while n still counts them.
    if not np.isfinite(labels).all():
        raise SampleSizeError(f"labels must be finite, got {labels[~np.isfinite(labels)].flat[0]}")
    phases = _finite(phases, "phases")
    if labels.shape != phases.shape:
        raise SampleSizeError(
            f"labels and phases differ in length: {labels.size} labels, {phases.size} phases"
        )
    n = labels.size
    if n == 0:
        raise SampleSizeError("need at least one sample, got 0")
    values, inverse = np.unique(labels, return_inverse=True)
    keys = inverse.ravel() * MI_BINS
    keys += _phase_bins(_mod_two_pi(phases).ravel(), np.empty(n, dtype=np.int64),
                        np.empty(n), np.empty(n, dtype=bool))
    return _mi_bits(np.bincount(keys, minlength=values.size * MI_BINS).reshape(-1, MI_BINS))


def sample_phi_lr(
    phi23: float | np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """phi_LR = (phi_rf + phi23)/2 for phi23 (fixed, or one per sample) under
    uniformly random phi_rf, the sum reduced mod 2*pi before halving: in [0, pi].
    The phi_rf are rng.random times TWO_PI: rng.uniform(0.0, TWO_PI, size=n)
    computes 0.0 + TWO_PI * rng.random() each, so they are its draws bit for
    bit and leave the generator in the same state."""
    out = rng.random(n)
    out *= TWO_PI
    out += phi23
    _mod_two_pi(out, out)
    out /= 2.0
    return out


def sample_phi_erp(
    phi12: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """phi_ER_P = (phi_rp - phi12)/2 for a fixed phi12 under uniformly random
    phi_rp; phi_rp - phi12 is phi_rp + (-phi12) bit for bit."""
    return sample_phi_lr(-float(phi12), n, rng)


BB84_SYMBOLS = (
    EncodingSymbol("Z", 0),
    EncodingSymbol("Z", 1),
    EncodingSymbol("Y", 0),
    EncodingSymbol("Y", 1),
)
# (phi12, phi23) of each BB84 symbol as the encoder sets them; rows 0 and 1
# are Z0 and Z1, so row `bit` holds a Z bit's phases.
_BB84_PHASES = np.array([[float(pp.phi12), float(pp.phi23)] for pp in
                         (encode_symbol(sym, {"signal": 1.0}) for sym in BB84_SYMBOLS)])
# Every phase step the four encodings apply, in increasing order.
FIXED_ENCODING_PHASES = tuple(sorted(set(_BB84_PHASES.ravel().tolist())))


def _max_spread(draws: np.ndarray) -> float:
    """The largest spread of the R-bin (and R_P-bin) amplitude across the four
    encodings over the (phi1, phi_rf) rows of draws, in blocks of rows:
    r_bin_amplitude's complex products in CPython's float order (0.5 * z is
    (0.5+0j) * z), so each spread is bit-identical to it."""
    phi12, phi23 = _BB84_PHASES[:, :1], _BB84_PHASES[:, 1:]
    max_dev = 0.0
    for start in range(0, len(draws), _EXACT_BLOCK):
        phi1, phi_rf = draws[start:start + _EXACT_BLOCK].T
        e, f = np.exp(1j * (phi1 + phi12 + phi23)), np.exp(1j * phi_rf)
        ar, ai = 0.5 * e.real - 0.0 * e.imag, 0.5 * e.imag + 0.0 * e.real
        br, bi = 1.0 + f.real, 0.0 + f.imag
        re, im = ar * br - ai * bi, ar * bi + ai * br
        max_dev = max(max_dev, float(np.hypot(re[1:] - re[0], im[1:] - im[0]).max()))
    return max_dev


def _exact_invariance(spreads: list[float]) -> dict:
    """Exact R-bin indistinguishability across the four encodings, from the
    _max_spread of each quarter of the N_EXACT draws."""
    max_dev = max(spreads)
    return {
        "name": "r_bin_amplitude_encoding_invariance",
        "passed": max_dev < 1e-12,
        "max_deviation": max_dev,
        "draws": N_EXACT,
    }


class _Buffers(NamedTuple):
    """One run_verification worker's arrays for its quarter tasks, freed when
    the call returns: their samples, the bool mask of _mod_two_pi and the
    unit vectors of _unit_sum. The float turns of _mod_two_pi share the unit
    vectors' first half, which a test writes only after its last reduction
    mod 2*pi; the MI test's int64 phase bins share their second."""

    samples: np.ndarray
    mask: np.ndarray
    unit: np.ndarray

    @property
    def turns(self) -> np.ndarray:
        return self.unit.view(np.float64)[: self.samples.size]


def _tree_sum(leaves: list[complex]) -> complex:
    """np.add.reduce of the N_UNIFORM unit vectors whose _QUARTERS quarters
    sum to leaves, bit for bit: its pairwise summation halves the 2 * N_UNIFORM
    doubles at N_UNIFORM and then at N_UNIFORM / 2, so the quarter sums are
    the leaves of its tree, and it adds them in this order."""
    l0, l1, l2, l3 = leaves
    return (l0 + l1) + (l2 + l3)


def _doubled_sum(doubled: np.ndarray, bufs: _Buffers) -> complex:
    """_unit_sum of the doubled angles of the half-angles (doubled mod 2*pi)
    / 2, bit for bit, from one reduction of doubled mod 2*pi in place: a
    result rounded to exactly 2*pi is folded to 0.0, as halving, doubling
    and reducing again would fold it (sin(2*pi) is not 0)."""
    _mod_two_pi(doubled, doubled, bufs.turns, bufs.mask)
    doubled[np.equal(doubled, TWO_PI, out=bufs.mask)] = 0.0
    return _unit_sum(doubled, bufs.unit)


def _padded_sum(shift: float, pads: np.ndarray, bufs: _Buffers) -> complex:
    """A quarter of a one-time-pad uniformity test at one fixed setting: the
    _doubled_sum of the doubled angles pads * 2*pi + shift, pads overwritten."""
    pads *= TWO_PI
    pads += shift
    return _doubled_sum(pads, bufs)


def _uniformity(name: str, leaves: list[complex]) -> dict:
    """One-time-pad uniformity of leakage phases at one fixed setting, from
    the _padded_sum of each quarter."""
    _, p = _rayleigh(_tree_sum(leaves), N_UNIFORM)
    return {"name": name, "passed": p > P_THRESHOLD, "p_value": p, "samples": N_UNIFORM}


def _bit_counts(bits: np.ndarray, bufs: _Buffers) -> np.ndarray:
    """A quarter of the MI test: the joint counts, label * MI_BINS + bin, of
    random Z-basis bits and the phase bin of phi_LR at each bit's phi23, from
    the pads in bufs.samples; bits is overwritten."""
    phi_lr = bufs.samples
    phi_lr *= TWO_PI
    phi_lr += np.take(_BB84_PHASES[:, 1], bits, mode="clip", out=bufs.turns)
    _mod_two_pi(phi_lr, phi_lr, bufs.turns, bufs.mask)
    phi_lr /= 2.0
    bits *= MI_BINS
    bits += _phase_bins(phi_lr, bufs.unit.view(np.int64)[phi_lr.size:], bufs.turns, bufs.mask)
    return np.bincount(bits, minlength=2 * MI_BINS)


def _bit_independence(counts: list[np.ndarray]) -> dict:
    """Mutual information between random Z-basis bits and phi_LR, from the
    _bit_counts of each quarter."""
    mi = _mi_bits(sum(counts).reshape(2, MI_BINS))
    return {
        "name": "bit_phi_lr_mutual_information",
        "passed": mi < MI_THRESHOLD,
        "mi_bits": mi,
        "samples": N_UNIFORM,
    }


def _control_sum(padding: np.ndarray, bufs: _Buffers) -> complex:
    """A quarter of the negative control: standard normal padding, scaled to
    0.3 rad and reduced mod 2*pi, then padded by pi; the _doubled_sum of
    that, padding overwritten."""
    padding *= 0.3
    _mod_two_pi(padding, padding, bufs.turns, bufs.mask)
    padding += math.pi
    return _doubled_sum(padding, bufs)


def _negative_control(leaves: list[complex]) -> dict:
    """A padding phase concentrated around 0 leaks, and the uniformity test
    must detect it: from the _control_sum of each quarter."""
    _, p = _rayleigh(_tree_sum(leaves), N_UNIFORM)
    return {
        "name": "negative_control_nonuniform_detected",
        "passed": p < P_THRESHOLD,
        "p_value": p,
        "samples": N_UNIFORM,
    }


def run_verification(seed: int = 0) -> dict:
    """Run the full property suite and return a JSON-serializable report.

    Properties: exact R/R_P-bin amplitude equality across encodings, axial
    Rayleigh uniformity of phi_LR / phi_ER_P at every fixed encoding phase,
    a mutual-information null between the encoded bit and phi_LR, and a
    negative control in which the padding phase is deliberately concentrated
    (its uniformity test must fail).

    Each property is a draw from the one generator and a test of that draw
    alone, run as _QUARTERS tasks over a quarter of the draw each, whose
    partial results are then combined. The tasks run on one thread per CPU
    the process may use, which claim them in the order listed and take their
    draws as they claim them, so the report does not depend on the number
    of threads.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    bits = []  # the MI test's, drawn whole by its first quarter

    def mi_draw(q: int, bufs: _Buffers) -> np.ndarray:
        if q == 0:
            bits.append(rng.integers(0, 2, size=N_UNIFORM))
        rng.random(out=bufs.samples)
        return bits[0][q * _QUARTER:(q + 1) * _QUARTER]

    # Each property is draw(q, bufs), quarter q's generator calls alone,
    # test(drawn, bufs), given the buffers of the worker that claims the
    # quarter, and finish(partials) over the quarters' results. A quarter's
    # draws continue the same stream: the four quarters' rng.random(out=),
    # rng.standard_normal(out=) or rng.uniform rows are the whole draw's.
    properties = [(lambda q, bufs: rng.uniform(0.0, TWO_PI, size=(N_EXACT // _QUARTERS, 2)),
                   lambda draws, bufs: _max_spread(draws), _exact_invariance)]
    # phi_LR pads +phi23 and phi_ER_P pads -phi12, as sample_phi_lr and
    # sample_phi_erp do, with rng.random times TWO_PI as their pads.
    for name, sign in (("phi_lr", 1.0), ("phi_erp", -1.0)):
        for fixed in FIXED_ENCODING_PHASES:
            properties.append((
                lambda q, bufs: rng.random(out=bufs.samples),
                functools.partial(_padded_sum, sign * fixed),
                functools.partial(_uniformity, f"{name}_uniform_at_{fixed / math.pi:.2f}pi"),
            ))
    properties.append((mi_draw, _bit_counts, _bit_independence))
    # standard_normal times 0.3 leaves the generator as normal(0.0, 0.3) does
    # and is its draws bit for bit, but for the sign of an exact zero: normal
    # computes 0.0 + 0.3 * standard_normal(), and the control's first
    # reduction mod 2*pi clears that sign too.
    properties.append((lambda q, bufs: rng.standard_normal(out=bufs.samples),
                       _control_sum, _negative_control))
    partials: list = [None] * (len(properties) * _QUARTERS)

    def run(crew: Crew) -> None:
        # Only the generator calls hold the claim; each test runs outside it,
        # in parallel with the next draws. Every task of this worker runs in
        # these buffers from draw to partial result: arrays made and freed per
        # test were faulted in afresh by each test, since glibc hands freed
        # ones back to the kernel.
        bufs = _Buffers(np.empty(_QUARTER), np.empty(_QUARTER, dtype=bool),
                        np.empty(_QUARTER, dtype=complex))

        def draw(i: int) -> tuple[int, object]:
            return i, properties[i // _QUARTERS][0](i % _QUARTERS, bufs)

        while (claimed := crew.claim(draw)) is not None:
            i, drawn = claimed
            partials[i] = properties[i // _QUARTERS][1](drawn, bufs)

    fan_out(len(partials), run)
    report = [finish(partials[k * _QUARTERS:(k + 1) * _QUARTERS])
              for k, (_, _, finish) in enumerate(properties)]
    return {
        "seed": seed,
        "all_passed": all(p["passed"] for p in report),
        "properties": report,
    }
