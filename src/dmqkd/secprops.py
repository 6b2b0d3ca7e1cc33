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
from typing import Sequence

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


def circular_uniformity_stat(samples: Sequence[float]) -> tuple[float, float]:
    """Rayleigh test of circular uniformity: returns (z, p).

    z = n * Rbar^2 with Rbar the mean resultant length;
    p ~ exp(-z) * (1 + (2z - z^2)/(4n)). Large p supports uniformity.
    """
    arr = _finite(samples, "samples")
    n = arr.size
    if n < 100:
        raise SampleSizeError(f"need at least 100 samples, got {n}")
    # cos and sin written into one complex buffer equal np.exp(1j * arr) bit
    # for bit, and its complex mean sums in the same order.
    unit = np.empty(arr.shape, dtype=complex)
    np.cos(arr, out=unit.real)
    np.sin(arr, out=unit.imag)
    rbar = float(abs(unit.mean()))
    z = n * rbar * rbar
    p = math.exp(-z) * (1.0 + (2.0 * z - z * z) / (4.0 * n))
    # max(p, 0.0) would keep a p of -0.0.
    return z, min(max(0.0, p), 1.0)


def _mod_two_pi(x: np.ndarray) -> np.ndarray:
    """np.remainder(x, TWO_PI) bit for bit. On (-2*pi, 4*pi) that is x + 2*pi,
    x - 2*pi (exact by Sterbenz's lemma) or x + 0.0 (-0.0 becomes +0.0), which
    costs less than np.remainder's divmod; any other input goes to it."""
    if x.size and -TWO_PI < x.min() and x.max() < 2.0 * TWO_PI:
        turns = (x < 0.0).astype(float)
        turns -= x >= TWO_PI
        return x + turns * TWO_PI
    return np.remainder(x, TWO_PI)


def axial_uniformity_p(samples: Sequence[float]) -> float:
    """Rayleigh p-value on the doubled angles (axial-data convention)."""
    doubled = _mod_two_pi(2.0 * _finite(samples, "samples", sys.float_info.max / 2.0))
    _, p = circular_uniformity_stat(doubled)
    return p


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
    phases = _mod_two_pi(phases)
    edges = np.linspace(0.0, TWO_PI, MI_BINS + 1)
    values = np.unique(labels)
    joint = np.stack(
        [np.histogram(phases[labels == v], bins=edges)[0] for v in values]
    ).astype(float)
    joint /= n
    p_label = joint.sum(axis=1, keepdims=True)
    p_phase = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log2(joint / (p_label * p_phase))
    return float(np.nansum(terms))


def sample_phi_lr(
    phi23: float | np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """phi_LR = (phi_rf + phi23)/2 for phi23 (fixed, or one per sample) under
    uniformly random phi_rf, the sum reduced mod 2*pi before halving: in [0, pi)."""
    phi_rf = rng.uniform(0.0, TWO_PI, size=n)
    return _mod_two_pi(phi_rf + phi23) / 2.0


def sample_phi_erp(
    phi12: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """phi_ER_P = (phi_rp - phi12)/2 for a fixed phi12 under uniformly random phi_rp."""
    phi_rp = rng.uniform(0.0, TWO_PI, size=n)
    return _mod_two_pi(phi_rp - float(phi12)) / 2.0


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


def _exact_invariance(draws: np.ndarray) -> dict:
    """Exact R-bin (and R_P-bin) indistinguishability across the four
    encodings at each (phi1, phi_rf) row of draws, in blocks of rows:
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
    return {
        "name": "r_bin_amplitude_encoding_invariance",
        "passed": max_dev < 1e-12,
        "max_deviation": max_dev,
        "draws": len(draws),
    }


def _uniformity(name: str, samples: np.ndarray) -> dict:
    """One-time-pad uniformity of leakage phases at one fixed setting."""
    p = axial_uniformity_p(samples)
    return {"name": name, "passed": p > P_THRESHOLD, "p_value": p, "samples": samples.size}


def _bits_and_phi_lr(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random Z-basis bits and phi_LR at each bit's phi23."""
    bits = rng.integers(0, 2, size=N_UNIFORM)
    return bits, sample_phi_lr(_BB84_PHASES[bits, 1], N_UNIFORM, rng)


def _bit_phase_independence(bits_and_phases: tuple[np.ndarray, np.ndarray]) -> dict:
    """Mutual information between the Z-basis bit and phi_LR."""
    bits, phi_lr = bits_and_phases
    mi = mutual_information_bits(bits, phi_lr)
    return {
        "name": "bit_phi_lr_mutual_information",
        "passed": mi < MI_THRESHOLD,
        "mi_bits": mi,
        "samples": bits.size,
    }


def _negative_control(padding: np.ndarray) -> dict:
    """A padding phase concentrated around 0 leaks, and the uniformity test
    must detect it."""
    concentrated = _mod_two_pi(_mod_two_pi(padding) + math.pi) / 2.0
    p = axial_uniformity_p(concentrated)
    return {
        "name": "negative_control_nonuniform_detected",
        "passed": p < P_THRESHOLD,
        "p_value": p,
        "samples": padding.size,
    }


def run_verification(seed: int = 0) -> dict:
    """Run the full property suite and return a JSON-serializable report.

    Properties: exact R/R_P-bin amplitude equality across encodings, axial
    Rayleigh uniformity of phi_LR / phi_ER_P at every fixed encoding phase,
    a mutual-information null between the encoded bit and phi_LR, and a
    negative control in which the padding phase is deliberately concentrated
    (its uniformity test must fail).

    Each property is a draw from the one generator and a test of that draw
    alone. The properties run on one thread per CPU the process may use,
    taking their draws in the order listed, so the report does not depend on
    the number of threads.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    tasks = [(lambda: rng.uniform(0.0, TWO_PI, size=(N_EXACT, 2)), _exact_invariance)]
    for name, sampler in (("phi_lr", sample_phi_lr), ("phi_erp", sample_phi_erp)):
        for fixed in FIXED_ENCODING_PHASES:
            tasks.append((
                functools.partial(sampler, fixed, N_UNIFORM, rng),
                functools.partial(_uniformity, f"{name}_uniform_at_{fixed / math.pi:.2f}pi"),
            ))
    tasks.append((functools.partial(_bits_and_phi_lr, rng), _bit_phase_independence))
    tasks.append((lambda: rng.normal(0.0, 0.3, size=N_UNIFORM), _negative_control))
    properties: list = [None] * len(tasks)

    def run(first: int, crew: Crew) -> None:
        # Each test runs outside the turn, in parallel with the next draws.
        for i in range(first, len(tasks), crew.workers):
            draw, test = tasks[i]
            properties[i] = test(crew.in_turn(i, draw))

    fan_out(len(tasks), run)
    return {
        "seed": seed,
        "all_passed": all(p["passed"] for p in properties),
        "properties": properties,
    }
