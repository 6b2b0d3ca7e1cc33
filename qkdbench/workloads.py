"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Every op calls only the public functions of dmqkd and opens a span around
each call, so a traced run can split the op's time by layer. Inputs are made
here from the workload seed; the program sees only those inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dmqkd import decoy, encoding, linksim, photonics, secprops
from dmqkd.config import RunConfig

N_FRAMES = 10_000_000
N_SYMBOLS = 4096
N_SYMBOLS_SMALL = 1024
SWEEP_DB = (0.0, 60.0, 0.01)
SWEEP_POINTS = 6001
N_PROPERTIES = 11
# MC and verify seeds cycle through a pool of this size, so that every one of
# them has a reference result committed in reference.json.
POOL = 256
Z_ROWS = (("signal", "Z"), ("decoy", "Z"), ("vacuum", "Z"))
# The default configuration's state mix: 90% Y-basis signal, the Z basis
# split evenly over signal, decoy and vacuum. Fixed here so that the inputs
# do not move when the program's defaults do.
STATE_MIX = (("Y", "s", 0.9), ("Z", "s", 0.1 / 3), ("Z", "d", 0.1 / 3), ("Z", "v", 0.1 / 3))
TOKENS_PER_LINE = 16
Z_LIMIT = 6.0
PHASE_TOL = 1e-12


def pool_slot(seed: int, index: int) -> int:
    return (seed + index) % POOL


def tally_digest(tallies: linksim.TallyCounts) -> str:
    return hashlib.sha256("\n".join(tallies.csv_rows()).encode()).hexdigest()[:16]


# --- inputs ------------------------------------------------------------------


def mc_input(seed: int, index: int) -> dict:
    return {"mc_seed": pool_slot(seed, index)}


def schedule_input(seed: int, index: int, n_symbols: int = N_SYMBOLS) -> dict:
    """A symbol-stream text drawn from STATE_MIX, plus the random triplet
    phases (phi1, phi_rp, phi_rf) used to render each decoded symbol."""
    rng = np.random.default_rng([seed, index, n_symbols])
    kinds = rng.choice(len(STATE_MIX), size=n_symbols, p=[m[2] for m in STATE_MIX])
    bits = rng.integers(0, 2, size=n_symbols)
    tokens = [
        f"{STATE_MIX[k][0]}{b}{STATE_MIX[k][1]}" for k, b in zip(kinds.tolist(), bits.tolist())
    ]
    lines = (
        " ".join(tokens[i:i + TOKENS_PER_LINE]) for i in range(0, n_symbols, TOKENS_PER_LINE)
    )
    return {
        "text": "\n".join(lines) + "\n",
        "tokens": tokens,
        "phases": (rng.random((n_symbols, 3)) * photonics.TWO_PI).tolist(),
    }


def verify_input(seed: int, index: int, ref: dict) -> dict:
    return {"verify_seed": ref["verify_seeds"][pool_slot(seed, index)]}


# --- ops -----------------------------------------------------------------------


def mc_op(tr, inp: dict, cfg: RunConfig) -> dict:
    """What `dmqkd mc` computes at the default 15 dB point, at 10^7 frames."""
    with tr.span("linksim.state_probs"):
        probs = linksim.default_state_probs(cfg.link, cfg.z_mix)
    with tr.span("linksim.mc"):
        tallies = linksim.simulate_frames_mc(
            N_FRAMES, cfg.link, cfg.intensities, probs, seed=inp["mc_seed"]
        )
    with tr.span("linksim.expected"):
        expected = {
            key: linksim.expected_row_stats(key, cfg.link, cfg.intensities)
            for key in linksim.STATE_ROWS
        }
    with tr.span("decoy.key_rate"):
        rate = decoy.secure_key_rate(
            *(tallies.gain_qber(key) for key in Z_ROWS), cfg.link, cfg.intensities
        )
    return {"tallies": tallies, "expected": expected, "rate": rate}


def schedule_op(tr, inp: dict, cfg: RunConfig) -> dict:
    """Symbol stream -> schedule -> text and JSON -> parsed back -> phase
    pairs -> AMZI output frames."""
    with tr.span("encoding.parse"):
        symbols = encoding.parse_symbol_stream(inp["text"])
    with tr.span("encoding.compile"):
        sched = encoding.compile_schedule(
            symbols, cfg.timing, cfg.calibration, cfg.decoy_table()
        )
    with tr.span("encoding.to_text"):
        text = encoding.schedule_to_text(sched)
    with tr.span("encoding.to_json"):
        js = encoding.schedule_to_json(sched)
    with tr.span("encoding.from_text"):
        back = encoding.schedule_from_text(text)
    with tr.span("encoding.decompile"):
        pairs = encoding.decompile_schedule(back, cfg.timing, cfg.calibration)
    with tr.span("photonics.render"):
        frames = [
            photonics.amzi_transform(
                photonics.make_frame(1.0, phi1, pp.phi12, pp.phi23, phi_rp, phi_rf)
            )
            for pp, (phi1, phi_rp, phi_rf) in zip(pairs, inp["phases"])
        ]
    return {
        "symbols": symbols,
        "events": len(sched.events),
        "text": text,
        "json": js,
        "back": back,
        "pairs": pairs,
        "frames": frames,
    }


def analytic_op(tr, inp: dict, cfg: RunConfig) -> dict:
    """A 0.01 dB key-rate sweep as `dmqkd sweep` writes it, then `verify`."""
    with tr.span("decoy.sweep"):
        points = decoy.sweep_loss(*SWEEP_DB, cfg.link, cfg.intensities)
    with tr.span("decoy.cutoff"):
        cutoff = decoy.cutoff_loss(points)
    with tr.span("decoy.csv"):
        lines = decoy.sweep_csv_lines(points)
    with tr.span("decoy.rate_at_15db"):
        at15 = decoy.rate_at_loss(15.0, cfg.link, cfg.intensities)
    with tr.span("secprops.verify"):
        report = secprops.run_verification(seed=inp["verify_seed"])
    return {"points": points, "cutoff": cutoff, "lines": lines, "at15": at15, "report": report}


# --- checks: each returns the list of problems found, empty when correct ----


def check_mc(inp: dict, out: dict, ref: dict) -> list[str]:
    problems = []
    tallies = out["tallies"]
    for key in linksim.STATE_ROWS:
        t = tallies.rows[key]
        if not 0 <= t.errors <= t.detected <= t.sent:
            problems.append(f"{key}: need errors <= detected <= sent, got {t}")
            continue
        exp = out["expected"][key]
        emp = tallies.gain_qber(key)
        z_q = (emp.q - exp.q) / math.sqrt(exp.q * (1.0 - exp.q) / t.sent)
        z_e = (emp.e - exp.e) / math.sqrt(exp.e * (1.0 - exp.e) / t.detected) if t.detected else 0.0
        if not (abs(z_q) < Z_LIMIT and abs(z_e) < Z_LIMIT):
            problems.append(f"{key}: z_q={z_q:.2f} z_e={z_e:.2f}")
    digest = tally_digest(tallies)
    if digest != ref["mc_digests"][str(inp["mc_seed"])]:
        problems.append(f"tally digest {digest} differs for mc seed {inp['mc_seed']}")
    if not (math.isfinite(out["rate"].r_bps) and out["rate"].r_bps >= 0.0):
        problems.append(f"r_bps = {out['rate'].r_bps!r}")
    return problems


def _angle_gap(a: float, b: float) -> float:
    d = (float(a) - float(b)) % photonics.TWO_PI
    return min(d, photonics.TWO_PI - d)


def check_schedule(inp: dict, out: dict, cfg: RunConfig) -> list[str]:
    problems = []
    want = [encoding.parse_symbol_token(tok) for tok in inp["tokens"]]
    if out["symbols"] != want:
        problems.append("parsed symbols differ from the generated tokens")
    if out["events"] != 6 * len(want):
        problems.append(f"{out['events']} events for {len(want)} symbols")
    if len(out["pairs"]) != len(want):
        problems.append(f"{len(out['pairs'])} decoded pairs for {len(want)} symbols")
    table = cfg.decoy_table()
    for i, (sym, pair, frame) in enumerate(zip(want, out["pairs"], out["frames"])):
        exp = encoding.encode_symbol(sym, table)
        if max(_angle_gap(pair.phi12, exp.phi12), _angle_gap(pair.phi23, exp.phi23)) > PHASE_TOL:
            problems.append(f"symbol {i}: decoded {pair} != encoded {exp}")
            break
        # Unit-amplitude triplet: |E| = |cos(phi12/2)| and |L| = |cos(phi23/2)|.
        if (abs(abs(frame.e) - abs(math.cos(float(exp.phi12) / 2.0))) > PHASE_TOL
                or abs(abs(frame.l) - abs(math.cos(float(exp.phi23) / 2.0))) > PHASE_TOL):
            problems.append(f"symbol {i}: AMZI output {frame} does not match {exp}")
            break
    if encoding.schedule_to_text(out["back"]) != out["text"]:
        problems.append("schedule text does not survive a parse and re-serialization")
    return problems


def check_analytic(inp: dict, out: dict, ref: dict) -> list[str]:
    problems = []
    if len(out["points"]) != SWEEP_POINTS or len(out["lines"]) != SWEEP_POINTS + 1:
        problems.append(f"{len(out['points'])} sweep points, {len(out['lines'])} CSV lines")
    if out["cutoff"] != ref["cutoff_db"]:
        problems.append(f"cutoff {out['cutoff']!r} != {ref['cutoff_db']!r}")
    if out["at15"].r_bps != ref["r_bps_15db"]:
        problems.append(f"r_bps at 15 dB {out['at15'].r_bps!r} != {ref['r_bps_15db']!r}")
    report = out["report"]
    if not report["all_passed"] or len(report["properties"]) != N_PROPERTIES:
        problems.append(f"verify seed {inp['verify_seed']}: all_passed={report['all_passed']}, "
                        f"{len(report['properties'])} properties")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    items_per_op: int
    make_input: Callable[[int, int], dict]
    op: Callable[[object, dict], dict]
    check: Callable[[dict, dict], list[str]]


def build(cfg: RunConfig, ref: dict) -> dict[str, Workload]:
    return {
        "mc_link": Workload(
            "mc_link", "frame", N_FRAMES, mc_input,
            lambda tr, inp: mc_op(tr, inp, cfg),
            lambda inp, out: check_mc(inp, out, ref),
        ),
        "schedule_roundtrip": Workload(
            "schedule_roundtrip", "symbol", N_SYMBOLS, schedule_input,
            lambda tr, inp: schedule_op(tr, inp, cfg),
            lambda inp, out: check_schedule(inp, out, cfg),
        ),
        "analytic_verify": Workload(
            "analytic_verify", "sweep point", SWEEP_POINTS,
            lambda seed, index: verify_input(seed, index, ref),
            lambda tr, inp: analytic_op(tr, inp, cfg),
            lambda inp, out: check_analytic(inp, out, ref),
        ),
    }


# --- layer probes for the traced run ---------------------------------------------


def rng_floor(tr, mc_seed: int, sifted_ratio: float, detected_ratio: float) -> None:
    """The sampler's uniform draws alone: the same per-(seed, block)
    generators and, per block, the same draw sizes in expectation."""
    block = linksim.DEFAULT_BLOCK_SIZE
    with tr.span("linksim.rng_floor"):
        for b in range((N_FRAMES + block - 1) // block):
            n = min(block, N_FRAMES - b * block)
            m = round(n * sifted_ratio)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=mc_seed, spawn_key=(b,)))
            rng.random(n)
            rng.random(n)
            rng.random(m)
            rng.random(m)
            rng.random(round(m * detected_ratio))


def decoy_split(tr, cfg: RunConfig) -> None:
    """The sweep's three stages, each over all sweep points on its own."""
    intens = cfg.intensities
    losses = [SWEEP_DB[0] + i * SWEEP_DB[2] for i in range(SWEEP_POINTS)]
    with tr.span("decoy.gains"):
        gains = [
            decoy.analytic_class_gains(linksim.with_loss(cfg.link, loss), intens)
            for loss in losses
        ]
    with tr.span("decoy.bounds"):
        for mu_g, nu_g, om_g in gains:
            y0 = decoy.bound_y0(nu_g.q, om_g.q, intens.nu, intens.omega)
            y1 = decoy.bound_y1(mu_g.q, nu_g.q, om_g.q, intens.mu, intens.nu, intens.omega, y0)
            if y1 > 0.0:
                decoy.bound_e1(nu_g.e * nu_g.q, om_g.e * om_g.q, intens.nu, intens.omega, y1)
    with tr.span("decoy.rate"):
        for g in gains:
            decoy.secure_key_rate(*g, cfg.link, intens)


def secprops_split(tr, seed: int) -> None:
    """run_verification's three families of checks, rebuilt from the public
    functions with its default sizes."""
    n_exact, n_uniform = 10_000, 100_000
    rng = np.random.default_rng(seed)
    pairs = [encoding.encode_symbol(sym, {"signal": 1.0}) for sym in secprops.BB84_SYMBOLS]
    with tr.span("secprops.exact"):
        for _ in range(n_exact):
            phi1 = rng.uniform(0.0, photonics.TWO_PI)
            phi_rf = rng.uniform(0.0, photonics.TWO_PI)
            for pp in pairs:
                secprops.r_bin_amplitude(pp, phi1, phi_rf, 1.0)
    with tr.span("secprops.uniformity"):
        for sampler in (secprops.sample_phi_lr, secprops.sample_phi_erp):
            for fixed in secprops.FIXED_ENCODING_PHASES:
                secprops.axial_uniformity_p(sampler(fixed, n_uniform, rng))
    with tr.span("secprops.mi"):
        bits = rng.integers(0, 2, size=n_uniform)
        phi23 = np.where(bits == 0, math.pi, 0.0)
        phi_rf = rng.uniform(0.0, photonics.TWO_PI, size=n_uniform)
        secprops.mutual_information_bits(bits, ((phi_rf + phi23) % photonics.TWO_PI) / 2.0)
