"""Simulator for a modulator-free, directly modulated decoy-state BB84 system.

Subpackages:
  photonics  coherent pulse frames, the AMZI transform, drive timing, V-pi calibration
  encoding   symbol-to-phase mapping, drive voltages, waveform schedules
  linksim    channel/detector model, analytic gains and Monte Carlo tallies
  decoy      two-decoy yield/error bounds and the asymptotic key rate
  secprops   executable security-property checks for the random bins
  config/cli run configuration and the command-line interface

numpy is imported by encoding, secprops and the linksim sampler only.
"""

__version__ = "0.1.0"
