"""Simulator for a modulator-free, directly modulated decoy-state BB84 system.

Subpackages:
  photonics  coherent pulse frames and the AMZI transform
  encoding   symbol-to-phase mapping, V-pi calibration, waveform schedules
  linksim    channel/detector model, analytic gains and Monte Carlo tallies
  decoy      two-decoy yield/error bounds and the asymptotic key rate
  secprops   executable security-property checks for the random bins
  config/cli run configuration and the command-line interface
"""

__version__ = "0.1.0"
