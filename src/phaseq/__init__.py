"""Capacity and demodulation analysis for phase-quantized block-noncoherent
PSK receivers.

The channel model: M-PSK symbols, an unknown carrier phase held constant over
a block of L symbols, additive complex Gaussian noise, and a receiver that
observes only which of K = a*M uniform angular sectors each sample falls in.
The package computes the exact transition law and mutual information of this
channel, runs the GLRT block demodulator with its crossover-angle candidate
sweep, and measures symbol error rates, with brute-force oracles shipped
alongside every reduced computation path.

Names are imported from the module that defines them, for example
``from phaseq.capacity import mutual_information`` or
``from phaseq.sim import run_ser``. The package root holds only the
configuration type every module shares, ``SystemConfig``, and
``__version__``.
"""

from .core import SystemConfig

__version__ = "0.1.0"

__all__ = ["SystemConfig"]
