"""Capacity and demodulation analysis for phase-quantized block-noncoherent
PSK receivers.

The channel model: M-PSK symbols, an unknown carrier phase held constant over
a block of L symbols, additive complex Gaussian noise, and a receiver that
observes only which of K = a*M uniform angular sectors each sample falls in.
The package computes the exact transition law and mutual information of this
channel, runs the GLRT block demodulator with its crossover-angle candidate
sweep, and measures symbol error rates, with brute-force oracles shipped
alongside every reduced computation path.
"""

from .capacity import (
    CapacityResult,
    block_probs_all_outputs,
    brute_force_conditional_entropy,
    brute_force_output_entropy,
    brute_force_output_probs,
    conditional_entropy,
    marginal_probability,
    mutual_information,
    mutual_information_mc,
    output_entropy,
)
from .combinatorics import (
    CanonicalOutputClass,
    InputClass,
    canonical_output_classes,
    export_input_classes_csv,
    export_output_classes_csv,
    grouped_input_classes,
    input_class_count,
    output_class_count,
)
from .core import (
    SystemConfig,
    modulate,
    parse_config_text,
    ramp_dither,
    resolve_dither,
    sample_blocks,
    sector_index,
)
from .demod import (
    GlrtCandidate,
    GlrtResult,
    brute_force_glrt,
    crossover_angles,
    glrt_demodulate,
    glrt_demodulate_dithered,
    glrt_metric,
)
from .sim import (
    SerPoint,
    TieCensus,
    coherent_qpsk_ser,
    run_ser,
    run_tie_census,
    ser_crossing_snr,
    wilson_interval,
)
from .transition import (
    TransitionKernel,
    block_conditional,
    block_conditional_batch,
    export_kernel_csv,
    kernel_bank_for,
    kernel_for,
    load_kernel_csv,
    phase_offset_pdf,
    sector_offset_probability,
    sector_probability,
)
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "CapacityResult",
    "CanonicalOutputClass",
    "CheckResult",
    "GlrtCandidate",
    "GlrtResult",
    "InputClass",
    "SerPoint",
    "SystemConfig",
    "TieCensus",
    "TransitionKernel",
    "block_conditional",
    "block_conditional_batch",
    "block_probs_all_outputs",
    "brute_force_conditional_entropy",
    "brute_force_glrt",
    "brute_force_output_entropy",
    "brute_force_output_probs",
    "canonical_output_classes",
    "coherent_qpsk_ser",
    "conditional_entropy",
    "crossover_angles",
    "export_input_classes_csv",
    "export_kernel_csv",
    "export_output_classes_csv",
    "glrt_demodulate",
    "glrt_demodulate_dithered",
    "glrt_metric",
    "grouped_input_classes",
    "input_class_count",
    "kernel_bank_for",
    "kernel_for",
    "load_kernel_csv",
    "marginal_probability",
    "modulate",
    "mutual_information",
    "mutual_information_mc",
    "output_class_count",
    "output_entropy",
    "parse_config_text",
    "phase_offset_pdf",
    "ramp_dither",
    "resolve_dither",
    "run_all_checks",
    "run_ser",
    "run_tie_census",
    "sample_blocks",
    "sector_index",
    "sector_offset_probability",
    "sector_probability",
    "ser_crossing_snr",
    "wilson_interval",
]
