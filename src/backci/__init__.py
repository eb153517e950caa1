"""Constructive-interference toolkit for backscatter tag detection.

Decides when the direct link between the power source and the reader helps
rather than hurts detection of a backscatter tag, designs receive (and, for a
multi-antenna source, transmit) beamformers under consensual and evolved CI
constraints, selects tags, and runs Monte Carlo sweeps that reproduce the
qualitative trends of the underlying detection theory.

Subpackage map:
    numerics     Lambert W0, the threshold map F, small Hermitian eig.
    detection    Variances, KLDs, detection-error-probability bounds, oracle.
    channel     Rician link synthesis, cascades, serialization.
    qcqp        The consensual SCA's unit-ball QCQP kernel, by dual Newton.
    convex      The designs' exact SDP kernel, and shared helpers.
    lorentz     The designs' block lifts as 4-variable Lorentz-cone programs.
    beamforming  Consensual SCA, evolved SDP, MMSE benchmark, alternating MIMO.
    siso        Closed-form CI region and CI angle for the single-antenna case.
    selection   Greedy and random tag selection.
    harness     Config parsing, benchmarks, sweep engine, CSV emission.
"""

from backci.channel import SystemParams, ChannelRealization, gen_channel_set
from backci.detection import DetectionStats, detection_stats
from backci.beamforming import (
    BeamformerSolution,
    consensual_sca,
    evolved_sdp,
    mmse_beamformer,
    alternating_mimo,
)
from backci.siso import CiRegion, snr_interval, ci_angle, theta_max_at_min_snr
from backci.selection import SelectionResult, greedy_select, random_select

__all__ = [
    "SystemParams",
    "ChannelRealization",
    "gen_channel_set",
    "DetectionStats",
    "detection_stats",
    "BeamformerSolution",
    "consensual_sca",
    "evolved_sdp",
    "mmse_beamformer",
    "alternating_mimo",
    "CiRegion",
    "snr_interval",
    "ci_angle",
    "theta_max_at_min_snr",
    "SelectionResult",
    "greedy_select",
    "random_select",
]

__version__ = "0.1.0"
