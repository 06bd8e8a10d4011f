"""Device specifications.

Compute/memory characteristics of the simulated processors.  The GEMM
efficiency curve in :meth:`GpuSpec.kernel_time` is the heart of the perf-mode
compute model: it converts a kernel's flop count and tile size into a duration,
calibrated so a V100 reaches ~90% of FP64 peak on 2048-wide GEMM tiles (the
paper measures 91.2% of the 8-GPU aggregate peak at best).
"""

from __future__ import annotations

import dataclasses

from repro import config
from repro.errors import TopologyError


@dataclasses.dataclass(frozen=True, slots=True)
class GpuSpec:
    """A GPU model: peak rate, memory capacity and kernel-efficiency curve.

    Parameters
    ----------
    name:
        Marketing name, e.g. ``"V100-SXM2-32GB"``.
    fp64_peak:
        Peak FP64 rate in flop/s.  The paper measures FP64 only, so every
        kernel is timed against this rate.
    memory_bytes:
        Device memory capacity.
    launch_latency:
        Fixed overhead charged per kernel launch, seconds.
    half_efficiency_dim:
        Tile dimension at which a GEMM-like kernel reaches half of its
        asymptotic efficiency; smaller tiles are launch/occupancy bound.
    max_efficiency:
        Asymptotic fraction of peak achieved by large, regular kernels.
    """

    name: str = "V100-SXM2-32GB"
    fp64_peak: float = config.V100_FP64_PEAK
    memory_bytes: int = config.V100_MEMORY_BYTES
    launch_latency: float = config.KERNEL_LAUNCH_LATENCY
    # Calibrated so DGEMM reaches ~90% of peak at 2048-wide tiles and ~92.5%
    # at 4096 — the paper measures 91.2% of aggregate peak at best (§IV-D).
    half_efficiency_dim: int = 114
    max_efficiency: float = 0.95
    #: Aggregate NVLink injection/ejection bandwidth of the device (all
    #: bricks combined).  The fabric sizes its per-device NVLink engines from
    #: this, so heterogeneous platforms can mix devices with different NVLink
    #: generations/brick counts.
    nvlink_aggregate_bw: float = config.NVLINK_AGGREGATE_BW

    def __post_init__(self) -> None:
        if self.fp64_peak <= 0:
            raise TopologyError("GPU peak rate must be positive")
        if self.nvlink_aggregate_bw <= 0:
            raise TopologyError("NVLink aggregate bandwidth must be positive")
        if self.memory_bytes <= 0:
            raise TopologyError("GPU memory must be positive")
        if not 0 < self.max_efficiency <= 1:
            raise TopologyError("max_efficiency must be in (0, 1]")

    def efficiency(self, dim: int, regularity: float = 1.0) -> float:
        """Fraction of peak achieved by a kernel of characteristic size ``dim``.

        A saturating curve ``eff = max_eff * d / (d + d_half)`` — small tiles
        are dominated by launch overhead and poor occupancy, large tiles
        approach the asymptote.  ``regularity`` scales the asymptote for
        kernels that map less well to tensor hardware (TRSM's triangular
        solves reach a lower fraction of peak than GEMM).
        """
        if dim <= 0:
            return 0.0
        sat = dim / (dim + self.half_efficiency_dim)
        return self.max_efficiency * regularity * sat

    def kernel_time(self, flops: float, dim: int, regularity: float = 1.0) -> float:
        """Duration of a kernel performing ``flops`` with characteristic ``dim``."""
        if flops < 0:
            raise TopologyError(f"negative flop count: {flops}")
        if flops == 0:
            return self.launch_latency
        eff = self.efficiency(dim, regularity)
        if eff <= 0:
            # Degenerate 1-element kernels: pure launch latency.
            return self.launch_latency
        return self.launch_latency + flops / (self.fp64_peak * eff)


@dataclasses.dataclass(frozen=True, slots=True)
class CpuSpec:
    """A host CPU socket (Table I: 2× Xeon E5-2698 v4, 20 cores each)."""

    name: str = "Xeon E5-2698 v4"
    cores: int = 20
    fp64_peak_per_core: float = 35.2e9  # 2.2 GHz * 16 flops/cycle AVX2 FMA
    memory_bytes: int = config.HOST_MEMORY_BYTES // 2

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise TopologyError("CPU must have at least one core")

    @property
    def fp64_peak(self) -> float:
        return self.cores * self.fp64_peak_per_core


def characteristic_dim(m: int, n: int, k: int | None = None) -> int:
    """Geometric-mean dimension of a kernel, used for the efficiency curve."""
    dims = [d for d in (m, n, k) if d is not None]
    if not dims or any(d <= 0 for d in dims):
        return 0
    prod = 1.0
    for d in dims:
        prod *= float(d)
    return max(1, int(round(prod ** (1.0 / len(dims)))))
