"""Model constants of the simulated platform and runtime.

The numeric values below are calibrated against the figures reported in the
paper for the NVIDIA DGX-1 testbed ("Gemini", Table I):

* V100-SXM2 FP64 peak of 7.8 TFlop/s per GPU (62.4 TFlop/s for 8 GPUs),
* NVLink-2 pair bandwidths measured in the paper's Fig. 2 (~96 GB/s for
  double links, ~48 GB/s for single links, ~17 GB/s over PCIe peer routes),
* x16 PCIe Gen3 host links at 16 GB/s shared by two GPUs per switch.

They are defaults, not hard-coded behaviour: every model object accepts
explicit parameters so tests and ablation benchmarks can build platforms with
different characteristics.  The module holds no switch: how one run behaves
(tracing included) is set per runtime, in
:class:`repro.runtime.api.RuntimeOptions`.
"""

from __future__ import annotations

# --- unit helpers -----------------------------------------------------------

GB = 1e9  #: bytes in a (decimal) gigabyte, matching GB/s link figures.
MB = 1e6

TFLOP = 1e12

# --- GPU compute model (NVIDIA V100-SXM2) ------------------------------------

#: FP64 peak of one V100-SXM2 in flop/s (paper §I).
V100_FP64_PEAK = 7.8 * TFLOP
#: Device memory per V100 on the DGX-1 of Table I (32 GB variant).
V100_MEMORY_BYTES = int(32 * GB)
#: Fixed launch latency charged per kernel, seconds.
KERNEL_LAUNCH_LATENCY = 5e-6

# --- link bandwidths (paper Fig. 2, GB/s -> bytes/s) --------------------------

#: Two bonded NVLink-2 lanes between a GPU pair (measured ~96.5 GB/s).
NVLINK2_DOUBLE_BW = 96.4 * GB
#: A single NVLink-2 lane between a GPU pair (measured ~48.4 GB/s).
NVLINK2_SINGLE_BW = 48.4 * GB
#: Effective GPU-to-GPU bandwidth across the PCIe fabric (measured ~17 GB/s).
PCIE_PEER_BW = 17.2 * GB
#: Host-to-device / device-to-host bandwidth of one x16 PCIe Gen3 link.
PCIE_HOST_BW = 16.0 * GB
#: Aggregate NVLink injection/ejection bandwidth of one V100 (6 bricks at
#: ~25 GB/s each, derated to the sustained figure).  Sizes the per-device
#: NVLink engines behind the paper's §IV-B observation that some GPUs take
#: longer to send/receive than others; per-device override via
#: :attr:`repro.topology.device.GpuSpec.nvlink_aggregate_bw`.
NVLINK_AGGREGATE_BW = 132 * GB
#: Local (intra-GPU) copy bandwidth, i.e. the diagonal of Fig. 2 (~750 GB/s
#: corresponds to device-memory copy throughput).
LOCAL_COPY_BW = 748.0 * GB
#: One-way latency charged per transfer, seconds.
LINK_LATENCY = 10e-6
#: Extra latency of host transfers (driver + DMA setup on PCIe).
PCIE_HOST_LATENCY = 15e-6

# --- runtime overheads --------------------------------------------------------

#: Cost charged on the host for creating one task (XKaapi is lightweight).
XKAAPI_TASK_OVERHEAD = 1.5e-6
#: StarPU per-task overhead (larger runtime, performance-model lookups).
STARPU_TASK_OVERHEAD = 9e-6
#: Scheduling decision cost charged when a worker pops/steals a task.
SCHEDULE_POP_OVERHEAD = 0.5e-6

# --- matrix / tiling defaults --------------------------------------------------

#: Default tile size used when none is specified.
DEFAULT_TILE_SIZE = 2048
#: Candidate tile sizes explored by the paper's methodology (§IV-A).
PAPER_TILE_SIZES = (1024, 2048, 4096)
#: Extended tile sizes used for cuBLAS-XT and SLATE in the paper.
PAPER_TILE_SIZES_EXTENDED = (1024, 2048, 4096, 8192, 16384)

# --- host model ----------------------------------------------------------------

#: Host main memory on the DGX-1 of Table I.
HOST_MEMORY_BYTES = int(512 * GB)
#: Host memcpy bandwidth (layout conversions for Chameleon-LAPACK happen here).
HOST_MEMCPY_BW = 12.0 * GB
