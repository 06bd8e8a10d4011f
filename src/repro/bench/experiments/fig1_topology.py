"""Fig. 1 — the hybrid cube-mesh topology of the DGX-1.

The paper's first figure is a wiring diagram: 8 GPUs connected by NVLink in a
hybrid cube-mesh, pairs of GPUs behind shared PCIe switches, two CPU sockets.
This experiment renders the modelled wiring as ASCII and verifies it is the
cube-mesh: two 4-GPU rings (0-3 and 4-7) cross-linked so that every GPU has
exactly two double-NVLink and two single-NVLink peers, one of them across the
boards, and every pair is reachable in at most one NVLink hop.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.topology.dgx1 import make_dgx1
from repro.topology.link import LinkKind
from repro.topology.platform import Platform, hop_distances


def ascii_wiring(plat: Platform) -> list[str]:
    """Fig. 1 as text: adjacency with link classes and switch groups."""
    lines = []
    lines.append("CPU0 ── PCIe switch (g0,g1) ── PCIe switch (g2,g3)")
    lines.append("CPU1 ── PCIe switch (g4,g5) ── PCIe switch (g6,g7)")
    lines.append("")
    lines.append("NVLink cube-mesh (== double 96 GB/s, -- single 48 GB/s):")
    for dev in plat.device_ids():
        doubles = [
            o for o in plat.device_ids()
            if o != dev and plat.link(dev, o).kind is LinkKind.NVLINK_DOUBLE
        ]
        singles = [
            o for o in plat.device_ids()
            if o != dev and plat.link(dev, o).kind is LinkKind.NVLINK_SINGLE
        ]
        lines.append(
            f"  gpu{dev}: =={','.join(f'g{d}' for d in doubles)}  "
            f"--{','.join(f'g{d}' for d in singles)}"
        )
    return lines


def run(platform: Platform | None = None, fast: bool = False) -> ExperimentResult:
    plat = platform if platform is not None else make_dgx1(8)
    rows = []
    for dev in plat.device_ids():
        doubles = sorted(
            o for o in plat.device_ids()
            if o != dev and plat.link(dev, o).kind is LinkKind.NVLINK_DOUBLE
        )
        singles = sorted(
            o for o in plat.device_ids()
            if o != dev and plat.link(dev, o).kind is LinkKind.NVLINK_SINGLE
        )
        rows.append(
            [dev, " ".join(map(str, doubles)), " ".join(map(str, singles)),
             plat.host_switch_of(dev)]
        )
    # Structural checks of the hybrid cube-mesh.
    per_gpu_ok = all(len(r[1].split()) == 2 and len(r[2].split()) == 2 for r in rows)
    # Cross-board links: every GPU has exactly one NVLink to the other board
    # (double for GPUs 0,1,4,5; single for 2,3,6,7 — the cube's vertical edges).
    cross = all(
        sum(
            1
            for o in map(int, (rows[d][1] + " " + rows[d][2]).split())
            if (o >= 4) != (d >= 4)
        )
        == 1
        for d in range(plat.num_gpus)
    )
    hops = [plat.nvlink_hops(i, j) for i in plat.device_ids() for j in plat.device_ids()]
    one_hop = all(h is not None and h <= 1 for h in hops)
    rings = _board_rings_connected(plat)
    inventory = plat.link_inventory()
    checks = {
        "every GPU: exactly 2 double + 2 single NVLink peers": per_gpu_ok,
        "exactly one cross-board NVLink per GPU": cross,
        "any pair reachable in <= 1 NVLink hop (§II-B)": one_hop,
        "each board's 4 GPUs form a connected NVLink mesh": rings,
        "16 directed double + 16 single links": (
            inventory.get(LinkKind.NVLINK_DOUBLE, 0) == 16
            and inventory.get(LinkKind.NVLINK_SINGLE, 0) == 16
        ),
    }
    return ExperimentResult(
        experiment="Fig. 1",
        title="Hybrid cube-mesh topology between GPUs and CPUs on the DGX-1",
        columns=["gpu", "2x NVLink peers", "1x NVLink peers", "PCIe switch"],
        rows=rows,
        notes=ascii_wiring(plat),
        checks=checks,
    )


def _board_rings_connected(plat: Platform) -> bool:
    for board in (range(0, 4), range(4, 8)):
        # Undirected: a link counts for both ends, read once per pair.
        adjacency: dict[int, list[int]] = {i: [] for i in board}
        for i in board:
            for j in board:
                if i < j and plat.link(i, j).kind.is_nvlink:
                    adjacency[i].append(j)
                    adjacency[j].append(i)
        if len(hop_distances(adjacency, board[0])) != len(board):
            return False
    return True


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
