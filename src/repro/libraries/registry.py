"""Library registry used by the benchmark harness."""

from __future__ import annotations

from repro.errors import LibraryError
from repro.libraries.base import SimulatedLibrary
from repro.libraries.blasx import Blasx
from repro.libraries.chameleon import ChameleonLapack, ChameleonTile
from repro.libraries.cublasmg import CublasMg
from repro.libraries.cublasxt import CublasXt
from repro.libraries.dplasma import Dplasma
from repro.libraries.slate import Slate
from repro.libraries.xkblas import XkBlas, XkBlasNoHeuristic, XkBlasNoTopo
from repro.topology.platform import Platform

#: Every library of the paper's Fig. 5 plus the XKBLAS ablation variants.
LIBRARIES: dict[str, type[SimulatedLibrary]] = {
    "xkblas": XkBlas,
    "xkblas-no-heuristic": XkBlasNoHeuristic,
    "xkblas-no-heuristic-no-topo": XkBlasNoTopo,
    "cublas-xt": CublasXt,
    "cublas-mg": CublasMg,
    "blasx": Blasx,
    "chameleon-tile": ChameleonTile,
    "chameleon-lapack": ChameleonLapack,
    "slate": Slate,
    "dplasma": Dplasma,
}

#: The three configurations of the paper's Fig. 3 ablation.
XKBLAS_VARIANTS = ("xkblas", "xkblas-no-heuristic", "xkblas-no-heuristic-no-topo")

#: The eight curves of the paper's Fig. 5.
FIG5_LIBRARIES = (
    "blasx",
    "chameleon-lapack",
    "chameleon-tile",
    "cublas-mg",
    "cublas-xt",
    "dplasma",
    "slate",
    "xkblas",
)


def make_library(key: str, platform: Platform) -> SimulatedLibrary:
    """Instantiate a registered library over ``platform``."""
    try:
        cls = LIBRARIES[key]
    except KeyError:
        raise LibraryError(
            f"unknown library {key!r}; choose from {sorted(LIBRARIES)}"
        ) from None
    return cls(platform)
