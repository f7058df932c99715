"""Cluster entry points: N tenant nodes over one shared fleet.

:mod:`repro.runner` builds and runs every scenario — a cluster is its
hosts plus the fleet they share.  These names keep the cluster-flavoured
imports working; they import the runner on call because
:mod:`repro.runner` itself imports this package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..config import ClusterScenarioConfig
    from .results import ClusterResult

__all__ = ["run_cluster_scenario", "build_cluster_scenario"]


def build_cluster_scenario(cfg: "ClusterScenarioConfig", trace: bool = False):
    """Construct without running (white-box tests poke at the pieces)."""
    from ..runner import build_scenario

    return build_scenario(cfg, trace=trace)


def run_cluster_scenario(
    cfg: "ClusterScenarioConfig", trace: bool = False
) -> "ClusterResult":
    """Build and run one cluster scenario to completion."""
    from ..runner import run_scenario

    return run_scenario(cfg, trace=trace)
