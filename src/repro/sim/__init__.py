"""Simulation substrate: DES kernel, nodes, radio, energy, deployment.

This package replaces the paper's ns-2 testbed (see DESIGN.md, substitution
table).  The public surface is re-exported here.
"""

from .energy import EnergyModel
from .faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    random_crash_plan,
)
from .kernel import AllOf, Environment, Event, Interrupt, Process, Timeout
from .network import (
    DeploymentConfig,
    Network,
    deploy_clustered,
    deploy_grid,
    deploy_uniform,
)
from .node import BASE_STATION_ID, SensorNode
from .radio import Channel, PacketFormat
from .replay import replay_collection_phase, replay_dissemination_phase
from .stats import NodeLoad, TransmissionStats
from .trace import ListTracer, NullTracer, TraceEvent, Tracer

__all__ = [
    "AllOf",
    "BASE_STATION_ID",
    "Channel",
    "DeploymentConfig",
    "EnergyModel",
    "Environment",
    "Event",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "Interrupt",
    "ListTracer",
    "Network",
    "NodeLoad",
    "NullTracer",
    "PacketFormat",
    "Process",
    "SensorNode",
    "Timeout",
    "TraceEvent",
    "Tracer",
    "TransmissionStats",
    "deploy_clustered",
    "deploy_grid",
    "deploy_uniform",
    "random_crash_plan",
    "replay_collection_phase",
    "replay_dissemination_phase",
]
