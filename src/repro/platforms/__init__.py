"""Platform simulations: Hyperledger Fabric, Corda, and Quorum."""

from repro.platforms.base import (
    Party,
    Platform,
    ProbeResult,
    SupportLevel,
)
from repro.platforms.corda import CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork

#: Every simulated platform, by the name the CLI and the driver use.
PLATFORMS = {
    "fabric": FabricNetwork,
    "corda": CordaNetwork,
    "quorum": QuorumNetwork,
}

__all__ = [
    "PLATFORMS",
    "Party",
    "Platform",
    "ProbeResult",
    "SupportLevel",
    "CordaNetwork",
    "FabricNetwork",
    "QuorumNetwork",
]
