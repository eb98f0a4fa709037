"""Rack-level hierarchical power capping over CapGPU servers (extension).

See DESIGN.md: this layer implements the oversubscription context the paper
motivates (Dynamo-style budget reallocation), with CapGPU as the per-server
enforcement mechanism. The allocators here are the budget policies; a rack
of servers under one of them is a :class:`repro.fleet.FleetSimulation`.
"""

from .allocator import (
    BudgetAllocator,
    FairShareAllocator,
    PriorityAllocator,
    ProportionalDemandAllocator,
    ServerPowerState,
)

__all__ = [
    "ServerPowerState",
    "BudgetAllocator",
    "FairShareAllocator",
    "ProportionalDemandAllocator",
    "PriorityAllocator",
]
