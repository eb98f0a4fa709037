"""Opt-in relaxed-semantics fast engine.

Everything under ``repro.fast`` is allowed to change float semantics —
fused/batched reductions across servers, MPC factorization reuse across
servers and ticks, pre-solved cap-projection caches, and shared-memory
parallel fleet stepping. The reference engine stays untouched as ground
truth; ``repro.equiv`` verifies the fast engine against it with explicit
statistical tolerances (distributions of power error, cap violations and
settle times), never with digests.

Opt in per process with ``REPRO_ENGINE=fast`` / ``--engine fast`` or
programmatically with :func:`set_engine`; the switch itself lives at the
kernel layer in :mod:`repro.enginemode` (re-exported here) so the engine
layer can consult it without an upward import.

This package is *sanctioned* for the REP2xx float-semantics lint rules
(see ``LintConfig.sanctioned_rules``): unordered reductions are its whole
point, and the sanction mechanism keeps that legal here without blanket
suppressions or weakening the rules anywhere else.
"""

from __future__ import annotations

from typing import Any

from ..enginemode import ENGINES, engine_name, fast_enabled, fast_engine, set_engine

__all__ = [
    "ENGINES",
    "engine_name",
    "fast_enabled",
    "fast_engine",
    "set_engine",
    "FastMimoPowerMpc",
    "FastFleetBackend",
    "ParallelFleetBackend",
]

# Heavy submodules load lazily: ``repro.fast`` must stay importable
# from the CLI without dragging in scipy/the fleet.
_LAZY = {
    "FastMimoPowerMpc": ("repro.fast.mpc", "FastMimoPowerMpc"),
    "FastFleetBackend": ("repro.fast.fleet", "FastFleetBackend"),
    "ParallelFleetBackend": ("repro.fast.parallel", "ParallelFleetBackend"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
