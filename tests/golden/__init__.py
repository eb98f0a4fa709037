"""Golden-digest ledger: the pinned reference semantics of the simulator."""
