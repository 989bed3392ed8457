"""Uplink radio resource management for cell-free massive MIMO serving UAVs:
channel simulation, association heuristics, max-min power control, and a
Monte Carlo benchmark harness."""

__version__ = "0.1.0"
