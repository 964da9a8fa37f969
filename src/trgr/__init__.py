"""Through-wall RF gait recognition sandbox.

Simulates a transmitter/receiver pair separated by a wall, with an optional
transmissive reconfigurable surface whose per-element 1-bit phase states are
tuned by a greedy line-flip search.  Walking subjects modulate the channel;
the resulting CSI magnitude frames feed a small residual CNN that learns to
tell subjects apart.
"""
__version__ = "0.1.0"
