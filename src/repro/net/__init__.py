"""Network model substrate.

Implements the Section 4.2 connectivity model: each user is attached through
one of three access classes (56K modem / cable modem / LAN), and the one-way
delay between two users is a truncated Gaussian whose mean is governed by the
*slower* endpoint (300 ms / 150 ms / 70 ms, sigma = 20 ms).

Also provides generic message types and a transport that delivers messages
over the :mod:`repro.sim` kernel. The Section 3.1 consistency predicate lives
in :mod:`repro.core.consistency`.
"""

from repro.net.bandwidth import BandwidthClass, BandwidthModel
from repro.net.latency import DelayParameters, LatencyModel
from repro.net.message import Message, MessageKind
from repro.net.transport import Transport

__all__ = [
    "BandwidthClass",
    "BandwidthModel",
    "DelayParameters",
    "LatencyModel",
    "Message",
    "MessageKind",
    "Transport",
]
