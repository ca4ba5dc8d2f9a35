"""Benefit functions.

Section 3.4: "The benefit function should capture the general goals and
characteristics of the system" — retrieved pages + latency for web caching,
file sizes/bandwidth for multimedia sharing, query processing time for
PeerOlap. Section 4.1(i) defines the case-study function precisely: each
obtained result credits its responder ``B / R``, where ``B`` is the bandwidth
of the answering link and ``R`` the total number of results for that query.

All functions map a :class:`ResultObservation` to a non-negative score; the
engines fold scores into :class:`~repro.core.statistics.StatsTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import FrameworkError
from repro.types import NodeId

__all__ = [
    "BandwidthShareBenefit",
    "BenefitFunction",
    "HitCountBenefit",
    "LatencyBenefit",
    "ProcessingTimeBenefit",
    "ResultObservation",
]


@dataclass(frozen=True, slots=True)
class ResultObservation:
    """Everything a node learns from one returned result.

    Attributes
    ----------
    initiator / responder:
        Query endpoints.
    link_kbps:
        Effective bandwidth of the answering link (min of the endpoints).
    n_results:
        Size of the full result list of the query this result belongs to
        ("the larger the results list, the lesser its significance").
    delay:
        Round-trip seconds until this result arrived.
    hops:
        Distance of the responder along the discovery path.
    size:
        Size of the returned object (pages/files), for size-aware functions.
    processing_time:
        Server-side cost of producing the result (OLAP), in seconds.
    """

    initiator: NodeId
    responder: NodeId
    link_kbps: float
    n_results: int
    delay: float
    hops: int = 1
    size: float = 1.0
    processing_time: float = 0.0


@runtime_checkable
class BenefitFunction(Protocol):
    """Maps one result observation to a non-negative benefit score."""

    def __call__(self, obs: ResultObservation) -> float:
        """Score ``obs``; larger means a more desirable neighbor."""
        ...


class BandwidthShareBenefit:
    """The paper's case-study function: ``B / R`` (Section 4.1(i)).

    High-bandwidth responders are preferred, and a result that arrived in a
    large batch counts for less than a scarce one.
    """

    def __call__(self, obs: ResultObservation) -> float:
        if obs.n_results <= 0:
            raise FrameworkError(
                f"observation with n_results={obs.n_results}; a result implies >= 1"
            )
        return obs.link_kbps / obs.n_results


class HitCountBenefit:
    """One point per result, regardless of provenance.

    The simplest possible ledger; the benefit ablation
    (``tests/experiments/test_ablations.py``) compares it against
    ``B / R`` to show why the paper weighs results.
    """

    def __call__(self, obs: ResultObservation) -> float:
        return 1.0


class LatencyBenefit:
    """Pages-over-latency, the web-caching candidate of Section 3.4.

    "the number of retrieved pages, combined with the end-to-end latency, is
    a good candidate for benefit, since page size plays little role."
    """

    def __init__(self, epsilon: float = 1e-3) -> None:
        if epsilon <= 0:
            raise FrameworkError("epsilon must be positive")
        self.epsilon = epsilon

    def __call__(self, obs: ResultObservation) -> float:
        return 1.0 / (obs.delay + self.epsilon)


class ProcessingTimeBenefit:
    """Saved query-processing time, the PeerOlap candidate of Section 3.4.

    A cached chunk that would have been expensive to recompute at the
    warehouse is worth its processing time (net of the delay paid to fetch
    it, floored at zero).
    """

    def __call__(self, obs: ResultObservation) -> float:
        return max(obs.processing_time - obs.delay, 0.0)
