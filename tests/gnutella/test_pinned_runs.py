"""Absolute event-stream digests of whole runs.

The small and the TTL-2 paper-scale pins were taken at commit 2c28c2c; the
TTL-4 growing-library paper-scale pin and the asymmetric pins at 73054c3,
while the object-per-peer state layout and the row-mode flood body still
existed, so their removal is checked against values they produced.

Every engine name shares ``GnutellaProtocol``, ``BootstrapServer``,
``QueryModel`` and the kernel, so the engine-vs-engine matrix
(``test_fastpath_digest.py``) cannot see a change to any of them: both sides
move together. These pins can. They cover the static scheme (``fill_random``
is its whole neighbour policy), the dynamic one, TTL 4 and growing libraries
at the digest-matrix scale on both fast engine names, the paper's population
on ``fast``, and the asymmetric engine.

The values change only inside the re-baseline window of ROADMAP item 3 (a
sampler or a draw with a new stream), by its written procedure, never as a
side effect of a performance change.
"""

import pytest

from repro.gnutella.asymmetric import AsymmetricFastEngine
from repro.lint.sanitize import attach_hasher, run_hashed
from tests.gnutella.test_asymmetric import small_config as asymmetric_config
from tests.gnutella.test_soa_digest import paper_scale_config, small_config

#: overrides, digest, queries, hits, reconfigurations
SMALL_PINS = [
    pytest.param(
        {"dynamic": False},
        "8bfd9b501675b5d89771503c6613fec4ef6166c72d3d6a1c13d27cf9e7d5c7ad",
        (679, 212, 0),
        id="static-ttl2",
    ),
    pytest.param(
        {"dynamic": True},
        "7682665fda666b598353d48dcaf2e4599b0ce85f79f7f0628fbaf8c904563b78",
        (679, 211, 415),
        id="dynamic-ttl2",
    ),
    pytest.param(
        {"dynamic": False, "max_hops": 4, "seed": 21},
        "f071feeabe45dad225df2ffc4a9d653ebe509072531c91cec2cc72d683a62727",
        (814, 357, 0),
        id="static-ttl4",
    ),
    pytest.param(
        {"dynamic": True, "downloads_grow_libraries": True, "seed": 3},
        "b456acbd4441d0f9ed3e06d34cf711255af2b3314ce90d3b40c6d1d46442c5c8",
        (741, 208, 458),
        id="dynamic-growing-libraries",
    ),
]

PAPER_SCALE_PINS = [
    pytest.param(
        {"dynamic": False},
        "afc0eba4efda75fcb671dc8660705665ce40e8b6a4e73819a88c4988854e62cb",
        (3828, 470, 0),
        id="figure1-static-ttl2",
    ),
    pytest.param(
        {"dynamic": True},
        "a8ac9a9adcd4c2946c001cf62ab7189b237ea51615c52b3bb032074dd2256027",
        (3828, 459, 2111),
        id="figure2-dynamic-ttl2",
    ),
    pytest.param(
        {"dynamic": True, "downloads_grow_libraries": True, "max_hops": 4},
        "6b639f519c0e420b832d4221d39a351ba8dd586781ae861574fbdd6ba45b5162",
        (3828, 1529, 2011),
        id="figure3-dynamic-ttl4-growing",
    ),
]

#: ``AsymmetricFastEngine`` over ``test_asymmetric.small_config``
ASYMMETRIC_PINS = [
    pytest.param(
        {"dynamic": False},
        "c12c4cd48cfca0c9b707e784f77e5d1fc825082f3446775b837b3217a830311e",
        (1197, 386, 0),
        id="static",
    ),
    pytest.param(
        {"dynamic": True},
        "8506c1a8b3251472c2512ed3559ebb54a98dc077e6d442ba37da2a298292d50f",
        (1197, 394, 761),
        id="dynamic",
    ),
    pytest.param(
        {"dynamic": True, "max_hops": 4, "downloads_grow_libraries": True, "seed": 3},
        "c0c52a79e77be39cb07ab0fede84b028e6648afd3364ce78e135577f810bda50",
        (1249, 515, 826),
        id="dynamic-ttl4-growing-libraries",
    ),
]


def counts(result):
    metrics = result.metrics
    return (metrics.total_queries, metrics.total_hits, metrics.reconfigurations)


@pytest.mark.parametrize("engine", ["fast", "fast-reference"])
@pytest.mark.parametrize(("overrides", "digest", "expected"), SMALL_PINS)
def test_small_runs_are_pinned(overrides, digest, expected, engine):
    result, got = run_hashed(small_config(**overrides), engine, sanitize=False)
    assert counts(result) == expected
    assert got == digest


@pytest.mark.parametrize(("overrides", "digest", "expected"), PAPER_SCALE_PINS)
def test_paper_population_runs_are_pinned(overrides, digest, expected):
    """2,000 peers, half a simulated hour."""
    result, got = run_hashed(paper_scale_config(**overrides), "fast", sanitize=False)
    assert counts(result) == expected
    assert got == digest


@pytest.mark.parametrize(("overrides", "digest", "expected"), ASYMMETRIC_PINS)
def test_asymmetric_runs_are_pinned(overrides, digest, expected):
    engine = AsymmetricFastEngine(asymmetric_config(**overrides))
    hasher = attach_hasher(engine.sim)
    metrics = engine.run()
    assert (metrics.total_queries, metrics.total_hits, metrics.reconfigurations) == expected
    assert hasher.hexdigest() == digest
