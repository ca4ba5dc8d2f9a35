"""Absolute event-stream digests of whole runs.

The values were refreshed once, in the re-baseline window that replaced the
Gumbel race of ``generate_libraries`` with successive sampling
(``docs/development.md``, rule 3). The small and the TTL-2 paper-scale pins
were first taken at commit 2c28c2c, the TTL-4 growing-library paper-scale
pin and the asymmetric pins at 73054c3. The static runs' digests did not
move: their event streams do not depend on who holds what, only their hit
counts do.

Every engine name shares ``GnutellaProtocol``, ``BootstrapServer``,
``QueryModel`` and the kernel, so the engine-vs-engine matrix
(``test_fastpath_digest.py``) cannot see a change to any of them: both sides
move together. These pins can. They cover the static scheme (``fill_random``
is its whole neighbour policy), the dynamic one, TTL 4 and growing libraries
at the digest-matrix scale on both fast engine names, the paper's population
on ``fast``, and the asymmetric engine.

The values change only inside a re-baseline window (a sampler or a draw
with a new stream), by the written procedure of ``docs/development.md``
rule 3, never as a side effect of a performance change.
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
        (679, 213, 0),
        id="static-ttl2",
    ),
    pytest.param(
        {"dynamic": True},
        "14cd5a385da290381e1cdb354cd9a458ac8ddb9d1a90fafc4c4b39f0d53ce8e5",
        (679, 238, 409),
        id="dynamic-ttl2",
    ),
    pytest.param(
        {"dynamic": False, "max_hops": 4, "seed": 21},
        "f071feeabe45dad225df2ffc4a9d653ebe509072531c91cec2cc72d683a62727",
        (814, 352, 0),
        id="static-ttl4",
    ),
    pytest.param(
        {"dynamic": True, "downloads_grow_libraries": True, "seed": 3},
        "9fe9d0b287a7cd36cba4dceee187525f5bddf47bf50f5aa93bf72ddc2a9102d5",
        (741, 232, 446),
        id="dynamic-growing-libraries",
    ),
]

PAPER_SCALE_PINS = [
    pytest.param(
        {"dynamic": False},
        "afc0eba4efda75fcb671dc8660705665ce40e8b6a4e73819a88c4988854e62cb",
        (3828, 478, 0),
        id="figure1-static-ttl2",
    ),
    pytest.param(
        {"dynamic": True},
        "ba50e83c9b4f61b0f938c3d902733df496838a9f07d10879c46c6d0fca765bf1",
        (3828, 468, 2103),
        id="figure2-dynamic-ttl2",
    ),
    pytest.param(
        {"dynamic": True, "downloads_grow_libraries": True, "max_hops": 4},
        "618aa57f5c51549bc4ea53eaf13bcac1a9c09685988b80fa96b331fbeff327c1",
        (3828, 1521, 1993),
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
        "8bad3300a1b94434cace45a102ae3ca846c18b77c57a9d3e9ed27dd6889dc075",
        (1197, 405, 749),
        id="dynamic",
    ),
    pytest.param(
        {"dynamic": True, "max_hops": 4, "downloads_grow_libraries": True, "seed": 3},
        "1ae519a47420b173b4c3df9dac6413cc6fed34759f621209a10ad7352eff7b42",
        (1249, 506, 804),
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
