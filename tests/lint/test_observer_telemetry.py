"""R006 and the telemetry plane: sink writes are the observer's job.

Telemetry callbacks exist to write into registries, rolling windows, and
access loggers — observer-owned sinks, not engine state. The purity rule
must keep flagging engine mutation (including mutation reached *through* a
sink handle) while accepting sink writes, so the live-telemetry modules
stay baseline-clean with zero suppressions.
"""

from repro.lint.engine import lint_source
from repro.lint.program import TELEMETRY_SINK_NAMES


def codes(source: str, **kwargs) -> list[tuple[str, int]]:
    """(code, line) pairs reported for ``source``."""
    result = lint_source(source, **kwargs)
    return [(f.code, f.line) for f in result.findings]


PREAMBLE = "from repro.sim.events import mark_observer\n"


def test_sink_names_cover_the_telemetry_plane():
    assert {"registry", "tracer", "rolling", "access_log", "logger"} <= (
        TELEMETRY_SINK_NAMES
    )


def test_sink_parameter_writes_are_not_flagged():
    src = PREAMBLE + (
        "@mark_observer\n"
        "def export(registry, rolling, access_log):\n"
        "    registry.counts = {}\n"
        "    rolling.last = 1.0\n"
        "    access_log.written = 0\n"
    )
    assert codes(src) == []


def test_sink_mutating_calls_are_not_flagged():
    src = PREAMBLE + (
        "@mark_observer\n"
        "def export(engine, registry, rolling):\n"
        "    registry.counter('queries').inc()\n"
        "    rolling.observe(1.0, 0.2, ok=True)\n"
    )
    assert codes(src) == []


def test_engine_parameter_writes_are_still_flagged():
    src = PREAMBLE + (
        "@mark_observer\n"
        "def probe(engine, registry):\n"
        "    engine.pending = []\n"
    )
    assert codes(src) == [("R006", 4)]


def test_sink_free_variable_closure_is_clean():
    src = PREAMBLE + (
        "@mark_observer\n"
        "def export():\n"
        "    registry.scrapes = 1\n"
    )
    assert codes(src) == []


def test_engine_state_reached_through_a_sink_is_still_flagged():
    # A chain that walks from the sink back into engine state is engine
    # mutation no matter what the root is called.
    src = PREAMBLE + (
        "@mark_observer\n"
        "def sneaky(registry):\n"
        "    registry.engine.peers = []\n"
    )
    assert codes(src) == [("R006", 4)]


def test_non_sink_parameter_is_still_conservatively_engine():
    src = PREAMBLE + (
        "@mark_observer\n"
        "def probe(world):\n"
        "    world.items = []\n"
    )
    assert codes(src) == [("R006", 4)]

