"""REP006 fixture: metric naming and direct instrument construction."""

from repro.observability.metrics import Counter


def register(registry, kind):
    registry.counter("UpdatesTotal")
    registry.counter("updates.insertions")
    registry.histogram(f"scheme.{kind}.latency")
    registry.histogram(f"{kind}.latency")
    return Counter("updates.drops")
