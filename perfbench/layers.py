"""Which public functions the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules. Every wrapped function
yields ``<name>.calls``, ``<name>.s`` (outermost calls only, so
recursion is not counted twice) and ``<name>.self_s``. Observers count
outcomes at the same boundaries, for the ratios in :data:`DERIVED`.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Tuple

from tracing import Span, Target, summarize

#: (span name, ``module:Qual.name``) in layer order.
WRAPPED: Tuple[Tuple[str, str], ...] = (
    ("scan.scan_world", "repro.scan.banner:scan_world"),
    ("scan.shodan_search", "repro.scan.shodan:ShodanIndex.search"),
    ("scan.whatweb_identify", "repro.scan.whatweb:WhatWebEngine.identify"),
    ("net.dns_reverse", "repro.net.dns:DnsZone.reverse"),
    ("net.world_fetch", "repro.world.world:World.fetch"),
    ("geo.geodb_build", "repro.geo.maxmind:GeoDatabase.build_from_world"),
    ("geo.whois_build", "repro.geo.cymru:WhoisService.build_from_world"),
    ("core.locate", "repro.core.identify:IdentificationPipeline.locate"),
    ("core.validate", "repro.core.identify:IdentificationPipeline.validate"),
    ("core.confirm", "repro.core.confirm:ConfirmationStudy.run"),
    ("core.characterize", "repro.core.characterize:ContentCharacterization.run"),
    ("measure.test_url", "repro.measure.client:MeasurementClient.test_url"),
    (
        "measure.verdict_compare",
        "repro.measure.classifiers.fusion:VerdictEngine.compare",
    ),
    ("discover.index_build", "repro.discover.index:SearchIndex.build"),
    ("discover.index_query", "repro.discover.index:SearchIndex.query"),
    ("discover.engine_run", "repro.discover.crawler:DiscoveryEngine.run"),
    ("exec.write_snapshot", "repro.exec.checkpoint:write_snapshot"),
    ("exec.journal_append", "repro.exec.journal:JournalWriter.append"),
    ("os.fsync", "os:fsync"),
    ("store.commit", "repro.store.store:ResultsStore.commit"),
    ("store.stream_finalize", "repro.store.segments:EpochStream.finalize"),
    ("serve.handle", "repro.serve.api:StoreApi.handle"),
)

#: Metrics computed from observers, the workload or the load generator:
#: (name, unit, better).
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("scan.shodan.hit_query_frac", "ratio", "higher"),
    ("geo.cache_hit_frac", "ratio", "higher"),
    ("geo.asn_hit_frac", "ratio", "higher"),
    ("core.identify.precision", "ratio", "higher"),
    ("measure.insufficient_frac", "ratio", "lower"),
    ("discover.blocked_per_probe", "ratio", "higher"),
    ("discover.rounds", "count", "lower"),
    ("exec.snapshot_bytes", "bytes", "lower"),
    ("store.commit_p50_ms", "ms", "lower"),
    ("store.commit_p90_ms", "ms", "lower"),
    ("serve.cache_hit_frac", "ratio", "higher"),
    ("serve.not_modified_frac", "ratio", "higher"),
    ("serve.p99_ms", "ms", "lower"),
    ("serve.http_s", "s", "lower"),
    ("serve.gen_late_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    found: List[Tuple[str, str, str]] = []
    for name, _path in WRAPPED:
        found.append((f"{name}.calls", "count", "lower"))
        found.append((f"{name}.s", "s", "lower"))
        found.append((f"{name}.self_s", "s", "lower"))
    found.extend(DERIVED)
    return found


class Observers:
    """Outcome counters filled in while a traced pass runs."""

    def __init__(self) -> None:
        self.search_hits = 0
        self.insufficient = 0
        self.snapshot_bytes = 0

    def _search(self, args: tuple, result) -> None:
        if result:
            self.search_hits += 1

    def _test_url(self, args: tuple, result) -> None:
        if result.insufficient:
            self.insufficient += 1

    def _snapshot(self, args: tuple, result) -> None:
        self.snapshot_bytes += os.path.getsize(result)

    def targets(self) -> List[Target]:
        observe = {
            "scan.shodan_search": self._search,
            "measure.test_url": self._test_url,
            "exec.write_snapshot": self._snapshot,
        }
        return [Target(name, path, observe.get(name)) for name, path in WRAPPED]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def nearest_rank(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` of
    the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def layer_values(spans: List[Span], observers: Observers) -> Dict[str, float]:
    """The span-derived and observer-derived metrics of one traced pass."""
    totals = summarize(spans)
    values: Dict[str, float] = {}
    for name, _path in WRAPPED:
        entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.s"] = entry["s"]
        values[f"{name}.self_s"] = entry["self_s"]
    values["scan.shodan.hit_query_frac"] = ratio(
        observers.search_hits, values["scan.shodan_search.calls"]
    )
    values["measure.insufficient_frac"] = ratio(
        observers.insufficient, values["measure.test_url.calls"]
    )
    values["exec.snapshot_bytes"] = observers.snapshot_bytes
    commits = [s.duration * 1000.0 for s in spans if s.name == "store.commit"]
    values["store.commit_p50_ms"] = nearest_rank(commits, 0.5) if commits else 0.0
    values["store.commit_p90_ms"] = nearest_rank(commits, 0.9) if commits else 0.0
    return values
