"""The four workloads: what each sets up, runs and checks.

Every workload runs with ``workers=1`` and link latency 0, so its time is
CPU work, not injected sleeps. ``setup`` builds what a pass needs
(timed as set-up); ``run`` does one measured pass and returns a
:class:`Pass` with the output digest the run compares against other
passes and against the pinned default-seed digest. Times come in pairs:
wall seconds (``time.perf_counter``) and CPU seconds of this process
(``time.process_time``, all threads).

``serve`` is driven by :mod:`serve_load`; it does not fit the
setup/pass loop because its load is paced by a schedule, not by passes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from layers import ratio

from repro import FullStudy, build_scenario
from repro.analysis.paper_data import PAPER_TABLE3
from repro.core.pipeline import StudyReport, config_for_row
from repro.discover import DiscoveryEngine, static_baseline
from repro.monitor import MonitorConfig, MonitorService, MonitorTarget
from repro.store import ResultsStore


@dataclass
class Context:
    """What every workload gets: its seed, spec section and scratch space."""

    seed: int
    default_seed: int
    spec: Dict[str, Any]
    work_dir: Path
    _dirs: int = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work_dir / f"pass-{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclass
class Pass:
    """One measured pass of a workload."""

    digest: str
    attempted: int
    failed: int
    #: Operation latencies in seconds; empty when the whole pass is the
    #: operation and its wall time is the latency.
    latencies: List[float]
    #: CPU seconds of each operation in ``latencies`` (empty with it).
    cpu_times: List[float]
    #: Operations completed, for the workload's rate.
    operations: int
    problems: List[str] = field(default_factory=list)
    #: Layer metrics only the workload can read (cache counters, ...).
    layer: Dict[str, float] = field(default_factory=dict)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Study:
    """The full default campaign, journaled and committed to a fresh store."""

    name = "study"
    #: Two passes fit in a 30 s run; a faster machine gets three.
    min_passes = 2

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> Tuple[FullStudy, Path]:
        directory = self.ctx.fresh_dir()
        study = FullStudy(
            build_scenario(seed=self.ctx.seed), workers=1, link_latency=0.0
        )
        return study, directory

    def run(self, state: Tuple[FullStudy, Path]) -> Pass:
        study, directory = state
        report = study.run_journaled(directory / "journal")
        commit = study.commit_epoch(ResultsStore(directory / "store"), report)
        units = len(study.plan())
        problems: List[str] = []
        if not isinstance(report, StudyReport):
            problems.append(f"study returned {type(report).__name__}")
        elif self.ctx.seed == self.ctx.default_seed:
            published = sorted(
                {(row.product, row.isp_key) for row in PAPER_TABLE3 if row.confirmed}
            )
            if report.confirmed_pairs() != published:
                problems.append(
                    f"confirmed pairs {report.confirmed_pairs()} != "
                    f"published Table 3 pairs {published}"
                )
        identification = report.identification
        geo, asn = study.caches.geo.stats, study.caches.asn.stats
        return Pass(
            digest=commit.epoch_id,
            attempted=units,
            failed=0,
            latencies=[],  # the pass is the operation
            cpu_times=[],
            operations=units,
            problems=problems,
            layer={
                "geo.cache_hit_frac": ratio(geo.hits, geo.lookups),
                "geo.asn_hit_frac": ratio(asn.hits, asn.lookups),
                "core.identify.precision": ratio(
                    len(identification.installations),
                    len(identification.candidates),
                ),
            },
        )

    def teardown(self, state: Tuple[FullStudy, Path]) -> None:
        shutil.rmtree(state[1], ignore_errors=True)


class Monitor:
    """MonitorService over all ten Table 3 targets, snapshot every round."""

    name = "monitor"
    min_passes = 3

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rounds = int(ctx.spec["rounds"])

    def setup(self) -> Tuple[MonitorService, Path, List[Tuple[float, float]]]:
        directory = self.ctx.fresh_dir()
        #: (wall, CPU) clock readings as each round starts.
        round_starts: List[Tuple[float, float]] = []
        seed = self.ctx.seed
        service = MonitorService(
            directory / "monitor",
            directory / "store",
            scenario_factory=lambda: build_scenario(seed=seed),
            targets=[MonitorTarget(config_for_row(row)) for row in PAPER_TABLE3],
            config=MonitorConfig(checkpoint_every=1),
            before_round=lambda *_: round_starts.append(
                (time.perf_counter(), time.process_time())
            ),
        )
        service.scenario  # built here, so set-up carries it
        return service, directory, round_starts

    def run(
        self, state: Tuple[MonitorService, Path, List[Tuple[float, float]]]
    ) -> Pass:
        service, _directory, round_starts = state
        summary = service.run(self.rounds)
        bounds = round_starts + [(time.perf_counter(), time.process_time())]
        latencies = [b[0] - a[0] for a, b in zip(bounds, bounds[1:])]
        cpu_times = [b[1] - a[1] for a, b in zip(bounds, bounds[1:])]
        problems: List[str] = []
        if len(service.timeline) != self.rounds:
            problems.append(
                f"timeline has {len(service.timeline)} rounds, "
                f"expected {self.rounds}"
            )
        if summary.buffered or summary.quarantined:
            problems.append("monitor degraded: " + "; ".join(summary.describe()))
        timeline = json.dumps(service.timeline, sort_keys=True)
        return Pass(
            digest=sha256_text(timeline),
            attempted=summary.rounds_this_run,
            failed=summary.gaps,
            latencies=latencies,
            cpu_times=cpu_times,
            operations=summary.committed,
            problems=problems,
        )

    def teardown(
        self, state: Tuple[MonitorService, Path, List[Tuple[float, float]]]
    ) -> None:
        shutil.rmtree(state[1], ignore_errors=True)


class Discover:
    """A converged discovery crawl from each censored vantage."""

    name = "discover"
    min_passes = 3

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.vantages = list(ctx.spec["vantages"])
        self.seed_urls = int(ctx.spec["seed_urls_per_vantage"])

    def setup(self):
        scenario = build_scenario(seed=self.ctx.seed)
        seeds = {
            isp: static_baseline(scenario.world, isp)[: self.seed_urls]
            for isp in self.vantages
        }
        return scenario, seeds

    def run(self, state) -> Pass:
        scenario, seeds = state
        problems: List[str] = []
        listing: List[str] = []
        probes = insufficient = blocked = rounds = 0
        for isp in self.vantages:
            if not seeds[isp]:
                problems.append(f"static lists found no blocked seed URL at {isp}")
                continue
            result = DiscoveryEngine(scenario.world, isp).run(seeds[isp])
            if not result.converged:
                problems.append(f"discovery at {isp} did not converge")
            listing.append(f"[{isp}]\n{result.discovered_list_text()}")
            probes += len(result.candidates)
            insufficient += result.insufficient_count
            blocked += len(result.blocked_urls)
            rounds += len(result.rounds)
        return Pass(
            digest=sha256_text("\n".join(listing)),
            attempted=probes,
            failed=insufficient,
            latencies=[],  # the pass is the operation
            cpu_times=[],
            operations=probes,
            problems=problems,
            layer={
                "discover.blocked_per_probe": ratio(blocked, probes),
                "discover.rounds": float(rounds),
            },
        )

    def teardown(self, state) -> None:
        pass


PASS_WORKLOADS = {cls.name: cls for cls in (Study, Monitor, Discover)}
