"""The ``serve`` workload: open-loop HTTP load on ``python -m repro serve``.

The store holds a few narrowed-campaign epochs (one product each, small
population, partial Shodan coverage), so set-up stays short. The
request universe is every endpoint those epochs answer with 200 --
more keys than the server's 128-entry response LRU. Requests draw keys
Zipf-like from a seeded shuffle, and a share of them revalidate with
``If-None-Match`` (answered 304).

Every response is checked against :class:`repro.serve.api.StoreApi`
answering the same target in this process over the same store.

The server's CPU time is read through its Linux per-process CPU clock,
which, like ``time.process_time``, leaves out time the hypervisor gave
to other machines.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import reference
from loadgen import Request, Sample, run_open_loop
from workloads import Context, sha256_text

from repro import FullStudy, ScenarioConfig, build_scenario
from repro.query import TABLE_NAMES
from repro.serve.api import StoreApi
from repro.store import ResultsStore

HOST = "127.0.0.1"


@dataclass
class Server:
    process: subprocess.Popen
    port: int

    def cpu_seconds(self) -> float:
        """CPU seconds the server has used, all its threads together."""
        # The kernel's clock id for another process's CPU time:
        # MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
        return time.clock_gettime((~self.process.pid << 3) | 2)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started in the background may
        # inherit an ignored SIGINT. The server only reads, so it needs
        # no clean shutdown.
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def populate_store(ctx: Context, directory: Path) -> ResultsStore:
    """Commit one narrowed campaign per product in the spec.

    The campaigns use the default seed whatever ``--seed`` is: the seed
    draws the request mix, and one fixed store keeps the rendered pages
    (and so the cost of a cache miss) the same across seeds.
    """
    store = ResultsStore(directory)
    population = ScenarioConfig(population_size=int(ctx.spec["population"]))
    for product in ctx.spec["products"]:
        study = FullStudy(
            build_scenario(seed=ctx.default_seed, config=population),
            products=[product],
            shodan_coverage=float(ctx.spec["shodan_coverage"]),
        )
        study.commit_epoch(store, study.run())
    return store


def start_server(store_dir: Path, src_dir: Path, cache_size: int) -> Server:
    """Start ``python -m repro serve`` on an ephemeral port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    process = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--store",
            str(store_dir),
            "--host",
            HOST,
            "--port",
            "0",
            "--cache-size",
            str(cache_size),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        line = process.stdout.readline() if process.stdout else ""
        try:
            port = int(line.rsplit(":", 1)[1].split()[0])
        except (IndexError, ValueError):
            raise RuntimeError(f"server did not report its port: {line!r}")
    except BaseException:
        Server(process, 0).stop()
        raise
    return Server(process, port)


def request_universe(api: StoreApi) -> List[str]:
    """Every target the store answers with 200, in a fixed order."""
    store = api.store
    ids = [epoch_id[:12] for epoch_id in store.epoch_ids()]
    targets = ["/healthz", "/epochs", "/diff"]
    for per_page in (1, 2):
        for page in range(1, len(ids) // per_page + 1):
            targets.append(f"/epochs?page={page}&per_page={per_page}")
    targets += [f"/diff?old={a}&new={b}" for a in ids for b in ids if a != b]
    for short, epoch_id in zip(ids, store.epoch_ids()):
        manifest = store.manifest(epoch_id)
        base = f"/epochs/{short}"
        targets.append(base)
        targets += [f"{base}/tables/{name}" for name in TABLE_NAMES]
        for dimension, route in (("country", "countries"), ("product", "products")):
            for value in manifest.keys.get(dimension, ()):
                targets.append(f"{base}/{route}/{urllib.parse.quote(value)}")
        for kind, segment in manifest.segments.items():
            for per_page in (5, 20):
                pages = -(-segment.count // per_page)
                for page in range(1, pages + 1):
                    targets.append(
                        f"{base}/records/{kind}?page={page}&per_page={per_page}"
                    )
            for dimension in ("isp", "category"):
                for value in manifest.keys.get(dimension, ()):
                    query = urllib.parse.urlencode({dimension: value})
                    targets.append(f"{base}/records/{kind}?{query}")
    return [target for target in targets if api.handle(target).status == 200]


def request_mix(
    ranked: List[str],
    etags: Dict[str, str],
    count: int,
    rng: random.Random,
    *,
    zipf_s: float,
    revalidate_share: float,
) -> List[Request]:
    """``count`` requests: key of rank r drawn with weight 1/r**zipf_s,
    a ``revalidate_share`` of them sent with the key's ETag."""
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(ranked))]
    keys = rng.choices(ranked, weights=weights, k=count)
    return [
        (key, etags[key] if rng.random() < revalidate_share else None)
        for key in keys
    ]


@dataclass
class Checked:
    """Load samples plus what the response check found."""

    samples: List[Sample]
    t0: float
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return max(s.done for s in self.samples) - self.t0


def check_responses(
    requests: List[Request],
    samples: List[Sample],
    expected: Dict[str, bytes],
    t0: float,
) -> Checked:
    checked = Checked(samples, t0)
    for (target, etag), sample in zip(requests, samples):
        if sample.status not in (200, 304):
            checked.failed += 1
            continue
        want_status = 200 if etag is None else 304
        if sample.status != want_status or (
            sample.status == 200 and sample.body != expected[target]
        ):
            checked.problems.append(
                f"{target}: got {sample.status}, expected {want_status} "
                "with the in-process body"
            )
    return checked


class ServeBench:
    """Set-up, verification and load phases of the ``serve`` workload."""

    def __init__(self, ctx: Context, src_dir: Path) -> None:
        self.ctx = ctx
        self.src_dir = src_dir
        self.spec = ctx.spec
        self.server: Optional[Server] = None
        self.store_dir: Optional[Path] = None

    # ------------------------------------------------------------- set-up
    def setup(self) -> float:
        """Populate a fresh store and start a server; return the CPU
        seconds this took, this process's and the server's together."""
        self.teardown()
        started = time.process_time()
        self.store_dir = self.ctx.fresh_dir() / "store"
        populate_store(self.ctx, self.store_dir)
        self.server = start_server(
            self.store_dir, self.src_dir, int(self.spec["cache_size"])
        )
        _t0, (health,) = run_open_loop(
            HOST, self.server.port, [("/healthz", None)], 1.0
        )
        if health.status != 200:
            raise RuntimeError(f"server health check answered {health.status}")
        return time.process_time() - started + self.server.cpu_seconds()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir.parent, ignore_errors=True)
            self.store_dir = None

    # ------------------------------------------------------------- inputs
    def new_api(self) -> StoreApi:
        assert self.store_dir is not None
        return StoreApi(
            ResultsStore(self.store_dir), cache_size=int(self.spec["cache_size"])
        )

    def prepare(self) -> None:
        """Learn the universe and its expected bodies; rank the keys."""
        api = self.new_api()
        self.universe = request_universe(api)
        self.expected: Dict[str, bytes] = {}
        self.etags: Dict[str, str] = {}
        for target in self.universe:
            response = api.handle(target)
            self.expected[target] = response.body
            if response.etag is not None:
                self.etags[target] = response.etag
        self.rng = random.Random(self.ctx.seed)
        # One popularity ranking per run: every phase draws the same hot keys.
        self.ranked = [t for t in self.universe if t in self.etags]
        self.rng.shuffle(self.ranked)

    def requests(self, count: int) -> List[Request]:
        return request_mix(
            self.ranked,
            self.etags,
            count,
            self.rng,
            zipf_s=float(self.spec["zipf_s"]),
            revalidate_share=float(self.spec["revalidate_share"]),
        )

    # --------------------------------------------------------------- load
    def verify(self) -> Tuple[str, Checked]:
        """Fetch every universe target once; digest the bodies served."""
        assert self.server is not None
        requests: List[Request] = [(target, None) for target in self.universe]
        t0, samples = run_open_loop(HOST, self.server.port, requests, 1e9)
        checked = check_responses(requests, samples, self.expected, t0)
        digest = sha256_text(
            "".join(
                f"{target}\0{sha256_text(sample.body.decode('utf-8'))}\n"
                for (target, _), sample in zip(requests, samples)
            )
        )
        return digest, checked

    def load(self, requests: List[Request], rate: float) -> Checked:
        assert self.server is not None
        t0, samples = run_open_loop(HOST, self.server.port, requests, rate)
        return check_responses(requests, samples, self.expected, t0)

    def metered_load(
        self,
        requests: List[Request],
        rate: float,
        slice_size: int,
        reference_share: float,
    ) -> Tuple[Checked, List[float], List[float]]:
        """:meth:`load` in slices of ``slice_size`` requests, one
        connection each. Also returns the server CPU seconds per request
        of each slice and the reference calls run after each slice, for
        ``reference_share`` of its wall time."""
        assert self.server is not None
        whole: Optional[Checked] = None
        per_request: List[float] = []
        calls: List[float] = []
        for start in range(0, len(requests), slice_size):
            part = requests[start : start + slice_size]
            before = self.server.cpu_seconds()
            started = time.perf_counter()
            checked = self.load(part, rate)
            wall = time.perf_counter() - started
            per_request.append((self.server.cpu_seconds() - before) / len(part))
            calls += reference.run_for(reference_share * wall)
            if whole is None:
                whole = checked
            else:
                whole.samples += checked.samples
                whole.failed += checked.failed
                whole.problems += checked.problems
        assert whole is not None
        return whole, per_request, calls
