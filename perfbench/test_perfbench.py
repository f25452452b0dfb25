"""Self-tests for the benchmark, at a tiny size.

Run from the repository root::

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import types
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

from layers import per_layer_metrics  # noqa: E402
from loadgen import run_open_loop  # noqa: E402
from tracing import Span, Target, Tracer, self_times, summarize  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestMetricsEmitted(unittest.TestCase):
    """Every metric BENCHMARK.json names comes out, with its unit."""

    def check_run(self, workload: str, trace: int) -> None:
        done = run_benchmark(
            "--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", str(trace),
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"}
        )
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: entry["unit"] for name, entry in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in wanted},
        )
        for name, entry in result["metrics"].items():
            self.assertIsInstance(entry["value"], (int, float), name)

    def test_monitor_end_to_end(self) -> None:
        self.check_run("monitor", 0)

    def test_monitor_traced(self) -> None:
        self.check_run("monitor", 1)

    def test_serve_end_to_end(self) -> None:
        self.check_run("serve", 0)

    def test_per_layer_list_matches_the_code(self) -> None:
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]],
            per_layer_metrics(),
        )

    def test_fails_without_the_program(self) -> None:
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(
                HERE, Path(scratch) / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = run_benchmark(
                "--workload", "study", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=Path(scratch),
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class TestSelfTime(unittest.TestCase):
    def test_synthetic_tree(self) -> None:
        spans = [
            Span(0, "root", 0.0, 10.0, None),
            Span(1, "a", 1.0, 4.0, 0),
            Span(2, "b", 3.0, 6.0, 0),  # overlaps a (another thread)
            Span(3, "a1", 2.0, 3.0, 1),
            Span(4, "c", 9.0, 12.0, 0),  # runs past its parent's end
        ]
        own = self_times(spans)
        # root: 10 minus the union [1, 6] + [9, 10] of its children.
        self.assertAlmostEqual(own[0], 4.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 1.0)
        self.assertAlmostEqual(own[4], 3.0)

    def test_recursion_counts_time_once(self) -> None:
        spans = [
            Span(0, "f", 0.0, 5.0, None),
            Span(1, "f", 1.0, 2.0, 0, outermost=False),
        ]
        totals = summarize(spans)["f"]
        self.assertEqual(totals["calls"], 2)
        self.assertAlmostEqual(totals["s"], 5.0)
        self.assertAlmostEqual(totals["self_s"], 5.0)


class TestTracerWrapping(unittest.TestCase):
    def setUp(self) -> None:
        module = types.ModuleType("perfbench_selftest_target")

        class Worker:
            def outer(self, n):
                return [self.inner(i) for i in range(n)]

            def inner(self, i):
                return i * 2

            @classmethod
            def make(cls):
                return cls()

        module.Worker = Worker
        sys.modules[module.__name__] = module
        self.module = module
        self.originals = dict(vars(Worker))

    def tearDown(self) -> None:
        del sys.modules[self.module.__name__]

    def test_spans_nest_and_originals_return(self) -> None:
        seen = []
        name = self.module.__name__
        tracer = Tracer("selftest").install(
            [
                Target("w.outer", f"{name}:Worker.outer"),
                Target("w.inner", f"{name}:Worker.inner",
                       lambda args, result: seen.append(result)),
                Target("w.make", f"{name}:Worker.make"),
            ]
        )
        try:
            self.assertEqual(self.module.Worker.make().outer(3), [0, 2, 4])
        finally:
            tracer.uninstall()
        for attr in ("outer", "inner", "make"):
            self.assertIs(vars(self.module.Worker)[attr], self.originals[attr])
        self.assertEqual(seen, [0, 2, 4])
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (outer,) = by_name["w.outer"]
        self.assertEqual(len(by_name["w.inner"]), 3)
        self.assertTrue(all(s.parent == outer.id for s in by_name["w.inner"]))
        self.assertIsNone(by_name["w.make"][0].parent)


class TestServerCpuClock(unittest.TestCase):
    def test_reads_the_child_cpu_time(self) -> None:
        from serve_load import Server

        busy = (
            "import time\n"
            "t = time.process_time()\n"
            "while time.process_time() - t < 0.3: pass\n"
            "print('done', flush=True)\n"
            "input()\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", busy],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        server = Server(process, 0)
        try:
            self.assertEqual(process.stdout.readline().strip(), "done")
            spent = server.cpu_seconds()
            # The child now blocks on input(): its CPU clock stops while
            # the wall clock goes on.
            time.sleep(0.2)
            self.assertGreaterEqual(spent, 0.3)
            self.assertLess(server.cpu_seconds() - spent, 0.02)
        finally:
            process.stdin.close()
            server.stop()


class _StallHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body are separate writes; Nagle would hold the body.
    disable_nagle_algorithm = True
    stall_seconds = 0.2

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/stall":
            time.sleep(self.stall_seconds)
        body = b"ok"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:
        pass


class TestOpenLoop(unittest.TestCase):
    def test_stall_delays_the_requests_behind_it(self) -> None:
        server = ThreadingHTTPServer(("127.0.0.1", 0), _StallHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            requests = [("/fast", None)] * 40
            requests[5] = ("/stall", None)
            _t0, samples = run_open_loop(
                "127.0.0.1", server.server_address[1], requests, 100.0
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        self.assertFalse(thread.is_alive())
        self.assertTrue(all(s.status == 200 for s in samples))
        stall = _StallHandler.stall_seconds
        self.assertGreaterEqual(samples[5].latency, stall)
        # Requests due during the stall wait for it: their latency counts
        # from when they were due, so it includes the rest of the stall.
        for later in range(6, 15):
            owed = stall - (later - 5) * 0.01
            self.assertGreaterEqual(samples[later].latency, owed - 0.01, later)
            self.assertGreater(samples[later].queue_wait, 0.0, later)
            # Timed from sending alone, they would look fast.
            self.assertLess(samples[later].done - samples[later].sent, 0.1)
        self.assertLess(samples[-1].latency, 0.1)


if __name__ == "__main__":
    unittest.main()
