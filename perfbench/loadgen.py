"""Open-loop HTTP GET load over one keep-alive connection.

Request ``i`` is due at ``t0 + i / rate`` whatever happened before it,
so a slow response delays the requests queued behind it instead of
slowing the offered load (a closed loop would hide that). Each request
is timed from when it was due. Two waits are split out of that latency:

- ``queue_wait``: due, but the previous response still held the
  connection;
- ``late``: the connection was free, but the generator sent late
  (sleep overshoot, interpreter scheduling).
"""

from __future__ import annotations

import http.client
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: One request: target path and the ETag to revalidate (or None).
Request = Tuple[str, Optional[str]]


@dataclass
class Sample:
    index: int
    due: float
    free: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.free - self.due)

    @property
    def late(self) -> float:
        return self.sent - max(self.due, self.free)


def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    rate: float,
    *,
    timeout: float = 10.0,
) -> Tuple[float, List[Sample]]:
    """Send ``requests`` at ``rate`` per second; return (t0, samples).

    A connection error or timeout yields a sample with status 0 and the
    connection is reopened.
    """
    if rate <= 0:
        raise ValueError("need a positive rate")
    samples: List[Sample] = []
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    t0 = time.perf_counter() + 0.02
    try:
        for index, (target, etag) in enumerate(requests):
            free = time.perf_counter()
            due = t0 + index / rate
            if due > free:
                time.sleep(due - free)
            headers = {} if etag is None else {"If-None-Match": etag}
            sent = time.perf_counter()
            try:
                conn.request("GET", target, headers=headers)
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=timeout)
                body, status = b"", 0
            done = time.perf_counter()
            samples.append(Sample(index, due, free, sent, done, status, body))
    finally:
        conn.close()
    return t0, samples
