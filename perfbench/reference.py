"""A fixed piece of standard-library work that times the machine.

On a virtual machine that shares its host, the CPU time of the same
work drifts by a quarter or more over minutes, as other tenants load the
host's cores and caches. The benchmark runs this reference between its
passes (and between ``serve``'s slices), so it sees the same drift, and
divides it out: an operation's CPU time times ``reference_call_ms`` (in
``spec.json``) over the mean CPU time of one reference call in the same
run. The mean, not the median: the host's speed flips between a fast and
a slow state within a second, and a median of such calls jumps between
the two. The reference uses no code of the program, so a change to the
program moves only the numerator.

The work resembles the program's own: building, sorting and grouping
small records, and JSON round trips.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List

_RNG = random.Random(2013)
_RECORDS = [
    {
        "host": f"h{_RNG.randrange(10**6)}.example",
        "port": _RNG.randrange(65536),
        "tags": [str(_RNG.random()) for _ in range(3)],
    }
    for _ in range(600)
]


def _work() -> int:
    records = json.loads(json.dumps(_RECORDS))
    records.sort(key=lambda record: (record["host"], record["port"]))
    groups: Dict[str, List[str]] = {}
    for record in records:
        groups.setdefault(record["host"][:5], []).append(record["tags"][0].upper())
    return len(groups)


def run_for(cpu_seconds: float) -> List[float]:
    """Call the reference until the calls used ``cpu_seconds`` of CPU
    (at least once); return each call's CPU seconds."""
    calls: List[float] = []
    while not calls or sum(calls) < cpu_seconds:
        started = time.process_time()
        _work()
        calls.append(time.process_time() - started)
    return calls
