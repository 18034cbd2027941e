"""A run is a function of its seed, not of the process it runs in.

Task ids come from module-level counters in ``repro.core.tasks``, and
the Management Service prices a request by its pickled size. Whatever
those counters are, and wherever they stand when a run starts, the run
and the size of the request it ships must come out the same.
"""

from __future__ import annotations

import itertools
import pickle

from repro.core import tasks
from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo

#: Counter starts on either side of pickle's 1-, 2- and 4-byte ints.
STARTS = (1, 256, 65_536)


def _start_counters_at(monkeypatch, start: int) -> None:
    counters = [
        name for name, value in vars(tasks).items() if isinstance(value, itertools.count)
    ]
    assert counters  # the task ids still come from one
    for name in counters:
        monkeypatch.setattr(tasks, name, itertools.count(start))


def _request_time() -> float:
    testbed = build_testbed(seed=3, jitter=True)
    zoo = build_zoo(oqmd_entries=30, n_estimators=2)
    testbed.publish_and_deploy(zoo["noop"])
    return testbed.management.run(testbed.token, "noop").request_time


def test_a_run_does_not_depend_on_how_many_requests_came_before(monkeypatch):
    times, sizes = [], []
    for start in STARTS:
        _start_counters_at(monkeypatch, start)
        times.append(_request_time())
        sizes.append(len(pickle.dumps(TaskRequest("noop", args=(1,)))))
    assert times == [times[0]] * len(STARTS)
    assert sizes == [sizes[0]] * len(STARTS)
