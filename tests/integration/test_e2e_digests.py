"""Tier-1 pin on modelled behaviour: the six e2e workloads' round digests.

``benchmarks/e2e`` hashes every offer's outcome and virtual settle time
into a per-round digest, and two commits with equal digests modelled
the same system. Until now that equality was only ever checked by hand
(``run.py --compare`` on two result sets); the one digest assertion in
the suite was a hex-format regex. This runs the six workload builders
at ``--scale 0.02``, seed 0 (sub-seeds 0-3, as ``measure.run`` pools
them) and compares each round's digest with a golden.

The goldens were generated from the parent of the commit that replaced
the polled serve loop with the timer-heap kernel, before any source
edit, so they state what the *polled* loop did. A change that is meant
to alter modelled behaviour regenerates them
(``python tools/e2e_goldens.py <workload> ...`` prints the entries) and
says so; anything else that moves one has changed what the simulator
computes. The ``crash_recovery`` goldens were
regenerated so when recovery began restoring the WFQ clock past the
tags of the requests it finds still queued: after a restart, fresh
releases now rank behind that restored backlog at dispatch instead of
ahead of it. They were regenerated again when the ``post_admission``
crash point moved to the end of the admitting call: a crash there now
finds the request already released, and recovery restores it in queue
rather than to its lane. (With the point left where it was, the
journal's other format-4 changes reproduce the earlier goldens.) The
``incident`` goldens moved when the fleet controller stopped shrinking
on demand it had not measured: its first reconcile no longer removes
the copy on ``w3`` and adds it back one interval later.

The second test serves the same rounds with the polled loop itself
(:mod:`tests.core.serve_oracles`) patched in: the oracle is only worth
comparing against while it still is the loop those goldens came from.
"""

import sys
from pathlib import Path

import pytest

from repro.core.runtime import ServingRuntime
from repro.core.zoo import build_zoo
from repro.gateway.gateway import ServingGateway
from tests.core.serve_oracles import polled_gateway_serve, polled_serve

# The benchmark's modules import each other by bare name; it is read
# here, never edited.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
import measure  # noqa: E402

SCALE = 0.02
GOLDEN_DIGESTS = {
    "steady": (
        "c5219251ebda90bbd95ff87bac229957a6515cb233e107cf575d23ea13d5a407",
        "86d9a355fa350b17da63907a9e9f92668d9f41a0ba6a7099cf648e91678a53e8",
        "49fe72801946ae5d441abfde41cce2db33e630db20346fe1daa7767552333961",
        "55eb407048027ff29a3320a6c8769a1311f4b776df11d3c29939249b046e1a36",
    ),
    "durable": (
        "ab552b4561f898bd02a3b088f98c382aef9a9f340f46b8ce5532c4c827c1bb39",
        "134d8c5eb13cf5fb1cdeaa06fc3b9f11a1c7170533135f473458eff396c79da4",
        "5cd066f80ef5e457dd5d74e9df80c763cd2295f05e63f24bf7f26b84d8ee4f1a",
        "580973ff6ed87a6f7cd94e692285a4836fd628ce60de8741bad8048b5846b30e",
    ),
    "crash_recovery": (
        "182138a46758bfec5d6ff63cd3162656537c507bca4ad657c08c6a77813841cb",
        "6c16045463a2a6276a8f3ca0d3ec44b41e7b94a71cbdc96e2f29f7277fb62843",
        "8400f8c41fafe7062bed8f645cac6f5d3064631d2f4dd4c619ee78ea600bcc60",
        "402ab225142d8e1eeb336ac3d2c73edbf6cdd7671edbed3f56730b734deef238",
    ),
    "incident": (
        "32420535687eb83424aeee378936695fd334c809b51f2a8fe33d84ad1ac6b457",
        "1cdc787b50933d2f29fddc07152a118706c43dab8f5fae39a9b3d51258de27b7",
        "ec911a37047be31ae71387e8ea1ad2677253cbf62c45f263d222dd7874fa58b7",
        "3719cc14e70b307d2699dcac435e894f06cbd6f508f879f076c840ca2b278090",
    ),
    "lane_churn": (
        "5a9226942601b6a6de51319412e360beda82f4dcb893665d7f33112a33c992e4",
        "d63d446d51460cce3d9af0cf7dbc2a632d2301d159f4a18714e39d37e417a382",
        "7e0be3418f745cf81c40e3b35685704d18157131753acc405ad4cad15c828656",
        "6c21dc93ca1e56836a2ed8584d7304cfb2767dc000c0de662872b0cdb8ae999f",
    ),
    "max_rate": (
        "2ce264797f39de83812902a296b36b8bfac51e1f0e9d8667e0b222254821cd1d",
        "34cea70b656b38cc12ccd75c8a4bb0b3942bece68a8626a19c88c2a1b1b714ba",
        "dd0a3e8a0b1924b1f89fa7edf40d9f0b828586ee155fa12bafdb01d31f72c8ac",
        "43d6ea66fea14eb2f4685c058cf1065d5c5bccd9d9f3e1d326b4b298b8bb2d3f",
    ),
}


def build_zoo_and_oracle():
    """The zoo ``measure.run`` builds, and its served-value oracle."""
    zoo = build_zoo(seed=0, oqmd_entries=50, n_estimators=4)
    expected: dict = {}

    def oracle(servable: str, args: tuple):
        if (servable, args) not in expected:
            expected[servable, args] = zoo[servable].run(*args)
        return expected[servable, args]

    return zoo, oracle


@pytest.fixture(scope="module")
def zoo_and_oracle():
    return build_zoo_and_oracle()


def round_digests(workload: str, zoo, oracle) -> tuple[str, ...]:
    rounds = [
        measure.run_round(workload, sub_seed, SCALE, zoo, oracle)
        for sub_seed in range(measure.POOLED_ROUNDS)
    ]
    assert [rnd.problems for rnd in rounds] == [[]] * len(rounds)
    return tuple(rnd.digest for rnd in rounds)


def test_the_goldens_cover_the_benchmark():
    assert list(GOLDEN_DIGESTS) == list(measure.WORKLOADS)


@pytest.mark.parametrize("workload", list(GOLDEN_DIGESTS))
def test_round_digests_match_the_goldens(zoo_and_oracle, workload):
    assert round_digests(workload, *zoo_and_oracle) == GOLDEN_DIGESTS[workload]


@pytest.mark.parametrize("workload", list(GOLDEN_DIGESTS))
def test_the_polled_oracle_still_reproduces_the_goldens(
    zoo_and_oracle, workload, monkeypatch
):
    monkeypatch.setattr(ServingRuntime, "serve", polled_serve)
    monkeypatch.setattr(ServingGateway, "serve", polled_gateway_serve)
    assert round_digests(workload, *zoo_and_oracle) == GOLDEN_DIGESTS[workload]
