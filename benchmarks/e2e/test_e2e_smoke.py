"""Smoke test of the end-to-end benchmark at ``--scale 0.02``.

Checks what does not need a long run: the generator repeats for a seed
and only for that seed, every metric named in ``BENCHMARK.json`` is
printed with its unit, the limits of the benchmark contract hold, and
the bypass predictions — which layers a workload never enters — are
facts, not hopes.
"""

import json
import re

import measure
import pytest
import run
import workloads

SCALE = 0.02
SPEC = json.loads(run.SPEC.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
JOURNALED = {"durable", "crash_recovery"}
MEMOIZED = {"steady", "durable", "crash_recovery", "max_rate"}


# -- the generator ---------------------------------------------------------------------
SCHEDULES = {
    "zipf": lambda seed: workloads.zipf_schedule(seed, [(0.5, 400.0), (0.2, 1200.0)]),
    "incident": lambda seed: workloads.incident_schedule(seed, 0.1),
    "lane_churn": lambda seed: workloads.lane_churn_schedule(seed, 0.05),
}


@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_one_seed_one_schedule(kind):
    first, again, other = SCHEDULES[kind](7), SCHEDULES[kind](7), SCHEDULES[kind](8)
    assert first == again
    assert first != other
    assert len(first) == len(other), "request counts are fixed, not drawn"
    offsets = [offer.offset_s for offer in first]
    assert offsets == sorted(offsets)


def test_generated_formulas_are_valid():
    """Every amount is >= 1: ``Mg0`` names no atoms and fails to parse."""
    from repro.matsci.composition import Composition

    offers = SCHEDULES["zipf"](3) + SCHEDULES["incident"](3)
    for offer in offers:
        (formula,) = offer.args
        assert re.fullmatch(r"([A-Z][a-z]?[1-9][0-9]*)+", formula), formula
        assert Composition.parse(formula).total_atoms >= 2


def test_repeat_share_and_uniqueness():
    offers = workloads.zipf_schedule(5, [(4.0, 500.0)])
    formulas = [offer.args[0] for offer in offers]
    repeats = len(formulas) - len(set(formulas))
    assert 0.15 < repeats / len(formulas) < 0.30  # ~25% drawn from a 64-pool
    shares = [sum(o.tenant == t for o in offers) for t in range(workloads.N_TENANTS)]
    assert shares[0] > 2 * shares[3] > 0  # Zipf(1): tenant 0 is the hottest


def test_lane_churn_wave_order():
    offers = workloads.lane_churn_schedule(1, 0.125)  # 200 tenants, waves of 50
    tenants = [offer.tenant for offer in offers]
    assert sorted(tenants) == sorted(list(range(200)) * 2)
    for start in range(0, len(tenants), 100):
        wave = tenants[start:start + 100]
        assert set(wave) == set(range(start // 2, start // 2 + 50))
        assert sorted(wave[:50]) == sorted(wave[50:])  # one pass, then another
    assert len({offer.args for offer in offers}) == len(offers)


# -- the contract ------------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for section, declared, extra in (
        ("end_to_end", measure.END_TO_END, {"bound"}),
        ("per_layer", measure.PER_LAYER, set()),
    ):
        assert [
            (m["name"], (m["unit"], m["better"])) for m in SPEC[section]
        ] == list(declared.items())
        for metric in SPEC[section]:
            assert set(metric) == {"name", "unit", "better"} | extra
            assert UNIT.fullmatch(metric["unit"]), metric
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert ("s", "lower") == measure.END_TO_END["setup_s"]
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names


# -- every workload, both ways -------------------------------------------------------------
@pytest.fixture(scope="module")
def results():
    """One untraced and one traced run of every workload, tiny."""
    return {
        (name, trace): measure.run(name, seed=11, seconds=0.0, trace=trace, scale=SCALE)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_reported_and_the_gate_holds(results, workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        document, digest, problems = results[workload, trace]
        assert problems == [] and document["correct"] is True
        assert document["failed"] == 0 and document["attempted"] >= 1
        assert set(document) == {"correct", "attempted", "failed", "metrics"}
        assert {
            name: entry["unit"] for name, entry in document["metrics"].items()
        } == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(
            isinstance(entry["value"], float) and entry["value"] == entry["value"]
            for entry in document["metrics"].values()
        )
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    end_to_end = results[workload, False][0]["metrics"]
    assert all(end_to_end[name]["value"] > 0 for name in measure.END_TO_END)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_bypass_predictions(results, workload):
    metrics = {
        name: entry["value"]
        for name, entry in results[workload, True][0]["metrics"].items()
    }
    for layer in ("durability.journal", "durability.store", "durability.recovery"):
        entered = metrics[f"{layer}.calls_per_req"] > 0
        expected = workload in JOURNALED and (
            layer != "durability.recovery" or workload == "crash_recovery"
        )
        assert entered == expected, layer
    for layer in ("core.fleet", "core.obsloop", "core.telemetry"):
        assert (metrics[f"{layer}.calls_per_req"] > 0) == (workload == "incident"), layer
    assert (metrics["core.memo.hit_ratio"] > 0) == (workload in MEMOIZED)
    assert (metrics["ladder.v_max_rate_rps"] > 0) == (workload == "max_rate")
    if workload == "lane_churn":
        # Exactly 1.0 at full scale; with this scale's waves of 8 tenants
        # a lane's two requests can land within one coalescing window.
        assert metrics["core.runtime.mean_batch_size"] < 1.05
    else:
        assert metrics["core.runtime.mean_batch_size"] > 1.2
    for layer in ("auth", "gateway.gateway", "messaging.queue", "core.runtime", "sim.clock"):
        assert metrics[f"{layer}.calls_per_req"] > 0, layer
        assert metrics[f"{layer}.self_us_per_req"] > 0, layer
    assert metrics["trace.overhead_ratio"] > 0


def test_trace_file_is_written(results):
    document = json.loads((measure.OUT_DIR / "trace_crash_recovery.json").read_text())
    assert document["workload"] == "crash_recovery" and document["spans"]
    spans = {span[0]: span for span in document["spans"]}
    for sid, parent, layer, function, start_us, end_us, uuids in spans.values():
        assert layer in measure.LAYERS and end_us >= start_us
        if parent in spans:  # a child lies inside the span that caused it
            assert spans[parent][4] <= start_us and end_us <= spans[parent][5]
    assert any(span[6] for span in spans.values()), "no span carries a task_uuid"
    assert any(key.startswith("durability.recovery:") for key in document["totals"])


# -- the command line ----------------------------------------------------------------------
def test_one_run_prints_the_result_line_last(capsys):
    code = run.main(
        ["--workload", "steady", "--seed", "2", "--seconds", "0", "--trace", "0",
         "--scale", str(SCALE)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    document = json.loads(lines[-1])
    assert code == 0 and document["correct"] is True
    assert lines[-2].startswith("v_digest ")
    for metric in SPEC["end_to_end"]:
        assert any(
            line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
            for line in lines
        )


def _result_set(tmp_path, name: str, wall_rps: list[float]) -> str:
    runs = []
    for workload in workloads.WORKLOADS:
        for value in wall_rps:
            metrics = {m["name"]: {"value": 10.0, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            metrics["wall_rps"]["value"] = value
            runs.append({"workload": workload, "trace": 0, "digest": "d",
                         "result": {"metrics": metrics}})
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_flags_breaches_and_unresolved_pairs(tmp_path, capsys):
    base = _result_set(tmp_path, "a.json", [1000.0, 1010.0, 990.0])
    same = _result_set(tmp_path, "b.json", [1005.0, 995.0, 1000.0])
    slow = _result_set(tmp_path, "c.json", [500.0, 505.0, 495.0])
    noisy = _result_set(tmp_path, "d.json", [400.0, 1000.0, 1600.0])
    assert run.main(["--compare", base, same]) == 0
    assert "BREACH" not in capsys.readouterr().out
    assert run.main(["--compare", base, slow]) == 1
    assert "BREACH" in capsys.readouterr().out
    assert run.main(["--compare", base, noisy]) == 0
    out = capsys.readouterr().out
    assert "unresolved" in out and "modelled behaviour identical: yes" in out
