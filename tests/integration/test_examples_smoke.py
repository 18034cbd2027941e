"""Smoke tests: the runnable examples must execute end to end.

Each example is executed in-process (``runpy`` with ``__main__``
semantics) so regressions in the public API surface here immediately.
The two heaviest examples (materials_pipeline, serving_comparison) are
exercised through their underlying harnesses elsewhere and are sampled
here with reduced work via their module mains only if fast.
"""

import re
import runpy
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamplesRun:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "published" in out
        assert "sync prediction" in out
        assert "timings" in out

    def test_candle_access_control(self, capsys):
        out = run_example("candle_access_control.py", capsys)
        assert "outsider search hits: 0" in out
        assert "after release" in out

    def test_mdf_enrichment(self, capsys):
        out = run_example("mdf_enrichment.py", capsys)
        assert "enrichment passes applied" in out

    def test_tomography_serving(self, capsys):
        out = run_example("tomography_serving.py", capsys)
        assert "best center: slice 13" in out
        assert "batch segmentation" in out

    def test_server_side_batching(self, capsys):
        out = run_example("server_side_batching.py", capsys)
        assert "placement (servable -> workers):" in out
        assert "micro-batches dispatched:" in out
        assert "hot-input memo hits on matminer_util:" in out

    def test_adaptive_serving(self, capsys):
        out = run_example("adaptive_serving.py", capsys)
        cap = re.search(r"-> profiled cap (\d+)", out)
        assert cap is not None
        # The profiled row batches at that cap and its slowest batch
        # fits the 60 ms budget the profile was sized to.
        row = re.search(r"profiled\s+cap=(\d+) .*slowest\s+([\d.]+) ms", out)
        assert row is not None and row.group(1) == cap.group(1)
        assert float(row.group(2)) <= 60.0
        assert "saturation knee" in out

    def test_hpc_singularity(self, capsys):
        out = run_example("hpc_singularity.py", capsys)
        assert "HPC outputs match local execution: OK" in out
        assert "Clipper" in out

    def test_autoscaled_serving(self, capsys):
        out = run_example("autoscaled_serving.py", capsys)
        # The controller scaled up during the spike...
        assert "worker_provisioned" in out
        assert "copy_added" in out
        # ...drained back down afterwards...
        assert "scaled back down to 1 worker(s)" in out
        # ...and healed around the crash, reviving the worker later.
        assert "worker_down" in out
        assert "the crashed worker served none" in out
        assert "worker_revived" in out

    def test_multi_tenant_gateway(self, capsys):
        out = run_example("multi_tenant_gateway.py", capsys)
        # Nothing is served except by the gateway's fleet.
        assert "tasks served outside the gateway's fleet: 0" in out
        # The guest's over-limit burst got typed rate-limit denials:
        # the bucket's 5 tokens plus one refilled, then 6 denials.
        assert (
            "guest burst of 12: {'ok': 6, 'rejected_rate_limit': 6}"
            in out.splitlines()
        )
        # Both tenants' latency tables printed (fairness section ran).
        assert "astro" in out and "chem" in out
        assert "admitted per tenant" in out
