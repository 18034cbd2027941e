"""Benchmark harness: one experiment module per paper table/figure/ablation.

Each module exposes ``run_experiment(...) -> dict``, a plain JSON-able
report. The thin pytest-benchmark wrappers in ``benchmarks/`` print it
with :func:`repro.bench.report.render` and commit it as a
``BENCH_<name>.json`` artifact with :func:`repro.bench.report.write`;
``tools/generate_experiments_md.py`` renders the committed artifacts
into EXPERIMENTS.md. Setup is shared through :mod:`repro.bench.workloads`:
the paper figures build on :func:`~repro.bench.workloads.build_context`,
and every serving bench builds its stack with
:func:`~repro.bench.workloads.build_fleet` and spaces its arrivals with
:func:`~repro.bench.workloads.phased_offsets`.

Experiments:

* :mod:`repro.bench.fig3_servables` — request/invocation/inference times,
* :mod:`repro.bench.fig4_memoization` — memoization impact,
* :mod:`repro.bench.fig5_batching` — batching, 1-100 requests,
* :mod:`repro.bench.fig6_batch_scaling` — batching to 10,000 requests,
* :mod:`repro.bench.fig7_scalability` — throughput vs replica count,
* :mod:`repro.bench.fig8_comparison` — serving-system comparison,
* :mod:`repro.bench.tables` — Tables I and II regeneration,
* :mod:`repro.bench.server_batching` — ablation: unbatched vs
  client-batched vs server-coalesced dispatch across arrival rates,
* :mod:`repro.bench.fleet_autoscaling` — ablation: static fleet vs
  control-plane autoscaling under an arrival-rate spike,
* :mod:`repro.bench.multi_tenant_fairness` — ablation: light-tenant
  isolation with and without the serving gateway,
* :mod:`repro.bench.incident_response` — the closed observability loop,
  observe vs react,
* :mod:`repro.bench.chaos_recovery` — crash at spike peak, recover from
  the write-ahead journal,
* :mod:`repro.bench.dispatch_overhead` — wall-clock cost of one
  dispatch decision vs tenant-lane count.
"""

from repro.bench.workloads import ExperimentContext, build_context

__all__ = ["ExperimentContext", "build_context"]
