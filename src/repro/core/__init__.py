"""DLHub core: the paper's primary contribution.

The model repository + serving system of SS IV:

* :mod:`repro.core.schema` — the publication metadata schema,
* :mod:`repro.core.servable` — servable abstraction and per-model-type
  shims (Python function, Keras-like, sklearn-like, pipelines),
* :mod:`repro.core.builder` — components -> Dockerfile -> image builds,
* :mod:`repro.core.repository` — publication, versioning, DOIs, search,
* :mod:`repro.core.management` — the Management Service (REST-facing
  publish/discover/run, batching, caching, async tasks),
* :mod:`repro.core.task_manager` — queue consumption, executor routing,
  TM-side memoization (per item inside batches),
* :mod:`repro.core.runtime` — server-side micro-batching: a coalescing
  dispatch layer sharding servables across a Task Manager fleet,
* :mod:`repro.core.fleet` — the fleet control plane: autoscaling,
  health tracking, and placement rebalancing over the runtime,
* :mod:`repro.core.telemetry` — request-scoped tracing (span trees on
  the virtual clock), the unified telemetry hub, and SLO burn-rate
  monitoring,
* :mod:`repro.core.executors` — TF Serving / SageMaker / Parsl executors,
* :mod:`repro.core.pipeline` — multi-step server-side pipelines,
* :mod:`repro.core.client` / :mod:`repro.core.cli` /
  :mod:`repro.core.toolbox` — SDK, CLI, and metadata toolbox,
* :mod:`repro.core.testbed` — a factory wiring the full deployment
  (auth + search + data + cluster + MS + TM) as in the paper's testbed,
* :mod:`repro.core.survey` — the Table I / Table II capability matrices.

Import from the submodules; this package re-exports nothing
(``repro.__all__`` is the one facade).
"""
