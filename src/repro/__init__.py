"""repro: a reproduction of "DLHub: Model and Data Serving for Science".

(Chard et al., IPPS 2019, arXiv:1811.11213.)

Quick start::

    from repro import build_testbed, build_zoo, DLHubClient

    testbed = build_testbed()
    zoo = build_zoo()
    testbed.publish_and_deploy(zoo["cifar10"], replicas=2)
    client = DLHubClient(testbed.management, testbed.token)
    result = client.run("cifar10", image)

Package map (docs/ARCHITECTURE.md has the full module map):

* ``repro.core`` — DLHub itself (repository, Management Service, Task
  Manager, executors, pipelines, SDK, CLI),
* ``repro.sim`` / ``repro.messaging`` / ``repro.auth`` / ``repro.search``
  / ``repro.data`` / ``repro.containers`` / ``repro.cluster`` — the
  infrastructure substrates (virtual time, ZeroMQ, Globus Auth/Search,
  S3/Globus endpoints, Docker/Singularity, Kubernetes/HPC),
* ``repro.ml`` / ``repro.matsci`` — the model stacks (NumPy deep
  learning, random forests, pymatgen/matminer/OQMD stand-ins),
* ``repro.parsl`` / ``repro.serving`` — the IPP engine pool the Parsl
  executor dispatches through, and the baseline serving systems
  (TF Serving, SageMaker, Clipper).
"""

from repro.core.client import DLHubClient
from repro.core.testbed import DLHubTestbed, build_testbed
from repro.core.zoo import ModelZoo, build_zoo, sample_input

__version__ = "1.0.0"

__all__ = [
    "DLHubClient",
    "DLHubTestbed",
    "build_testbed",
    "ModelZoo",
    "build_zoo",
    "sample_input",
    "__version__",
]
