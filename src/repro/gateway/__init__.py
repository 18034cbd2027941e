"""Multi-tenant serving gateway: admission control, weighted fair
scheduling, and unified routing into the serving runtime.

``client -> gateway -> WFQ lanes -> ServingRuntime -> fleet``
"""

from repro.gateway.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionOutcome,
)
from repro.gateway.gateway import (
    AdmissionRejected,
    GatewayError,
    ServingGateway,
)
from repro.gateway.policy import (
    PolicyError,
    TenantPolicy,
    TenantPolicyTable,
    TokenBucket,
)
from repro.gateway.scheduler import WeightedFairScheduler

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionOutcome",
    "AdmissionRejected",
    "GatewayError",
    "PolicyError",
    "ServingGateway",
    "TenantPolicy",
    "TenantPolicyTable",
    "TokenBucket",
    "WeightedFairScheduler",
]
