"""The IPP engine pool of DLHub's Parsl executor.

DLHub's general-purpose executor is built on Parsl's execution engine
(SS IV-C); on Kubernetes that engine deploys IPythonParallel-style
engines in servable pods and load-balances requests across them. That
pool is the part the serving stack uses, and all this package holds:
:mod:`repro.parsl.ipp`, the engine pool with deterministic load
balancing and busy-until queueing (what Fig. 7 measures), which
:class:`~repro.core.executors.ParslServableExecutor` dispatches through.
"""

from repro.parsl.ipp import EngineStats, IPPEnginePool, NoEnginesError

__all__ = ["IPPEnginePool", "EngineStats", "NoEnginesError"]
