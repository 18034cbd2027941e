"""The Management Service -> Task Manager queue and its serialization.

DLHub's Management Service talks to Task Managers over a ZeroMQ queue
(SS IV-A, "Model serving"). The reproduction models that link as what
the serving path depends on:

* a **reliable task queue** with acknowledgements, visibility timeouts and
  redelivery (:mod:`repro.messaging.queue`), and
* size-accounted **serialization** so that message bytes feed the latency
  model (:mod:`repro.messaging.serializer`).
"""

from repro.messaging.serializer import Serializer, PickleSerializer
from repro.messaging.queue import TaskQueue, QueuedMessage, QueueEmpty

__all__ = [
    "Serializer",
    "PickleSerializer",
    "TaskQueue",
    "QueuedMessage",
    "QueueEmpty",
]
