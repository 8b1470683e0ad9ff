"""The fault-tolerant worker pool behind ``tquad corpus --jobs``.

See :mod:`repro.parallel.supervise`.
"""

from .supervise import (DEFAULT_DEADLINE, DEFAULT_MAX_RETRIES,
                        HEARTBEAT_INTERVAL, Supervisor)

__all__ = ["Supervisor", "DEFAULT_DEADLINE", "DEFAULT_MAX_RETRIES",
           "HEARTBEAT_INTERVAL"]
