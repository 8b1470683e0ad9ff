"""Test infrastructure that ships with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection seam the
fault-tolerant worker pool behind ``tquad corpus --jobs`` exposes; the
crash-recovery suite drives it, and operators can switch it on from the environment
(``TQUAD_FAULTS``) to rehearse failure handling on real workloads.
:mod:`repro.testing.oracles` holds the per-event tQUAD and per-byte QUAD
reference implementations the differential tests compare the product
against; it is not imported here, so product code that uses the fault
seam never loads it.
"""

from .faults import (FaultInjector, FaultPlan, FaultSpec, InjectedFault,
                     WorkerExit)

__all__ = ["FaultSpec", "FaultPlan", "FaultInjector", "InjectedFault",
           "WorkerExit"]
