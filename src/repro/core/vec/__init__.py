"""Batch backend: many simulations run in one process.

See :mod:`repro.core.vec.batch` for what the batch shares across lanes.
Public surface:

- :class:`VecBatchSimulator` — the batch engine (``run() -> list[SimResult]``)
- :class:`Lane` — one (workload, policy, seed) run specification
- :func:`run_batch` — one-call convenience wrapper
"""

from repro.core.vec.batch import Lane, VecBatchSimulator, VecLaneError, run_batch

__all__ = [
    "Lane",
    "VecBatchSimulator",
    "VecLaneError",
    "run_batch",
]
