"""Synthetic trace substrate.

The paper drives its simulator with Alpha traces of the 12 SPEC CPU2000
integer benchmarks (300M-instruction SimPoint segments). Those traces are
proprietary-toolchain artifacts we cannot obtain, so this package implements
the closest synthetic equivalent (DESIGN.md §2):

- :mod:`repro.trace.profiles` — a statistical model per benchmark, calibrated
  to the paper's own Table 2(a) cache behaviour (L1/L2 load miss rates, the
  L1->L2 ratio) plus plausible SPECINT instruction mixes and dependency
  structure;
- :mod:`repro.trace.codegen` — a synthetic basic-block CFG giving every
  instruction a PC (I-cache footprint, gshare-learnable branch biases, RAS
  call/return discipline);
- :mod:`repro.trace.address_space` — the 3-tier data address model (hot set
  fits L1 / warm set fits L2 / cold streaming set misses both);
- :mod:`repro.trace.synthetic` — the generator producing immutable,
  random-access traces (FLUSH rewinds a cursor into them);
- :mod:`repro.trace.wrongpath` — deterministic wrong-path instruction supply,
  the analogue of SMTSIM's basic-block dictionary mentioned in §4.
"""

from repro.trace.profiles import (
    BenchmarkProfile,
    PROFILES,
    get_profile,
    MEM_BENCHMARKS,
    ILP_BENCHMARKS,
)
from repro.trace.synthetic import (
    RECORD_FIELDS,
    SyntheticTrace,
    generate_trace,
    clear_trace_cache,
    trace_cache_stats,
)
from repro.trace.artifact import ARTIFACT_VERSION, TraceArtifactCache
from repro.trace.wrongpath import WrongPathSupplier
from repro.trace.address_space import AddressSpace
from repro.trace.ingest import (
    TRACE_INGEST_VERSION,
    IngestError,
    export_trace,
    find_ingested,
    ingest_schema_info,
    ingested_workloads,
    read_trace_file,
    register_workload,
)

__all__ = [
    "BenchmarkProfile",
    "PROFILES",
    "get_profile",
    "MEM_BENCHMARKS",
    "ILP_BENCHMARKS",
    "RECORD_FIELDS",
    "SyntheticTrace",
    "generate_trace",
    "clear_trace_cache",
    "trace_cache_stats",
    "ARTIFACT_VERSION",
    "TraceArtifactCache",
    "WrongPathSupplier",
    "AddressSpace",
    "TRACE_INGEST_VERSION",
    "IngestError",
    "export_trace",
    "find_ingested",
    "ingest_schema_info",
    "ingested_workloads",
    "read_trace_file",
    "register_workload",
]
