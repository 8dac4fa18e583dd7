"""The trace cache: generated traces persisted as DWIT files.

Generating a synthetic trace is a pure function of
``(profile, length, base, seed, instance)`` — but an expensive one: the
dynamic CFG walk emits one record at a time through several PRNG draws per
instruction. A full paper sweep replays the *same* traces dozens of times
(six policies over one workload share every thread trace bit-for-bit, and
every worker process regenerates them from scratch), so this module persists
generated traces in a directory, from which they load in a fraction of the
generation cost.

Each trace is one canonical-mode trace file in the DWIT v1 format of
:mod:`repro.trace.ingest` (``dwarn-sim ingest inspect`` reads it), at
``<profile>-l<length>-i<instance>-<hash>.dwit``. The header's ``name`` holds
the full key, ``<profile>-l<length>-b<base>-s<seed>-i<instance>``, so a load
checks every key field. The code range and ``AddressSpace`` are *not*
stored: both are cheap deterministic functions of the key, so the loader
rebuilds them and only the walk — the expensive part — is skipped. A load
copies the six signed-byte columns as they decode and interns the three
address columns; like a walked trace, the loaded one keeps no
``CodeLayout``.

Durability rules:

- **Atomic writes.** Files are written to a same-directory temp file and
  published with ``os.replace``, so concurrent workers racing on one path
  never expose a torn file; the last complete write wins and every
  intermediate observation is either the old file, the new file, or nothing.
- **Fail-open reads.** Any fault — framing, CRC, a header for another key —
  makes :meth:`TraceArtifactCache.load` return ``None`` and unlink the file;
  the caller regenerates and rewrites. A corrupt cache can cost time, never
  correctness. Loads skip the per-record validation that ingested files
  get: the cache reads only files it wrote, and the CRC covers the body.

The filename hash folds in ``repr(profile)`` and :data:`ARTIFACT_VERSION`, so
recalibrated profiles or a changed generator can never resolve to stale
files (same rationale as the result cache's ``CACHE_VERSION`` filenames).

:func:`trace_cache_for` keeps one cache object per directory in a process,
so the runner, its sweeps and a worker's jobs all count their loads and
stores into one set of counters.

The CLI resolves the cache *directory* with a fixed precedence —
``--trace-cache`` flag, then the ``DWARN_SIM_TRACE_CACHE`` environment
variable, then the ``.cache/traces`` default
(``repro.cli.resolve_trace_cache_dir``) — and ``dwarn-sim cache stats``
reports which of the three supplied the directory it inspected.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

from repro.trace import ingest
from repro.trace.profiles import BenchmarkProfile
from repro.trace.synthetic import SyntheticTrace
from repro.utils.rng import stable_hash64

__all__ = [
    "ARTIFACT_VERSION",
    "TraceArtifactCache",
    "trace_cache_for",
]

#: Bump whenever the trace *generator* changes in a way that alters the
#: arrays (the filename hash folds this in, so files from an older
#: generator are simply never found).
ARTIFACT_VERSION = 1

#: Suffix of the files of the retired binary-header format, which
#: ``clear`` still removes.
_LEGACY_SUFFIX = ".dwtrace"


def _key_name(
    profile: BenchmarkProfile, length: int, base: int, seed: int, instance: int
) -> str:
    """The header ``name`` of one key's file: the whole key, readable."""
    return f"{profile.name}-l{length}-b{base}-s{seed}-i{instance}"


class TraceArtifactCache:
    """Directory of persisted traces, with hit/miss accounting.

    One instance fronts one directory (conventionally ``.cache/traces``).
    ``load``/``store`` are safe under concurrent multi-process use: loads
    fail open on any inconsistency and stores are atomic write-then-rename.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.disk_hits = 0
        self.disk_misses = 0
        self.stores = 0
        self.rejected = 0  # corrupt / mismatching files encountered

    # -- keying --------------------------------------------------------

    def path_for(
        self,
        profile: BenchmarkProfile,
        length: int,
        base: int,
        seed: int,
        instance: int,
    ) -> Path:
        """File path for one trace key.

        The filename hash covers the full profile ``repr`` plus the
        generator version, so a recalibrated profile or a generator change
        can never resolve to a stale file; the readable prefix makes the
        cache directory inspectable (``dwarn-sim cache stats``).
        """
        h = stable_hash64(
            ARTIFACT_VERSION, profile.name, repr(profile), length, base, seed, instance
        )
        return self.directory / (
            f"{profile.name}-l{length}-i{instance}-{h:016x}{ingest.INGEST_SUFFIX}"
        )

    # -- load / store --------------------------------------------------

    def load(
        self,
        profile: BenchmarkProfile,
        length: int,
        base: int,
        seed: int,
        instance: int,
    ) -> SyntheticTrace | None:
        """Load one trace from disk; ``None`` (never an exception) on a
        missing, corrupt, truncated, or key-mismatching file."""
        path = self.path_for(profile, length, base, seed, instance)
        try:
            data = path.read_bytes()
        except OSError:
            self.disk_misses += 1
            return None
        name = _key_name(profile, length, base, seed, instance)
        try:
            header, columns = ingest.decode_trace(data, path)
            ok = header.name == name and header.records == length
        except ingest.IngestError:
            ok = False
        if not ok:
            # Corrupt or another key's file: drop it so the follow-up store
            # rewrites a clean one.
            self.rejected += 1
            self.disk_misses += 1
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        self.disk_hits += 1
        return SyntheticTrace.from_arrays(profile, length, base, seed, instance, columns)

    def store(self, trace: SyntheticTrace) -> Path:
        """Persist one trace atomically (see :func:`ingest.export_trace`);
        returns its path."""
        key = (trace.profile, trace.length, trace.base, trace.seed, trace.instance)
        path = self.path_for(*key)
        ingest.export_trace(trace, path, name=_key_name(*key))
        self.stores += 1
        return path

    # -- maintenance / introspection -----------------------------------

    def _artifact_files(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(
            f
            for f in self.directory.iterdir()
            if f.suffix in (ingest.INGEST_SUFFIX, _LEGACY_SUFFIX)
        )

    def stats(self) -> dict[str, object]:
        """On-disk footprint plus this process's hit/miss counters."""
        files = self._artifact_files()
        return {
            "directory": str(self.directory),
            "entries": len(files),
            "total_bytes": sum(f.stat().st_size for f in files),
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "stores": self.stores,
            "rejected": self.rejected,
        }

    def clear(self) -> int:
        """Delete every trace file, older-format ones included (and stray
        temp files); returns the count of trace files removed."""
        removed = 0
        for f in self._artifact_files():
            with contextlib.suppress(OSError):
                f.unlink()
                removed += 1
        if self.directory.is_dir():
            for tmp in self.directory.glob("*.tmp-*"):
                with contextlib.suppress(OSError):
                    tmp.unlink()
        return removed


#: This process's cache object per directory (see :func:`trace_cache_for`).
_CACHES: dict[str, TraceArtifactCache] = {}


def trace_cache_for(directory: str | Path | None) -> TraceArtifactCache | None:
    """This process's one :class:`TraceArtifactCache` for ``directory``
    (``None`` for no directory).

    Every runner, sweep and worker job that names a directory gets the same
    object, so its counters tell what the whole process loaded and stored.
    Pool workers are other processes, with their own objects.
    """
    if not directory:
        return None
    key = str(Path(directory))
    cache = _CACHES.get(key)
    if cache is None:
        cache = _CACHES[key] = TraceArtifactCache(directory)
    return cache
