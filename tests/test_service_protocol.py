"""Job-spec canonicalization, validation, and lifecycle records.

The dedup/coalescing satellite lives here: identical specs spelled with
differently-ordered keys (or with defaults made explicit) must produce the
same canonical JSON and the same cache key — that identity is what the
queue coalesces on and what the result store is keyed by.

The property-based half (hypothesis) fuzzes every parser that faces client
or worker input — ``JobSpec.from_dict``, ``LeaseRequest.from_dict``,
``parse_result_upload``, ``result_from_payload``, and the server's
``_route`` dispatch itself — pinning the protocol's one security-relevant
invariant: malformed input yields :class:`SpecError` (HTTP 4xx), never any
other exception, never a 5xx.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.service.protocol import (
    MAX_LEASE_JOBS,
    MAX_LEASE_WAIT,
    Job,
    JobResult,
    JobSpec,
    JobState,
    LeaseRequest,
    SpecError,
    parse_result_upload,
    result_from_payload,
)


class TestCanonicalization:
    def test_key_order_irrelevant(self):
        """The satellite's core claim: reordered JSON keys, same cache key."""
        a = JobSpec.from_dict(
            {"workload": "2-MIX", "policy": "dwarn", "seed": 99, "machine": "small"}
        )
        b = JobSpec.from_dict(
            {"machine": "small", "seed": 99, "policy": "dwarn", "workload": "2-MIX"}
        )
        assert a == b
        assert a.canonical_json() == b.canonical_json()
        assert a.cache_key() == b.cache_key()

    def test_defaults_explicit_vs_omitted(self):
        """Spelling out a default field changes nothing."""
        a = JobSpec.from_dict({"workload": "4-ILP", "policy": "icount"})
        b = JobSpec.from_dict(
            {
                "workload": "4-ILP",
                "policy": "icount",
                "machine": "baseline",
                "seed": 12345,
                "warmup_cycles": 5_000,
                "measure_cycles": 40_000,
                "trace_length": 60_000,
            }
        )
        assert a.cache_key() == b.cache_key()

    def test_canonical_json_is_sorted_and_compact(self):
        spec = JobSpec.from_dict({"workload": "2-MEM", "policy": "flush"})
        text = spec.canonical_json()
        assert " " not in text
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_different_specs_different_keys(self):
        base = {"workload": "2-MIX", "policy": "dwarn"}
        k0 = JobSpec.from_dict(base).cache_key()
        for delta in (
            {"policy": "icount"},
            {"workload": "2-MEM"},
            {"seed": 1},
            {"machine": "deep"},
            {"measure_cycles": 10_000},
            {"trace_length": 30_000},
            {"warmup_cycles": 1},
        ):
            other = JobSpec.from_dict({**base, **delta})
            assert other.cache_key() != k0, delta

    def test_cache_key_stable_across_processes(self):
        """Keys must be reproducible (stable_hash64, not PYTHONHASHSEED)."""
        spec = JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn"})
        assert spec.cache_key() == "1ae3020cf63f3c19"

    def test_group_key_batches_config_not_pair(self):
        a = JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn"})
        b = JobSpec.from_dict({"workload": "8-MEM", "policy": "flush"})
        c = JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn", "seed": 1})
        assert a.group_key() == b.group_key()
        assert a.group_key() != c.group_key()


class TestValidation:
    def test_required_fields(self):
        with pytest.raises(SpecError, match="workload"):
            JobSpec.from_dict({"policy": "dwarn"})
        with pytest.raises(SpecError, match="policy"):
            JobSpec.from_dict({"workload": "2-MIX"})

    def test_unknown_field_rejected(self):
        """A typo must fail loudly, not silently run the default config."""
        with pytest.raises(SpecError, match="polcy"):
            JobSpec.from_dict({"workload": "2-MIX", "polcy": "dwarn", "policy": "dwarn"})

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError, match="object"):
            JobSpec.from_dict(["workload", "policy"])  # type: ignore[arg-type]

    def test_type_checks(self):
        with pytest.raises(SpecError, match="seed"):
            JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn", "seed": "7"})
        with pytest.raises(SpecError, match="seed"):
            JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn", "seed": True})

    def test_bounds(self):
        with pytest.raises(SpecError, match="measure_cycles"):
            JobSpec.from_dict(
                {"workload": "2-MIX", "policy": "dwarn", "measure_cycles": 0}
            )
        with pytest.raises(SpecError, match="measure_cycles"):
            JobSpec.from_dict(
                {"workload": "2-MIX", "policy": "dwarn", "measure_cycles": 10**9}
            )
        with pytest.raises(SpecError, match="machine"):
            JobSpec.from_dict(
                {"workload": "2-MIX", "policy": "dwarn", "machine": "mega"}
            )
        with pytest.raises(SpecError, match="warmup"):
            JobSpec.from_dict(
                {"workload": "2-MIX", "policy": "dwarn", "warmup_cycles": -1}
            )


class TestConfigMaterialization:
    def test_sim_config_round_trip(self):
        spec = JobSpec.from_dict(
            {
                "workload": "2-MIX",
                "policy": "dwarn",
                "seed": 42,
                "warmup_cycles": 100,
                "measure_cycles": 700,
                "trace_length": 4_000,
            }
        )
        cfg = spec.sim_config()
        assert cfg == SimulationConfig(
            warmup_cycles=100, measure_cycles=700, trace_length=4_000, seed=42
        )
        assert spec.machine_config().name == "baseline"


class TestJob:
    def test_status_dict_shape(self):
        spec = JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn"})
        job = Job(id="abc123", spec=spec, priority=2)
        st = job.status_dict()
        assert st["id"] == "abc123"
        assert st["state"] == JobState.QUEUED
        assert st["key"] == spec.cache_key()
        assert st["spec"]["workload"] == "2-MIX"
        assert st["priority"] == 2
        assert job.latency is None

    def test_latency_once_terminal(self):
        spec = JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn"})
        job = Job(id="x", spec=spec, submitted_at=10.0)
        job.finished_at = 12.5
        assert job.latency == pytest.approx(2.5)


# ----------------------------------------------------------------------
# Property-based fuzzing: malformed input -> SpecError/4xx, never a traceback


def _json_values(max_leaves: int = 10):
    """Arbitrary JSON-compatible values (what any client can actually send)."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-(10**9), 10**9)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=20)
    )
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=10), children, max_size=4),
        max_leaves=max_leaves,
    )


SPEC_FIELDS = [f.name for f in dataclasses.fields(JobSpec)]


class TestSpecFuzz:
    @given(data=_json_values())
    def test_arbitrary_json_never_escapes_specerror(self, data):
        """Any JSON value either parses or raises SpecError — nothing else."""
        try:
            JobSpec.from_dict(data)
        except SpecError:
            pass

    @given(
        data=st.dictionaries(
            st.sampled_from(SPEC_FIELDS) | st.text(max_size=12),
            _json_values(max_leaves=4),
            max_size=8,
        )
    )
    def test_plausible_dicts_accepted_specs_round_trip(self, data):
        """Near-miss dicts (real field names, junk values): anything that
        *is* accepted must survive the canonical round trip key-stably."""
        try:
            spec = JobSpec.from_dict(data)
        except SpecError:
            return
        again = JobSpec.from_dict(json.loads(spec.canonical_json()))
        assert again == spec
        assert again.cache_key() == spec.cache_key()


class TestLeaseMessageFuzz:
    @given(
        worker=st.text(min_size=1, max_size=120).filter(lambda s: s.strip()),
        capacity=st.integers(1, MAX_LEASE_JOBS),
    )
    def test_lease_request_round_trip(self, worker, capacity):
        req = LeaseRequest.from_dict({"worker": worker, "capacity": capacity})
        assert LeaseRequest.from_dict(req.to_dict()) == req

    @given(
        wait=st.floats(0.0, MAX_LEASE_WAIT)
        | st.integers(0, int(MAX_LEASE_WAIT))
    )
    def test_lease_request_wait_round_trip(self, wait):
        req = LeaseRequest.from_dict({"worker": "w", "wait": wait})
        assert req.wait == wait
        assert LeaseRequest.from_dict(req.to_dict()) == req

    def test_lease_request_without_wait_keeps_its_wire_form(self):
        req = LeaseRequest.from_dict({"worker": "w", "capacity": 2})
        assert req.wait == 0.0
        assert req.to_dict() == {"worker": "w", "capacity": 2}

    @pytest.mark.parametrize(
        "wait",
        [True, False, -0.5, -1, float("nan"), float("inf"), -float("inf"),
         MAX_LEASE_WAIT + 0.001, int(MAX_LEASE_WAIT) + 1, "1", None, [1]],
    )
    def test_lease_request_bad_wait_rejected(self, wait):
        with pytest.raises(SpecError, match="lease wait"):
            LeaseRequest.from_dict({"worker": "w", "wait": wait})

    def test_hold_fits_inside_every_transport_timeout(self):
        """A held lease request must not look like a dead peer: the cap
        stays below the worker client's and the router's forward timeout."""
        from repro.service.client import ServiceClient
        from repro.service.router import RouterConfig

        assert MAX_LEASE_WAIT < ServiceClient().timeout
        assert MAX_LEASE_WAIT < RouterConfig().timeout

    @given(data=_json_values())
    def test_lease_request_fuzz(self, data):
        try:
            LeaseRequest.from_dict(data)
        except SpecError:
            pass

    @given(data=_json_values())
    def test_result_upload_fuzz(self, data):
        try:
            parse_result_upload(data)
        except SpecError:
            pass

    @given(
        entries=st.lists(
            st.dictionaries(
                st.sampled_from(["job_id", "ok", "result", "error", "secs", "retries"])
                | st.text(max_size=8),
                _json_values(max_leaves=4),
                max_size=6,
            ),
            max_size=4,
        )
    )
    def test_result_upload_near_miss_entries(self, entries):
        """Entry-shaped garbage: accepted uploads must yield JobResults
        whose invariants (ok xor error, finite secs) actually hold."""
        try:
            parsed = parse_result_upload({"results": entries})
        except SpecError:
            return
        assert len(parsed) == len(entries)
        for r in parsed:
            assert isinstance(r, JobResult)
            assert (r.result is None) or r.ok
            assert (r.error is None) or not r.ok
            assert r.secs >= 0.0

    def test_valid_upload_parses(self):
        parsed = parse_result_upload(
            {
                "results": [
                    {"job_id": "a", "ok": False, "error": "boom"},
                    {"job_id": "b", "ok": True, "result": {}, "secs": 1.5, "retries": 1},
                ]
            }
        )
        assert [r.job_id for r in parsed] == ["a", "b"]
        assert parsed[0].error == "boom" and parsed[1].secs == 1.5

    @given(data=_json_values())
    def test_result_payload_fuzz(self, data):
        """Worker uploads cross a trust boundary: junk must never build a
        SimResult (or poison a cache) — it raises SpecError instead."""
        try:
            result_from_payload(data)
        except SpecError:
            pass


class TestRouteFuzz:
    """Fuzz the server's dispatch directly: whatever arrives, the answer is
    a well-formed (status < 500, JSON-serializable) response — the contract
    the chaos tests rely on when they fling faults at a live daemon."""

    @given(
        method=st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD"]),
        path=st.one_of(
            st.sampled_from(
                [
                    "/",
                    "/healthz",
                    "/metrics",
                    "/v1/jobs",
                    "/v1/jobs/zzz",
                    "/v1/results/zzz",
                    "/v1/leases",
                    "/v1/leases/x/heartbeat",
                    "/v1/leases/x/result",
                    "/v1/leases//",
                ]
            ),
            st.text(max_size=30).map(lambda s: "/" + s),
        ),
        body=st.one_of(
            st.binary(max_size=200),
            _json_values(max_leaves=6).map(lambda v: json.dumps(v).encode("utf-8")),
        ),
    )
    def test_route_never_5xx_never_raises(self, method, path, body):
        from repro.service.server import ServiceConfig, SimulationService

        svc = SimulationService(ServiceConfig())
        status, payload, headers = svc._route(method, path, body)
        assert 200 <= status < 500, (method, path, body, payload)
        assert isinstance(payload, dict)
        json.dumps(payload)  # must be serializable back to the client
        assert isinstance(headers, dict)
