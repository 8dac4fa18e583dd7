"""Checkpoint/resume campaign: preemptible execution must be bit-exact.

Three layers are pinned here, mirroring the service's preemption path:

- **Parity** — ``run_checkpointed`` is behavior-neutral, and resuming from
  any captured envelope on a fresh simulator finishes bit-identical to a
  run that never paused, across the staged and fused engines and against
  the vectorized batch backend, for all six static policies *and* the
  meta-policy (whose hysteresis state and shared gate counters must
  survive the round trip).
- **Envelope codec** — ``checkpoint_to_bytes`` / ``peek_checkpoint`` /
  ``checkpoint_from_bytes`` reject corruption, truncation, version skew
  and header/payload cycle disagreement with :class:`SnapshotError`.
- **Wire path** — the server's ``PUT /v1/leases/{id}/checkpoint`` answers
  every hostile upload with a clean 4xx (hypothesis-fuzzed: byte-mutated,
  truncated and version-skewed envelopes, plus arbitrary JSON bodies),
  never a 5xx, and never stores a corrupt resume point; the worker's
  grant decoding fails open to a cold cycle-0 run rather than raising —
  the same fail-closed/fail-open discipline tests/test_trace_ingest.py
  pins for the ingest boundary.

Plus: a worker restores the checkpoint its lease ships whether or not it
captures checkpoints itself.
"""

from __future__ import annotations

import base64
import json
import struct

import pytest

from repro.config import SimulationConfig, baseline
from repro.core import Simulator, make_policy
from repro.core.columnar import (
    CHECKPOINT_VERSION,
    ColumnarState,
    SnapshotError,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    peek_checkpoint,
    run_checkpointed,
)
from repro.core.vec import run_batch
from repro.experiments.parallel import simulate_resumable
from repro.workloads import build_programs, get_workload

POLICIES = ("icount", "stall", "flush", "dg", "pdg", "dwarn")

_CKPT_HEADER = struct.Struct("<4sHQQI")


def _simcfg(**kw) -> SimulationConfig:
    base = dict(warmup_cycles=100, measure_cycles=400, trace_length=3_000, seed=2024)
    base.update(kw)
    return SimulationConfig(**base)


def _fresh_sim(workload: str, policy: str, simcfg: SimulationConfig) -> Simulator:
    programs = build_programs(get_workload(workload), simcfg)
    return Simulator(baseline(), programs, make_policy(policy), simcfg)


def _assert_same_outcome(a: Simulator, b: Simulator) -> None:
    assert a.result() == b.result()
    assert a.cycle == b.cycle
    assert list(a.stats.committed) == list(b.stats.committed)
    assert list(a.stats.fetched) == list(b.stats.fetched)
    assert list(a.stats.gated_cycles) == list(b.stats.gated_cycles)
    assert list(a.stats.mispredicts) == list(b.stats.mispredicts)


def _capture_envelopes(
    workload: str, policy: str, simcfg: SimulationConfig, interval: int
):
    """Run to completion under ``run_checkpointed``; returns the final
    result plus every envelope captured along the way."""
    sim = _fresh_sim(workload, policy, simcfg)
    envelopes: list[bytes] = []
    result = run_checkpointed(
        sim, interval, lambda s: envelopes.append(checkpoint_to_bytes(s))
    )
    return result, envelopes, sim


def _resume_from(
    envelope: bytes,
    workload: str,
    policy: str,
    simcfg: SimulationConfig,
    *,
    staged: bool = False,
) -> Simulator:
    """Decode an envelope, restore onto a fresh simulator, finish the run."""
    cycle, total, state = checkpoint_from_bytes(envelope)
    sim = _fresh_sim(workload, policy, simcfg)
    state.restore_into(sim)
    assert sim.cycle == cycle
    if staged:
        sim._step = sim._step  # pin => staged reference path
        assert not sim._fast_eligible()
    sim.run_cycles(total - cycle)
    sim.validate_state()
    return sim


# ----------------------------------------------------------------------
# Parity: resumed == uninterrupted, bit for bit


class TestBitExactResume:
    @pytest.mark.parametrize("policy", POLICIES + ("meta",))
    def test_every_envelope_resumes_bit_identical(self, policy):
        """Checkpointing is behavior-neutral, and *every* captured envelope
        — early, mid-run, late — finishes bit-identical to the reference,
        including one captured before the warmup window closes."""
        simcfg = _simcfg()
        ref = _fresh_sim("2-MEM", policy, simcfg)
        ref_result = ref.run()
        ckpt_result, envelopes, _ = _capture_envelopes("2-MEM", policy, simcfg, 125)
        assert ckpt_result == ref_result
        assert [peek_checkpoint(e)[0] for e in envelopes] == [125, 250, 375]
        for envelope in envelopes:
            resumed = _resume_from(envelope, "2-MEM", policy, simcfg)
            _assert_same_outcome(ref, resumed)

    def test_resume_onto_staged_engine_matches(self):
        """A checkpoint captured under the fused engine restores onto the
        staged reference path and still finishes bit-identically."""
        simcfg = _simcfg()
        ref = _fresh_sim("2-MEM", "dwarn", simcfg)
        ref_result = ref.run()
        _, envelopes, _ = _capture_envelopes("2-MEM", "dwarn", simcfg, 250)
        resumed = _resume_from(envelopes[0], "2-MEM", "dwarn", simcfg, staged=True)
        assert resumed.result() == ref_result

    def test_resume_matches_vec_batch_reference(self):
        """Resumed serial runs agree with the vectorized batch backend's
        uninterrupted lanes — the parity triangle closes across engines."""
        simcfg = _simcfg()
        lanes = [("2-MEM", pol) for pol in POLICIES]
        vec_results = run_batch(baseline(), simcfg, lanes)
        for (wl, pol), vec_result in zip(lanes, vec_results):
            _, envelopes, _ = _capture_envelopes(wl, pol, simcfg, 250)
            resumed = _resume_from(envelopes[0], wl, pol, simcfg)
            assert resumed.result() == vec_result, f"{wl}/{pol} diverged from vec"

    def test_meta_hysteresis_and_shared_gate_counters_survive(self):
        """The meta-policy's switch history, streak state and the gate-count
        array it *shares by identity* with its gating sub-policies must all
        survive the round trip — a copied (non-shared) array would silently
        desynchronize gating statistics after resume."""
        simcfg = _simcfg(measure_cycles=1_400, trace_length=6_000, seed=7)
        ref = _fresh_sim("2-MEM", "meta-w64", simcfg)
        ref_result = ref.run()
        _, envelopes, _ = _capture_envelopes("2-MEM", "meta-w64", simcfg, 500)
        resumed = _resume_from(envelopes[-1], "2-MEM", "meta-w64", simcfg)
        assert resumed.result() == ref_result
        assert resumed.policy.switches == ref.policy.switches
        assert resumed.policy._streak == ref.policy._streak
        assert resumed.policy._streak_name == ref.policy._streak_name
        shared = [
            sub
            for sub in resumed.policy._subs.values()
            if hasattr(sub, "_gate_count")
        ]
        assert shared, "expected gating sub-policies under the meta-policy"
        for sub in shared:
            assert sub._gate_count is resumed.policy._gate_count

    def test_run_checkpointed_rejects_bad_interval_and_observed_sims(self):
        simcfg = _simcfg()
        sim = _fresh_sim("2-MEM", "dwarn", simcfg)
        with pytest.raises(ValueError):
            run_checkpointed(sim, 0, lambda s: None)


# ----------------------------------------------------------------------
# Envelope codec failure modes


def _one_envelope(simcfg=None, workload="2-MEM", policy="dwarn", at=200) -> bytes:
    simcfg = simcfg or _simcfg(warmup_cycles=0, measure_cycles=500)
    sim = _fresh_sim(workload, policy, simcfg)
    sim._begin_window()
    sim.run_cycles(at)
    return checkpoint_to_bytes(sim)


class TestCheckpointEnvelope:
    def test_roundtrip_and_peek(self):
        envelope = _one_envelope()
        assert envelope[:4] == b"DWCK"
        assert peek_checkpoint(envelope) == (200, 500)
        cycle, total, state = checkpoint_from_bytes(envelope)
        assert (cycle, total) == (200, 500)
        assert isinstance(state, ColumnarState)

    def test_version_skew_rejected(self):
        envelope = _one_envelope()
        magic, version, cycle, total, crc = _CKPT_HEADER.unpack_from(envelope)
        assert version == CHECKPOINT_VERSION
        skewed = _CKPT_HEADER.pack(magic, version + 1, cycle, total, crc)
        skewed += envelope[_CKPT_HEADER.size:]
        with pytest.raises(SnapshotError):
            peek_checkpoint(skewed)

    def test_truncation_and_bad_magic_rejected(self):
        envelope = _one_envelope()
        for cut in (0, 3, _CKPT_HEADER.size, len(envelope) // 2):
            with pytest.raises(SnapshotError):
                peek_checkpoint(envelope[:cut])
        with pytest.raises(SnapshotError):
            peek_checkpoint(b"XXXX" + envelope[4:])

    def test_payload_corruption_rejected(self):
        envelope = bytearray(_one_envelope())
        envelope[-1] ^= 0xFF
        with pytest.raises(SnapshotError):
            peek_checkpoint(bytes(envelope))

    def test_header_cycle_must_match_snapshot_cycle(self):
        """The header cycle is outside the CRC (it guards the snapshot
        blob), so a tampered header must be caught by the cross-check
        against the snapshot's own metadata."""
        envelope = _one_envelope()
        magic, version, cycle, total, crc = _CKPT_HEADER.unpack_from(envelope)
        forged = _CKPT_HEADER.pack(magic, version, cycle + 1, total, crc)
        forged += envelope[_CKPT_HEADER.size:]
        assert peek_checkpoint(forged) == (201, 500)  # peek alone can't tell
        with pytest.raises(SnapshotError):
            checkpoint_from_bytes(forged)


# ----------------------------------------------------------------------
# Server endpoint: deterministic reject matrix


def _svc_with_lease():
    """An in-process service holding one leased checkpointable job.

    The executor loop never runs (no asyncio loop), so the job stays
    leased for as long as the test needs; ``_route`` is synchronous.
    """
    from repro.service.server import ServiceConfig, SimulationService

    svc = SimulationService(ServiceConfig())
    spec = {
        "workload": "2-MEM",
        "policy": "dwarn",
        "seed": 2024,
        "warmup_cycles": 0,
        "measure_cycles": 500,
        "trace_length": 3_000,
    }
    status, payload, _ = svc._route("POST", "/v1/jobs", json.dumps(spec).encode())
    assert status in (200, 202), payload
    status, grant, _ = svc._route(
        "POST", "/v1/leases", json.dumps({"worker": "w0", "capacity": 1}).encode()
    )
    assert status == 200 and grant["jobs"], grant
    return svc, grant["lease"]["id"], grant["jobs"][0]["id"]


def _put_checkpoint(svc, lease_id: str, body: dict) -> tuple[int, dict]:
    status, payload, _ = svc._route(
        "PUT", f"/v1/leases/{lease_id}/checkpoint", json.dumps(body).encode()
    )
    return status, payload


@pytest.fixture(scope="module")
def envelope_500() -> bytes:
    """One valid envelope matching the ``_svc_with_lease`` job horizon."""
    return _one_envelope(_simcfg(warmup_cycles=0, measure_cycles=500), at=200)


class TestServerCheckpointEndpoint:
    def test_accept_then_latest_cycle_wins(self, envelope_500):
        svc, lease_id, job_id = _svc_with_lease()
        later = _one_envelope(_simcfg(warmup_cycles=0, measure_cycles=500), at=300)
        b64 = base64.b64encode(later).decode()
        status, payload = _put_checkpoint(
            svc, lease_id, {"job_id": job_id, "cycle": 300, "data": b64}
        )
        assert (status, payload["stored"], payload["cycle"]) == (200, True, 300)
        # An out-of-order (older) upload is acknowledged but never regresses.
        earlier = base64.b64encode(envelope_500).decode()
        status, payload = _put_checkpoint(
            svc, lease_id, {"job_id": job_id, "cycle": 200, "data": earlier}
        )
        assert (status, payload["stored"], payload["cycle"]) == (200, False, 300)
        key = svc.jobs[job_id].key
        assert svc.checkpoints[key].cycle == 300
        # The redelivered lease ships the stored resume point.
        svc._redeliver(svc.jobs[job_id], "test preemption")
        status, grant, _ = svc._route(
            "POST", "/v1/leases", json.dumps({"worker": "w1", "capacity": 1}).encode()
        )
        assert status == 200
        entry = grant["jobs"][0]
        assert entry["checkpoint"]["cycle"] == 300
        assert base64.b64decode(entry["checkpoint"]["data"]) == later
        assert grant["checkpoint_version"] == CHECKPOINT_VERSION

    def test_unknown_lease_410_but_not_consumed(self, envelope_500):
        svc, lease_id, job_id = _svc_with_lease()
        b64 = base64.b64encode(envelope_500).decode()
        status, _ = _put_checkpoint(
            svc, "nope", {"job_id": job_id, "cycle": 200, "data": b64}
        )
        assert status == 410
        # The real lease is still alive: a heartbeat succeeds.
        status, _, _ = svc._route("POST", f"/v1/leases/{lease_id}/heartbeat", b"{}")
        assert status == 200

    def test_wrong_job_404_and_wrong_method_405(self, envelope_500):
        svc, lease_id, _ = _svc_with_lease()
        b64 = base64.b64encode(envelope_500).decode()
        status, _ = _put_checkpoint(
            svc, lease_id, {"job_id": "stranger", "cycle": 200, "data": b64}
        )
        assert status == 404
        status, _, _ = svc._route(
            "POST", f"/v1/leases/{lease_id}/checkpoint", b"{}"
        )
        assert status == 405

    def test_horizon_mismatch_rejected(self):
        svc, lease_id, job_id = _svc_with_lease()
        alien = _one_envelope(_simcfg(warmup_cycles=0, measure_cycles=400), at=200)
        b64 = base64.b64encode(alien).decode()
        status, payload = _put_checkpoint(
            svc, lease_id, {"job_id": job_id, "cycle": 200, "data": b64}
        )
        assert status == 400 and "horizon" in payload["error"]
        assert not svc.checkpoints

    def test_oversized_and_malformed_bodies_rejected(self, envelope_500):
        svc, lease_id, job_id = _svc_with_lease()
        from repro.service.protocol import MAX_CHECKPOINT_BYTES

        huge = base64.b64encode(b"\0" * (MAX_CHECKPOINT_BYTES + 1)).decode()
        status, _ = _put_checkpoint(
            svc, lease_id, {"job_id": job_id, "cycle": 200, "data": huge}
        )
        assert status == 400
        for body in (
            {},
            {"job_id": job_id},
            {"job_id": job_id, "cycle": -1, "data": "AA=="},
            {"job_id": job_id, "cycle": 200, "data": "not base64!!"},
            {"job_id": job_id, "cycle": 200, "data": "AA==", "extra": 1},
        ):
            status, _ = _put_checkpoint(svc, lease_id, body)
            assert status == 400, body
        assert not svc.checkpoints

    def test_completion_pops_resume_point(self, envelope_500):
        svc, lease_id, job_id = _svc_with_lease()
        b64 = base64.b64encode(envelope_500).decode()
        status, _ = _put_checkpoint(
            svc, lease_id, {"job_id": job_id, "cycle": 200, "data": b64}
        )
        assert status == 200 and svc.checkpoints
        results = [
            {
                "job_id": job_id,
                "ok": False,
                "error": "synthetic terminal outcome",
            }
        ]
        status, _, _ = svc._route(
            "POST",
            f"/v1/leases/{lease_id}/result",
            json.dumps({"results": results}).encode(),
        )
        assert status == 200
        assert not svc.checkpoints  # the outcome supersedes the checkpoint


# ----------------------------------------------------------------------
# Hypothesis fuzzing of the wire path

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

_FUZZ_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _mutations(envelope: bytes):
    """Byte flips, truncations, and version skews of one valid envelope."""
    flip = st.tuples(
        st.integers(0, len(envelope) - 1), st.integers(1, 255)
    ).map(
        lambda t: envelope[: t[0]]
        + bytes([envelope[t[0]] ^ t[1]])
        + envelope[t[0] + 1:]
    )
    truncate = st.integers(0, len(envelope) - 1).map(lambda k: envelope[:k])
    skew = st.integers(1, 0xFFFF - CHECKPOINT_VERSION).map(
        lambda d: envelope[:4]
        + struct.pack("<H", CHECKPOINT_VERSION + d)
        + envelope[6:]
    )
    return st.one_of(flip, truncate, skew)


class TestWirePathFuzz:
    @given(data=st.data())
    @settings(**_FUZZ_SETTINGS)
    def test_mutated_envelopes_always_4xx_and_never_stored(
        self, data, envelope_500
    ):
        """Any single corruption of a valid envelope — bit flip anywhere,
        truncation, version skew — is rejected with a 4xx and leaves the
        resume table empty. No 5xx, no silently-wrong resume point."""
        svc, lease_id, job_id = _svc_with_lease()
        mutant = data.draw(_mutations(envelope_500))
        status, payload = _put_checkpoint(
            svc,
            lease_id,
            {
                "job_id": job_id,
                "cycle": 200,
                "data": base64.b64encode(mutant).decode(),
            },
        )
        assert 400 <= status < 500, (status, payload)
        assert not svc.checkpoints
        json.dumps(payload)

    @given(
        body=st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-(2**63), 2**63),
                st.floats(allow_nan=False),
                st.text(max_size=20),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.text(max_size=8), inner, max_size=4),
            ),
            max_leaves=8,
        )
    )
    @settings(**_FUZZ_SETTINGS)
    def test_arbitrary_json_bodies_never_5xx(self, body):
        svc, lease_id, _ = _svc_with_lease()
        status, payload, _ = svc._route(
            "PUT",
            f"/v1/leases/{lease_id}/checkpoint",
            json.dumps(body).encode(),
        )
        assert 200 <= status < 500, (status, payload)
        assert not svc.checkpoints
        json.dumps(payload)

    @given(data=st.data())
    @settings(**_FUZZ_SETTINGS)
    def test_worker_grant_decode_fails_open(self, data, envelope_500):
        """The worker side of the same boundary: a corrupt shipped grant
        must yield ``restore=None`` (cold cycle-0 rerun), never raise."""
        from repro.service.protocol import JobSpec
        from repro.service.worker import Worker, WorkerConfig

        worker = Worker(WorkerConfig(quiet=True), transport=object())
        spec = JobSpec.from_dict(
            {
                "workload": "2-MEM",
                "policy": "dwarn",
                "seed": 2024,
                "warmup_cycles": 0,
                "measure_cycles": 500,
                "trace_length": 3_000,
            }
        )
        grant_data = data.draw(
            st.one_of(
                _mutations(envelope_500).map(
                    lambda m: base64.b64encode(m).decode()
                ),
                st.text(max_size=40),
                st.integers(),
                st.none(),
            )
        )
        cycle = data.draw(st.integers(-5, 600))
        state = worker._decode_checkpoint(
            spec, {"cycle": cycle, "data": grant_data}
        )
        assert state is None or isinstance(state, ColumnarState)


# ----------------------------------------------------------------------
# simulate_resumable: the worker's execution primitive


class TestSimulateResumable:
    def test_resumes_from_state_and_matches_cold(self):
        simcfg = _simcfg(warmup_cycles=0, measure_cycles=500)
        cold, resumed_from, _ = simulate_resumable(
            baseline(), simcfg, "2-MEM", "dwarn"
        )
        assert resumed_from == 0
        envelope = _one_envelope(simcfg, at=200)
        _, _, state = checkpoint_from_bytes(envelope)
        warm, resumed_from, _ = simulate_resumable(
            baseline(), simcfg, "2-MEM", "dwarn", restore=state
        )
        assert resumed_from == 200
        assert warm == cold

    def test_fail_open_on_mismatched_snapshot(self):
        """A snapshot from a different workload shape (4 threads vs 2)
        cannot restore; the job silently reruns cold instead of failing."""
        simcfg = _simcfg(warmup_cycles=0, measure_cycles=500)
        cold, _, _ = simulate_resumable(baseline(), simcfg, "2-MEM", "dwarn")
        alien_env = _one_envelope(simcfg, workload="4-MIX", at=200)
        _, _, alien = checkpoint_from_bytes(alien_env)
        result, resumed_from, _ = simulate_resumable(
            baseline(), simcfg, "2-MEM", "dwarn", restore=alien
        )
        assert resumed_from == 0
        assert result == cold

    def test_on_checkpoint_fires_at_interval_edges(self):
        simcfg = _simcfg(warmup_cycles=0, measure_cycles=500)
        seen: list[int] = []
        result, resumed_from, _ = simulate_resumable(
            baseline(),
            simcfg,
            "2-MEM",
            "dwarn",
            checkpoint_interval=125,
            on_checkpoint=lambda sim: seen.append(sim.cycle),
        )
        assert seen == [125, 250, 375]
        assert resumed_from == 0
        cold, _, _ = simulate_resumable(baseline(), simcfg, "2-MEM", "dwarn")
        assert result == cold


# ----------------------------------------------------------------------
# Worker: every lease runs through simulate_resumable


class _OneLeaseTransport:
    """Fake transport: grants one lease holding ``entry``, records the
    result upload and answers every heartbeat."""

    def __init__(self, entry: dict) -> None:
        self.entry = entry
        self.uploads: list[dict] = []

    def request(self, method, path, body=None):
        if path == "/v1/leases":
            return 200, {
                "lease": {"id": "lease-1"},
                "lease_ttl": 15.0,
                "checkpoint_version": CHECKPOINT_VERSION,
                "jobs": [self.entry],
            }, {}
        if path.endswith("/result"):
            self.uploads.append(body)
        return 200, {}, {}


class TestWorkerRestoresShippedCheckpoint:
    def test_worker_without_interval_resumes_shipped_checkpoint(self, envelope_500):
        """A worker started without ``--checkpoint-interval`` still
        restores the checkpoint its lease ships, resumes at its cycle and
        uploads the result a cold run produces."""
        from repro.service.protocol import JobSpec, result_payload
        from repro.service.worker import Worker, WorkerConfig

        spec = {
            "workload": "2-MEM",
            "policy": "dwarn",
            "seed": 2024,
            "warmup_cycles": 0,
            "measure_cycles": 500,
            "trace_length": 3_000,
        }
        transport = _OneLeaseTransport({
            "id": "job-1",
            "spec": spec,
            "checkpoint": {"cycle": 200, "data": base64.b64encode(envelope_500).decode()},
        })
        cfg = WorkerConfig(worker_id="w", max_leases=1, quiet=True)
        assert cfg.checkpoint_interval == 0
        worker = Worker(cfg, transport=transport)
        assert worker.run() == 0

        (upload,) = transport.uploads
        (entry,) = upload["results"]
        assert entry["job_id"] == "job-1" and entry["ok"], entry
        assert entry.get("resumed_from") == 200
        assert worker.stats["resumes"] == 1
        simcfg = JobSpec.from_dict(spec).sim_config()
        cold, _, _ = simulate_resumable(baseline(), simcfg, "2-MEM", "dwarn")
        assert entry["result"] == result_payload(cold)
