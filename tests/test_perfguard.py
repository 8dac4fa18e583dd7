"""Unit tests for perfguard: the committed digests, and the comparison
logic (pure, no timing).

The behaviour digests are collected here too (about 1 s), so every Python
version the test matrix runs checks them against
``benchmarks/baselines.json``. The timed collection paths (speed, sweep)
run in CI's perf-smoke job; here we pin the *decision* logic: what counts
as digest drift, a speed regression, a sweep regression, and a failed
service load-test report; that the committed baseline arms every row of the
gate table; and what ``--update`` writes, with the collectors faked.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.utils import perfguard
from repro.utils.perfguard import COLLECTORS, GATES, check_service_bench, compare, main


def _base(**overrides):
    data = {
        "digests": {"4-MIX/dwarn": {"cycles": 1500, "committed": [10, 20]}},
        "speed": {"normalized_score": 100.0},
        "sweep": {"normalized_sweep_secs": 50.0},
    }
    data.update(overrides)
    return data


class TestCompareSweep:
    def test_identical_passes(self):
        assert compare(_base(), _base(), tolerance=0.20) == []

    def test_sweep_within_tolerance_passes(self):
        cur = _base(sweep={"normalized_sweep_secs": 50.0 * 1.35})
        assert compare(_base(), cur, tolerance=0.20) == []  # 2x tol = 40%

    def test_sweep_regression_fails(self):
        cur = _base(sweep={"normalized_sweep_secs": 50.0 * 1.5})
        failures = compare(_base(), cur, tolerance=0.20)
        assert len(failures) == 1
        assert "sweep regression" in failures[0]

    def test_sweep_improvement_passes(self):
        cur = _base(sweep={"normalized_sweep_secs": 10.0})
        assert compare(_base(), cur, tolerance=0.20) == []

    def test_baseline_sweep_tolerance_override(self):
        base = _base(sweep_tolerance=0.05)
        cur = _base(sweep={"normalized_sweep_secs": 50.0 * 1.2})
        failures = compare(base, cur, tolerance=0.20)
        assert len(failures) == 1 and "5%" in failures[0]

    def test_missing_sweep_sections_are_ignored(self):
        # Old baselines (no sweep) and --skip-sweep runs must not fail.
        base_no_sweep = _base()
        del base_no_sweep["sweep"]
        assert compare(base_no_sweep, _base(), tolerance=0.20) == []
        cur_no_sweep = _base()
        del cur_no_sweep["sweep"]
        assert compare(_base(), cur_no_sweep, tolerance=0.20) == []


class TestCompareExisting:
    def test_digest_drift_fails(self):
        cur = _base(digests={"4-MIX/dwarn": {"cycles": 1501, "committed": [10, 20]}})
        failures = compare(_base(), cur, tolerance=0.20)
        assert len(failures) == 1 and "digest drift" in failures[0]

    def test_speed_regression_fails(self):
        cur = _base(speed={"normalized_score": 70.0})
        failures = compare(_base(), cur, tolerance=0.20)
        assert len(failures) == 1 and "speed regression" in failures[0]

    def test_walk_regression_fails(self):
        base = _base(walk={"normalized_walk_secs": 10.0})
        within = _base(walk={"normalized_walk_secs": 11.9})
        assert compare(base, within, tolerance=0.20) == []  # 1x tol = 20%
        failures = compare(base, _base(walk={"normalized_walk_secs": 12.5}), tolerance=0.20)
        assert len(failures) == 1 and "walk regression" in failures[0]

    def test_extra_service_section_in_baseline_is_ignored(self):
        # The service floor is refereed by --service-bench, never by the
        # simulation-side compare() — an annotated baseline must not trip it.
        base = _base(service={"min_jobs_per_min": 1000.0})
        assert compare(base, _base(), tolerance=0.20) == []


def _resume(**overrides):
    data = {
        "resume_speedup": 1.8,
        "checkpoint_cycle": 10_100,
        "total_cycles": 20_200,
        "min_speedup": 1.3,
    }
    data.update(overrides)
    return data


class TestCompareResume:
    def test_speedup_above_floor_passes(self):
        base = _base(resume=_resume())
        cur = _base(resume=_resume(resume_speedup=1.35))
        assert compare(base, cur, tolerance=0.20) == []

    def test_speedup_below_floor_fails(self):
        base = _base(resume=_resume())
        cur = _base(resume=_resume(resume_speedup=1.1))
        failures = compare(base, cur, tolerance=0.20)
        assert len(failures) == 1
        assert "resume speedup" in failures[0] and "1.3x floor" in failures[0]

    def test_baseline_floor_override(self):
        base = _base(resume=_resume(min_speedup=2.0))
        cur = _base(resume=_resume(resume_speedup=1.8))
        failures = compare(base, cur, tolerance=0.20)
        assert len(failures) == 1 and "2.0x floor" in failures[0]

    def test_checkpoint_below_midpoint_fails(self):
        # A capture drifting toward cycle 0 would make the speedup gate
        # vacuous, so the midpoint requirement is checked independently.
        base = _base(resume=_resume())
        cur = _base(resume=_resume(resume_speedup=3.0, checkpoint_cycle=4000))
        failures = compare(base, cur, tolerance=0.20)
        assert len(failures) == 1 and "50%" in failures[0]

    def test_missing_resume_sections_are_ignored(self):
        # Old baselines (no resume section) and --skip-speed runs must pass.
        assert compare(_base(resume=_resume()), _base(), tolerance=0.20) == []
        assert compare(_base(), _base(resume=_resume()), tolerance=0.20) == []


def _report(**overrides):
    data = {
        "schema": 1,
        "jobs": {"requested": 1000, "completed": 1000, "failed": 0},
        "throughput": {"jobs_per_min": 5000.0, "jobs_per_sec": 83.3},
        "latency": {"p50": 0.1, "p95": 0.8},
        "dedup": {"unique_specs": 24, "distinct_results": 24, "exactly_once": True},
    }
    data.update(overrides)
    return data


class TestServiceBench:
    BASE = {"service": {"min_jobs_per_min": 1000.0}}

    def test_clean_report_passes(self):
        assert check_service_bench(_report(), self.BASE) == []

    def test_throughput_floor(self):
        failures = check_service_bench(
            _report(throughput={"jobs_per_min": 900.0}), self.BASE
        )
        assert len(failures) == 1 and "below floor 1000" in failures[0]

    def test_duplicate_results_fail(self):
        failures = check_service_bench(
            _report(dedup={"unique_specs": 24, "distinct_results": 25,
                           "exactly_once": False}),
            self.BASE,
        )
        assert len(failures) == 1 and "exactly-once" in failures[0]

    def test_lost_jobs_fail(self):
        failures = check_service_bench(
            _report(jobs={"requested": 1000, "completed": 997, "failed": 3}),
            self.BASE,
        )
        assert len(failures) == 2  # lost jobs AND incomplete count
        assert any("lost 3 job" in f for f in failures)
        assert any("997/1000" in f for f in failures)

    def test_default_floor_when_baseline_has_no_service_section(self):
        failures = check_service_bench(
            _report(throughput={"jobs_per_min": 500.0}), {}
        )
        assert len(failures) == 1 and "1000" in failures[0]

    def test_optional_p95_ceiling(self):
        base = {"service": {"min_jobs_per_min": 1000.0, "max_p95_secs": 0.5}}
        failures = check_service_bench(_report(), base)
        assert len(failures) == 1 and "p95" in failures[0]
        assert check_service_bench(_report(latency={"p50": 0.1, "p95": 0.4}), base) == []

    def test_floor_zero_disarms_throughput_gate(self):
        # What the CI referee leg uses on shared runners.
        base = {"service": {"min_jobs_per_min": 0}}
        assert check_service_bench(
            _report(throughput={"jobs_per_min": 1.0}), base
        ) == []


class TestServiceBenchCli:
    def _write(self, tmp_path, report, baseline):
        rp = tmp_path / "BENCH_service.json"
        rp.write_text(json.dumps(report))
        bp = tmp_path / "baselines.json"
        bp.write_text(json.dumps(baseline))
        return rp, bp

    def test_passing_report_exits_zero(self, tmp_path, capsys):
        rp, bp = self._write(tmp_path, _report(), TestServiceBench.BASE)
        assert main(["--service-bench", str(rp), "--baseline", str(bp)]) == 0
        out = capsys.readouterr().out
        assert "perfguard OK" in out and "1000 jobs/min" in out

    def test_failing_report_exits_one(self, tmp_path, capsys):
        rp, bp = self._write(
            tmp_path,
            _report(throughput={"jobs_per_min": 10.0}),
            TestServiceBench.BASE,
        )
        assert main(["--service-bench", str(rp), "--baseline", str(bp)]) == 1
        assert "below floor" in capsys.readouterr().err

    def test_missing_report_is_invocation_error(self, tmp_path, capsys):
        bp = tmp_path / "baselines.json"
        bp.write_text(json.dumps(TestServiceBench.BASE))
        missing = tmp_path / "nope.json"
        assert main(["--service-bench", str(missing), "--baseline", str(bp)]) == 2
        assert "not found" in capsys.readouterr().err


COMMITTED_BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines.json"


def _full_baseline():
    """Every section a full run writes, with hand-set floors and an override."""
    return _base(
        ingest={"normalized_ingest_secs": 1.0},
        walk={"normalized_walk_secs": 2.0},
        vec={"normalized_vec_score": 10.0, "batch_speedup": 9.0, "min_speedup": 6.0},
        vec_digest={
            "normalized_vec_digest_score": 10.0,
            "digest_speedup": 3.0,
            "min_speedup": 2.5,
        },
        resume=_resume(min_speedup=1.4),
        service={"min_jobs_per_min": 1000.0},
        tolerance=0.2,
        sweep_tolerance=0.5,
    )


class TestCommittedDigests:
    def test_collected_digests_match_the_committed_baseline(self):
        base = {"digests": json.loads(COMMITTED_BASELINE.read_text())["digests"]}
        current = {"digests": perfguard.collect_digests()}
        assert sorted(current["digests"]) == sorted(base["digests"])
        assert compare(base, current, tolerance=0.20) == []


class TestGateTable:
    def test_committed_baseline_arms_every_row(self):
        # A row is checked only when both files carry its section, so a
        # renamed section or key would silently disarm its gate.
        base = json.loads(COMMITTED_BASELINE.read_text())
        for gate in GATES:
            assert base[gate.section][gate.key] > 0, gate
            if gate.floor:
                assert "min_speedup" in base[gate.section], gate

    def test_collectors_and_rows_cover_each_other(self):
        assert {gate.section for gate in GATES} == set(COLLECTORS)

    @pytest.mark.parametrize("gate", GATES, ids=lambda g: f"{g.section}.{g.key}")
    def test_every_row_gates(self, gate):
        cur = _full_baseline()
        cur[gate.section][gate.key] = 0.0 if gate.better == "higher" else 1e9
        failures = compare(_full_baseline(), cur, tolerance=0.20)
        assert len(failures) == 1 and failures[0].startswith(gate.section)

    @pytest.mark.parametrize("section", sorted(COLLECTORS))
    def test_row_skipped_unless_both_files_carry_its_section(self, section):
        full, partial = _full_baseline(), _full_baseline()
        del partial[section]
        assert compare(full, partial, tolerance=0.20) == []
        assert compare(partial, full, tolerance=0.20) == []


class TestUpdate:
    FRESH_DIGESTS = {"4-MIX/dwarn": {"cycles": 1501, "committed": [11, 20]}}

    @pytest.fixture(autouse=True)
    def fake_collectors(self, monkeypatch):
        monkeypatch.setattr(perfguard, "collect_digests", lambda: self.FRESH_DIGESTS)
        for section in COLLECTORS:
            monkeypatch.setitem(COLLECTORS, section, lambda s=section: {"measured": s})

    def _update(self, path, *flags):
        assert main(["--update", *flags, "--baseline", str(path)]) == 0
        return json.loads(path.read_text())

    def test_skip_speed_refreshes_digests_and_keeps_the_rest(self, tmp_path):
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps(_full_baseline()))
        written = self._update(path, "--skip-speed")
        assert written == {**_full_baseline(), "digests": self.FRESH_DIGESTS}

    def test_seeds_default_floors_into_a_new_file(self, tmp_path):
        written = self._update(tmp_path / "new" / "baselines.json")
        assert set(written) == {"digests", "tolerance", "service", *COLLECTORS}
        assert {g.section: written[g.section]["min_speedup"] for g in GATES if g.floor} == {
            "vec": 5.0, "vec_digest": 2.2, "resume": 1.3,
        }
        assert written["tolerance"] == 0.2
        assert written["service"] == {"min_jobs_per_min": 1000.0}

    def test_keeps_the_prior_files_floors(self, tmp_path):
        path = tmp_path / "baselines.json"
        prior = _full_baseline()
        path.write_text(json.dumps(prior))
        written = self._update(path)
        for section in COLLECTORS:
            expected = {"measured": section}
            if "min_speedup" in prior[section]:
                expected["min_speedup"] = prior[section]["min_speedup"]
            assert written[section] == expected
        assert written["sweep_tolerance"] == 0.5
