"""CLI surface of the service subsystem: ``dwarn-sim version`` and the
``serve``/``worker``/``route``/``loadtest`` argument wiring (the daemons
themselves are exercised end-to-end by tests/test_service_e2e.py,
tests/test_service_router.py and tests/test_worker_chaos.py)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.columnar import CHECKPOINT_VERSION, SNAPSHOT_VERSION
from repro.experiments.runner import CACHE_VERSION
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.router import ROUTER_VERSION
from repro.service.store import STORE_VERSION
from repro.trace.artifact import ARTIFACT_VERSION


class TestVersionCommand:
    def test_prints_every_schema_version(self, capsys):
        import repro

        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert f"trace-artifact schema: v{ARTIFACT_VERSION}" in out
        assert f"result-cache schema:   v{CACHE_VERSION}" in out
        assert f"service protocol:      v{PROTOCOL_VERSION}" in out
        assert f"router schema:         v{ROUTER_VERSION}" in out
        assert f"result-store schema:   v{STORE_VERSION}" in out
        assert f"snapshot codec:        v{SNAPSHOT_VERSION}" in out
        assert f"checkpoint envelope:   v{CHECKPOINT_VERSION}" in out

    def test_artifact_details_shown(self, capsys):
        main(["version"])
        out = capsys.readouterr().out
        assert "canonical-mode DWIT files" in out  # the trace cache's format
        assert "bytes/record" in out  # record size


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8177
        assert args.queue_capacity == 64
        assert args.store.endswith("results.jsonl")
        assert args.ttl is None
        assert args.port_file is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--port-file", "/tmp/p",
                "--queue-capacity", "3", "--ttl", "60.5", "--store", "",
            ]
        )
        assert args.port == 0
        assert args.port_file == "/tmp/p"
        assert args.queue_capacity == 3
        assert args.ttl == pytest.approx(60.5)
        assert args.store == ""  # '' disables persistence

    def test_bad_subcommand_still_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])


class TestRouteParser:
    def test_defaults(self):
        args = build_parser().parse_args(["route"])
        assert args.command == "route"
        assert args.port == 8178  # one above serve's 8177
        assert args.shards == 2
        assert args.shard is None  # supervised mode by default
        assert args.state_dir == ".cache/router"
        assert args.rate == 0.0  # admission control off by default
        assert args.burst == pytest.approx(30.0)
        assert args.cooldown == pytest.approx(2.0)

    def test_external_shards_repeatable(self):
        args = build_parser().parse_args(
            [
                "route", "--shard", "127.0.0.1:9000", "--shard", "h2:9001",
                "--rate", "5", "--burst", "10", "--cooldown", "0.5",
                "--port", "0", "--port-file", "/tmp/rp",
            ]
        )
        assert args.shard == ["127.0.0.1:9000", "h2:9001"]
        assert args.rate == pytest.approx(5.0)
        assert args.burst == pytest.approx(10.0)
        assert args.cooldown == pytest.approx(0.5)
        assert args.port == 0 and args.port_file == "/tmp/rp"

    def test_supervised_shard_passthrough_flags(self):
        args = build_parser().parse_args(
            [
                "route", "--shards", "4", "--queue-capacity", "128",
                "--lease-ttl", "5",
            ]
        )
        assert args.shards == 4
        assert args.queue_capacity == 128
        assert args.lease_ttl == pytest.approx(5.0)


class TestWorkerParser:
    def test_checkpointing_off_by_default(self):
        args = build_parser().parse_args(["worker"])
        assert args.command == "worker"
        assert args.checkpoint_interval == 0

    def test_checkpoint_interval_parses(self):
        args = build_parser().parse_args(
            ["worker", "--checkpoint-interval", "5000", "--capacity", "2"]
        )
        assert args.checkpoint_interval == 5000
        assert args.capacity == 2


#: The execution options every service job once chose among; each job now
#: runs through ``simulate_resumable``, so all three commands refuse them.
REMOVED_EXECUTION_FLAGS = [
    ("serve", "--batch-max", "2"),
    ("serve", "--processes", "4"),
    ("serve", "--retries", "1"),
    ("serve", "--backend", "vec"),
    ("worker", "-j", "2"),
    ("worker", "--concurrency", "2"),
    ("worker", "--retries", "1"),
    ("worker", "--backend", "vec"),
    ("route", "--batch-max", "4"),
    ("route", "--processes", "2"),
    ("route", "--backend", "vec"),
]


@pytest.mark.parametrize(("command", "flag", "value"), REMOVED_EXECUTION_FLAGS)
def test_removed_execution_flag_rejected(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestLoadtestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.command == "loadtest"
        assert args.router is None  # boots its own fleet by default
        assert args.shards == 2
        assert args.jobs == 1000
        assert args.unique == 24
        assert args.rolling_restart is False
        assert args.out == "BENCH_service.json"
        assert args.min_jobs_per_min is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "loadtest", "--router", "http://127.0.0.1:8178",
                "--clients", "64", "--stream-clients", "4", "--jobs", "2000",
                "--unique", "36", "--rolling-restart",
                "--min-jobs-per-min", "1000", "--out", "/tmp/b.json",
                "--seed", "9",
            ]
        )
        assert args.router == "http://127.0.0.1:8178"
        assert args.clients == 64 and args.stream_clients == 4
        assert args.jobs == 2000 and args.unique == 36
        assert args.rolling_restart is True
        assert args.min_jobs_per_min == pytest.approx(1000.0)
        assert args.out == "/tmp/b.json"
        assert args.seed == 9
