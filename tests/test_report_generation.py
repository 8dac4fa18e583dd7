"""End-to-end report generation at micro scale (slow)."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.experiments import ExperimentRunner
from repro.experiments.report import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS, generate_report

MICRO = SimulationConfig(warmup_cycles=100, measure_cycles=600, trace_length=3000, seed=55)


@pytest.mark.slow
def test_generate_report_writes_all_sections(tmp_path):
    runner = ExperimentRunner("baseline", MICRO, cache_dir=tmp_path / "cache")
    out = generate_report(tmp_path / "EXP.md", runner, verbose=False)
    text = out.read_text()
    assert "Reproduction checks:" in text
    for module, _ in ALL_EXPERIMENTS + EXTENSION_EXPERIMENTS:
        # every experiment contributed a section
        assert f"### " in text
    for title_fragment in ("Table 2(a)", "Figure 1", "Figure 2", "Figure 3",
                           "Table 4", "Figure 4", "Figure 5", "seed robustness"):
        assert title_fragment in text, title_fragment


def test_module_entry_point_is_dwarn_sim_report(monkeypatch, tmp_path):
    """``python -m repro.experiments.report`` runs ``dwarn-sim report``, so the
    two documented commands write the same EXPERIMENTS.md: the runner gets
    the CLI's window and 60,000-record traces, not ``SimulationConfig()``'s
    80,000. No report runs: the report writer is replaced by a stub that
    records its runner.
    """
    import repro.cli
    from repro.experiments import report

    seen = {}

    def stub(path, runner):
        seen["path"], seen["simcfg"] = str(path), runner.simcfg
        return tmp_path / "EXP.md"

    monkeypatch.setattr(repro.cli, "generate_report", stub)
    out = str(tmp_path / "EXP.md")
    assert report.main(["-o", out, "--no-trace-cache"]) == 0
    cli_default = repro.cli._simcfg(repro.cli.build_parser().parse_args(["report"]))
    assert seen == {"path": out, "simcfg": cli_default}
    assert cli_default.trace_length == 60_000 != SimulationConfig().trace_length
