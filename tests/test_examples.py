"""The example scripts keep working against the library they demonstrate.

No CI step runs ``examples/``, so an API change that breaks one would
otherwise go unnoticed. These tests load an example by path and call its
entry point at a small scale.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

from repro.config import SimulationConfig
from repro.trace import PROFILES

_EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load_example(name: str) -> ModuleType:
    spec = importlib.util.spec_from_file_location(name, _EXAMPLES / f"{name}.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def characterization() -> ModuleType:
    return _load_example("workload_characterization")


@pytest.mark.parametrize("bench", sorted(PROFILES))
def test_workload_characterization_row(characterization, bench):
    profile = PROFILES[bench]
    row = characterization.characterize(bench, length=6_000)
    name, thread_type, l1, l2, l1_to_l2, loads, branches, taken, code, calls = row
    assert (name, thread_type) == (bench, profile.thread_type)
    assert 0 <= l2 <= l1 <= 100
    assert 0 <= l1_to_l2 <= 100
    assert loads == pytest.approx(profile.load_frac, rel=0.15)
    assert branches == pytest.approx(profile.branch_frac, abs=0.05)
    assert 0 < taken <= 1
    assert code.endswith("K") and int(code[:-1]) > 0
    assert calls >= 1


def test_clog_timeline_strips(capsys):
    clog = _load_example("clog_timeline")
    simcfg = SimulationConfig(
        warmup_cycles=0, measure_cycles=2_000, trace_length=6_000, commit_limit=0
    )
    clog.show("dwarn", simcfg)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "== dwarn on 2-MEM (mcf=t0, twolf=t1) =="
    assert out[1] == "timeline: 10 samples x 200 cycles"
    assert [line.split("|")[0] for line in out[2:7]] == [
        "  ipc      t0: ",
        "  ipc      t1: ",
        "  dmiss    t0: ",
        "  dmiss    t1: ",
        "  ls_q_free   : ",
    ]
    assert all(len(line.split("|")[1]) == 10 for line in out[2:7])
    assert out[7].startswith("   throughput: ")
