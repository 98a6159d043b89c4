"""Smoke runs of every script under scripts/ at its smallest arguments.

The scripts build on the library's public names, so a rename there
fails here rather than the next time someone runs an experiment.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = {
    "duality_gap_sweep.py": ["--sizes", "3", "--trials", "1", "--out", "gaps.csv"],
    "loss_comparison_experiment.py": [
        "--states", "3", "--actions", "1", "--rank", "1", "--iters", "1", "--out", "cmp",
    ],
    "lp_layer_timing.py": ["--sizes", "5", "--repeat", "1"],
    "sweep_layer_timing.py": [
        "--states", "4", "--actions", "1", "--gamma", "0.5", "--sizes", "4", "--calls", "1", "--repeat", "1",
    ],
    "value_smoothness_sweep.py": [
        "--states", "3", "--actions", "1", "--smoothings", "0.5", "--gammas", "0.7", "--out", "smooth.csv",
    ],
}

OUTPUTS = {
    "duality_gap_sweep.py": ["gaps.csv"],
    "loss_comparison_experiment.py": [
        "cmp/comparison_full_rank.csv", "cmp/cross_eval_full_rank.csv",
        "cmp/comparison_rank_1.csv", "cmp/cross_eval_rank_1.csv",
    ],
    "value_smoothness_sweep.py": ["smooth.csv"],
}


def test_every_script_is_covered():
    assert sorted(path.name for path in SCRIPTS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *RUNS[script]])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out
    for name in OUTPUTS.get(script, []):
        assert (tmp_path / name).stat().st_size > 0
