"""Experiment harness: one module per paper figure/table.

Each module exposes ``run(quick=True, seed=0) -> ExperimentResult``.
``quick`` trims repetitions and scale so the whole battery finishes in
minutes of wall time; the full setting approaches the paper's scale.
The benchmark suite (``benchmarks/``) regenerates every result;
``python -m repro.experiments.runall`` prints each table next to its
paper-vs-measured comparison against the targets in
:mod:`repro.experiments.calibration`.

Replay-backed experiments (``policy_ab``, ``resilience``) execute
through the sweep fleet (:mod:`repro.experiments.fleet`) and accept a
``workers=`` keyword; arbitrary parameter sweeps run through the same
machinery via ``python -m repro.slurm.cli sweep``.
"""

from repro.experiments.harness import ExperimentResult
from repro.experiments import calibration
from repro.experiments.report import compare_table, render_all

__all__ = ["ExperimentResult", "calibration", "compare_table",
           "render_all"]
