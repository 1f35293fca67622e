"""Benchmark workloads: shipped scenario configs with fixed run lengths.

Each workload takes one config from ``configs/``, overrides the propagator
choice, the run length and the sampling interval, and writes the result as a
new config for ``mprabi run``.  The seed perturbs only the couplings
(``lambda_eg``, and ``mean_photons`` for coherent starts); truncation, step
counts and sample counts never depend on it, so every seed does the same
amount of work.  Seed 0 keeps the shipped couplings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

#: relative half-width of the seeded coupling perturbation
PERTURBATION = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # per-step RK4 on the largest shipped space (dim 400); 4000 steps of
        # ~200 us keep stepping the main cost while a run stays near 1 s
        Workload(
            "vacuum2-numeric",
            "two_photon_vacuum.json",
            {"propagators": ["numeric"], "sample_every": 100, "t_end": 4.0},
        ),
        # secular route at full length: basis build, projection, 5201 samples
        # and a 19 MB CSV; the numeric layer does no work here
        Workload("revival4-secular", "collapse_revival_n4.json", {"propagators": ["rwa"]}),
        # sample-heavy RK4: one sample (and CSV row) per 10 steps on dim 240
        Workload(
            "revival2-dense",
            "collapse_revival_n2.json",
            {"propagators": ["numeric"], "sample_every": 10, "t_end": 1.0},
        ),
    )
}


def make_config(workload: Workload, configs_dir: Path, seed: int) -> dict:
    """The scenario config a workload runs for one seed."""
    with open(configs_dir / workload.config, encoding="utf-8") as handle:
        cfg = json.load(handle)
    cfg.update(workload.overrides)
    cfg["csv_path"] = f"{workload.name}.csv"
    rng = random.Random(seed)
    lambda_scale = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)
    photon_scale = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)
    if seed != 0:
        cfg["lambda_eg"] *= lambda_scale
        if cfg.get("initial_kind") == "ground-coherent":
            cfg["mean_photons"] *= photon_scale
    return cfg


def n_steps(cfg: dict) -> int:
    """Integration steps a run takes, as ``mprabi run`` counts them."""
    return max(1, int(round(cfg["t_end"] / cfg["dt"])))


def sample_steps(cfg: dict) -> list[int]:
    """Step indices at which a run samples: 0, every sample_every, and the last."""
    last = n_steps(cfg)
    steps = list(range(0, last + 1, cfg["sample_every"]))
    if steps[-1] != last:
        steps.append(last)
    return steps
