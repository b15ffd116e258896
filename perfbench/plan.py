"""Workloads and their inputs, generated from the workload seed alone.

A run is a sequence of rounds.  Round ``k`` of workload ``w`` under seed
``s`` is drawn from its own stream, ``random.Random(f"{w}:{s}:{k}")``, so
the inputs of a round do not depend on how many rounds came before it or on
the speed of the program.  Only the standard library is used, so the same
seed gives byte-identical config files on every platform.

Every end-to-end metric is reported on every workload, so every round
starts with a common set of two jobs of each kind, each with fresh
physics: a sweep on the default grid and one on a non-uniform grid,
``limits 4``, ``records`` then ``reconstruct --mle`` at the squeezed
optimum 0.8 ms, and ``qpd`` at 0.8 ms, plus two more cheap ``records`` at
0.8 ms.  Several of each keep the per-kind medians steady on a shared
host, where single job times scatter by a quarter.  Each workload then adds
the jobs it is about:

- ``sweep``: two more sweeps, one on the default uniform 0-6 ms grid and
  one on a sorted non-uniform list of 61 seed-drawn durations over the
  same span.  Master-equation evolution dominates; no MLE and no Husimi
  grid.  The non-uniform lists expose a per-gap propagator cache, and
  fresh physics for every job keeps any cache from carrying over between
  jobs.
- ``tomography``: ``records`` then ``reconstruct --mle`` at 0 ms (vacuum
  reference) and at one seed-drawn grid point from each of (0, 0.8),
  (0.8, 2.4] and (2.4, 6] ms, two of the four per round in turn: 0 ms and
  (0.8, 2.4] in even rounds, the other two in odd ones.  The MLE
  dominates.  The durations are fixed
  by the physics question, not by whether the MLE succeeds there: when
  this benchmark was written the MLE did not converge at 0.8 ms and later,
  and that failure is part of the baseline.
- ``figures``: one more ``limits 4`` and ``qpd`` at seed-drawn grid points
  from [0, 0.4), [0.4, 0.8), (0.8, 1.6] and (1.6, 3] ms, the squeezing
  window, two per round in turn: the first and third in even rounds, the
  others in odd ones.  The squeezing layer (Husimi grid, countertwisting
  optimum, Husimi CSV writer) dominates; later durations would hand most
  of each job to the master-equation evolution, which ``sweep`` covers.

Job cost grows with the drive duration, so the seed-drawn durations of a
round sit one below and one above the fixed 0.8 ms: the median job time
then falls on the fixed point and does not move with the draws.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "tomography", "figures")
MAIN_KINDS = {"sweep": ("sweep",), "tomography": ("records", "reconstruct"), "figures": ("limits", "qpd")}
DEFAULT_GRID = tuple(round(0.1 * i, 10) for i in range(61))
OPTIMUM_MS = 0.8
QPD_GRID = "64x128"
N_SHOTS = 10000
KAPPA2 = 0.8


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``label`` names its files inside the round directory."""

    kind: str
    label: str
    physics: dict = field(default_factory=dict)
    t_r: float | None = None
    source: str | None = None  # label of the records job a reconstruct reads

    @property
    def durations(self) -> tuple[float, ...]:
        return tuple(self.physics.get("raman_durations", DEFAULT_GRID))

    def config_text(self) -> str | None:
        if not self.physics:
            return None
        lines = [f"{key}={_format(value)}" for key, value in self.physics.items()]
        return "\n".join(lines) + "\n"

    def config_sha256(self) -> str:
        return hashlib.sha256((self.config_text() or "").encode()).hexdigest()

    def argv(self, directory: str) -> list[str]:
        """CLI arguments with every path inside ``directory``."""
        cfg = f"{directory}/{self.label}.cfg"
        out = f"{directory}/{self.label}.{'json' if self.kind == 'reconstruct' else 'csv'}"
        if self.kind == "limits":
            return ["limits", "4", "--out", out]
        if self.kind == "sweep":
            return ["sweep", "--config", cfg, "--out", out]
        if self.kind == "records":
            return ["records", "--config", cfg, "--tr", f"{self.t_r:g}", "--out", out]
        if self.kind == "reconstruct":
            return ["reconstruct", f"{directory}/{self.source}.csv", "--mle", "--out", out]
        if self.kind == "qpd":
            return ["qpd", "--config", cfg, "--tr", f"{self.t_r:g}", "--grid", QPD_GRID, "--out", out]
        raise ValueError(f"unknown job kind {self.kind!r}")

    def output(self, directory: str) -> str:
        return self.argv(directory)[-1]


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(f"{t:.4f}" for t in value)
    return str(value)


def draw_physics(rng: random.Random) -> dict:
    """Twisting rate, decay times and record seed; every corner gives a valid sweep."""
    return {
        "twisting_rate": round(rng.uniform(0.10, 0.14), 6),
        "t1": round(rng.uniform(60.0, 100.0), 4),
        "t2": round(rng.uniform(15.0, 25.0), 4),
        "n_shots": N_SHOTS,
        "kappa2": KAPPA2,
        "seed": rng.randrange(2**31),
    }


def _nonuniform_durations(rng: random.Random) -> tuple[float, ...]:
    # 0 and 6 ms plus 59 distinct interior points on a 0.1 us lattice, so the
    # total evolved time matches the uniform grid and only the gaps differ
    interior = rng.sample(range(1, 60000), 59)
    return (0.0, *sorted(i / 10000 for i in interior), 6.0)


def _grid_point(rng: random.Random, keep) -> float:
    """A default-grid duration for which ``keep(t)`` holds."""
    return rng.choice([t for t in DEFAULT_GRID if keep(t)])


def make_round(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of round ``index``, in the order they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs: list[Job] = []

    def add(kind: str, t_r: float | None = None, nonuniform: bool = False) -> None:
        label = f"{kind}{sum(j.kind == kind for j in jobs)}"
        physics = {} if kind == "limits" else draw_physics(rng)
        if nonuniform:
            physics["raman_durations"] = _nonuniform_durations(rng)
        jobs.append(Job(kind, label, physics, t_r))

    def records_and_reconstruct(t_r: float) -> None:
        add("records", t_r)
        src = jobs[-1]
        jobs.append(Job("reconstruct", f"mle-{src.label}", src.physics, t_r, src.label))

    for nonuniform in (False, True):
        add("sweep", nonuniform=nonuniform)
        add("limits")
        records_and_reconstruct(OPTIMUM_MS)
        add("qpd", OPTIMUM_MS)
        add("records", OPTIMUM_MS)
    odd = index % 2 == 1
    if workload == "sweep":
        add("sweep")
        add("sweep", nonuniform=True)
    elif workload == "tomography":
        if odd:
            records_and_reconstruct(_grid_point(rng, lambda t: 0.0 < t < OPTIMUM_MS))
            records_and_reconstruct(_grid_point(rng, lambda t: 2.4 < t))
        else:
            records_and_reconstruct(0.0)
            records_and_reconstruct(_grid_point(rng, lambda t: OPTIMUM_MS < t <= 2.4))
    else:
        add("limits")
        if odd:
            add("qpd", _grid_point(rng, lambda t: 0.4 <= t < OPTIMUM_MS))
            add("qpd", _grid_point(rng, lambda t: 1.6 < t <= 3.0))
        else:
            add("qpd", _grid_point(rng, lambda t: t < 0.4))
            add("qpd", _grid_point(rng, lambda t: OPTIMUM_MS < t <= 1.6))
    return jobs


def write_configs(jobs, directory: str) -> None:
    """Write each job's config file into ``directory``, creating it."""
    os.makedirs(directory, exist_ok=True)
    for job in jobs:
        text = job.config_text()
        if text is not None:
            with open(os.path.join(directory, f"{job.label}.cfg"), "w", encoding="utf-8") as fh:
                fh.write(text)
