"""Pluggable fuzz objectives: what "adversarial" means, quantified.

An :class:`Objective` declares which configurations each candidate
workload must run under and turns the resulting
:class:`~repro.system.results.RunResult` grid into a single score where
**higher = more adversarial**.  Two ship in :data:`OBJECTIVES`:

``waste``
    Minimise the useful-prefetch fraction of PMS — find mixtures where
    ASD keeps prefetching lines nobody reads (the failure mode the
    paper's epoch-adaptive depth exists to avoid).

``regret``
    Maximise the cycle cost of PMS's *adaptive* scheduling relative to
    the best fixed policy (``PMS_POLICY1..5``) — find patterns where
    adapting per-epoch picks worse than any static choice would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

from repro.system.results import RunResult

#: One candidate's evaluated grid: ``config_name -> result``.
ResultGrid = Mapping[str, RunResult]

#: Fixed-policy ablations the regret objective races PMS against.
REGRET_POLICIES = tuple(f"PMS_POLICY{k}" for k in range(1, 6))


@dataclass(frozen=True)
class Objective:
    """One way of scoring a candidate workload (higher = worse case)."""

    name: str
    description: str
    #: config names to evaluate per candidate.
    cells: Tuple[str, ...]
    #: grid -> adversarial score (higher = more adversarial).
    score: Callable[[ResultGrid], float]
    #: grid -> headline metrics recorded alongside the score.
    metrics: Callable[[ResultGrid], Dict[str, float]]


def _common_metrics(result: RunResult) -> Dict[str, float]:
    """The metrics every fuzz report records for the primary cell."""
    return {
        "cycles": float(result.cycles),
        "ipc": result.ipc,
        "coverage": result.coverage,
        "useful_prefetch_fraction": result.useful_prefetch_fraction,
    }


# ----------------------------------------------------------------------
# waste
# ----------------------------------------------------------------------
#: Small-sample damping of the waste score: a workload that tricks ASD
#: into one useless prefetch is not interesting; one that sustains a
#: stream of them is.  Wasted fraction is scaled by n/(n+20) inserts.
_WASTE_DAMPING = 20.0


def _waste_score(grid: ResultGrid) -> float:
    result = grid["PMS"]
    inserts = result.stats.get("pb.inserts", 0)
    if not inserts:
        # ASD issued no prefetches at all: nothing was wasted, however
        # low the fraction reads — don't reward shutting ASD off.
        return 0.0
    damping = inserts / (inserts + _WASTE_DAMPING)
    return (1.0 - result.useful_prefetch_fraction) * damping


def _waste_metrics(grid: ResultGrid) -> Dict[str, float]:
    out = _common_metrics(grid["PMS"])
    out["pb_inserts"] = float(grid["PMS"].stats.get("pb.inserts", 0))
    return out


# ----------------------------------------------------------------------
# regret
# ----------------------------------------------------------------------
def _regret_score(grid: ResultGrid) -> float:
    adaptive = grid["PMS"]
    best_fixed = min(
        grid[policy].cycles for policy in REGRET_POLICIES
    )
    if best_fixed == 0:
        return 0.0
    # percent slowdown of adaptive scheduling vs the best fixed policy;
    # positive means adapting lost to a static choice.
    return (adaptive.cycles / best_fixed - 1.0) * 100.0


def _regret_metrics(grid: ResultGrid) -> Dict[str, float]:
    out = _common_metrics(grid["PMS"])
    out["best_fixed_cycles"] = float(min(
        grid[policy].cycles for policy in REGRET_POLICIES
    ))
    return out


#: objective name -> :class:`Objective`.
OBJECTIVES: Dict[str, Objective] = {
    obj.name: obj
    for obj in (
        Objective(
            name="waste",
            description="minimise the PMS useful-prefetch fraction",
            cells=("PMS",),
            score=_waste_score,
            metrics=_waste_metrics,
        ),
        Objective(
            name="regret",
            description=(
                "maximise adaptive-scheduling cycles vs the best "
                "fixed policy (PMS_POLICY1..5)"
            ),
            cells=("PMS",) + REGRET_POLICIES,
            score=_regret_score,
            metrics=_regret_metrics,
        ),
    )
}


def get_objective(name: str) -> Objective:
    """Look an objective up by name with a helpful error."""
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; known: {sorted(OBJECTIVES)}"
        ) from None
