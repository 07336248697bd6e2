"""Cloud resource provisioning strategies (paper §3.5).

A strategy combination answers three questions:

* **when** to start Cloud workers —
  ``9C`` Completion Threshold (90 % of tasks completed),
  ``9A`` Assignment Threshold (90 % of tasks assigned),
  ``D``  Execution Variance (the completion/assignment lag doubles
  versus its first-half maximum);
* **how many** to start, given credits worth ``S`` CPU·hours —
  ``G`` Greedy (all ``S`` at once, idle ones released immediately),
  ``C`` Conservative (enough to last the estimated remaining time:
  ``min(S/tr, S)``, see DESIGN.md on the paper's ``max`` typo);
* **how** to use them —
  ``F`` Flat (join the regular worker pool),
  ``R`` Reschedule (served pending tasks first, then duplicates of
  running ones),
  ``D`` Cloud duplication (separate cloud-side server executing copies
  of every uncompleted task).

Combination names follow the paper: ``9A-G-D`` = assignment threshold +
greedy + cloud duplication.  All 18 combinations are enumerated in
:data:`ALL_COMBOS`; the paper's recommended compromise is ``9C-C-R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

from repro.core.info import BoTMonitor

__all__ = [
    "StrategyCombo", "parse_combo", "ALL_COMBOS",
    "WHEN_COMPLETION", "WHEN_ASSIGNMENT", "WHEN_VARIANCE",
    "SIZE_GREEDY", "SIZE_CONSERVATIVE",
    "DEPLOY_FLAT", "DEPLOY_RESCHEDULE", "DEPLOY_CLOUD_DUP",
]

WHEN_COMPLETION = "9C"
WHEN_ASSIGNMENT = "9A"
WHEN_VARIANCE = "D"
SIZE_GREEDY = "G"
SIZE_CONSERVATIVE = "C"
DEPLOY_FLAT = "F"
DEPLOY_RESCHEDULE = "R"
DEPLOY_CLOUD_DUP = "D"

_WHEN = (WHEN_COMPLETION, WHEN_ASSIGNMENT, WHEN_VARIANCE)
_SIZE = (SIZE_GREEDY, SIZE_CONSERVATIVE)
_DEPLOY = (DEPLOY_FLAT, DEPLOY_RESCHEDULE, DEPLOY_CLOUD_DUP)


@dataclass(frozen=True)
class StrategyCombo:
    """One point of the 3 x 2 x 3 strategy space."""

    when: str = WHEN_COMPLETION
    size: str = SIZE_CONSERVATIVE
    deploy: str = DEPLOY_RESCHEDULE
    #: trigger fraction of the threshold strategies (paper: 0.9)
    threshold: float = 0.9
    #: variance trigger multiplier (paper: 2x the first-half maximum)
    variance_factor: float = 2.0
    #: use the paper's literal ``max(S/tr, S)`` conservative formula
    conservative_literal_max: bool = False

    def __post_init__(self) -> None:
        if self.when not in _WHEN:
            raise ValueError(f"unknown when-policy {self.when!r}")
        if self.size not in _SIZE:
            raise ValueError(f"unknown size-policy {self.size!r}")
        if self.deploy not in _DEPLOY:
            raise ValueError(f"unknown deploy-policy {self.deploy!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if self.variance_factor <= 1.0:
            raise ValueError("variance_factor must exceed 1")

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Paper-style combination name, e.g. ``9C-C-R``."""
        return f"{self.when}-{self.size}-{self.deploy}"

    def with_threshold(self, threshold: float) -> "StrategyCombo":
        return replace(self, threshold=threshold)

    # ------------------------------------------------------- when-policy
    def should_start(self, mon: BoTMonitor) -> bool:
        """Evaluate the when-policy against live monitoring data."""
        if self.when == WHEN_COMPLETION:
            return mon.completed_count >= self.threshold * mon.total
        if self.when == WHEN_ASSIGNMENT:
            return mon.assigned_count >= self.threshold * mon.total
        return self._variance_trigger(mon)

    def _variance_trigger(self, mon: BoTMonitor) -> bool:
        """var(c) >= factor * max(var(x), x in (0, 50%]) (§3.5).

        Evaluated on the integer percent grid; needs the first half of
        the BoT completed before the reference maximum is defined.
        """
        c = mon.fraction_completed()
        if c <= 0.5:
            return False
        ref = mon.first_half_variance_max()
        cur = mon.execution_variance(math.floor(c * 100) / 100.0)
        if cur is None or ref <= 0.0:
            return False
        return cur >= self.variance_factor * ref

    # ------------------------------------------------------- size-policy
    def workers_to_start(self, mon: BoTMonitor, cpu_hours: float,
                         now: float) -> int:
        """How many Cloud workers to launch, given ``S = cpu_hours``.

        Greedy: ``S`` workers at once.  Conservative: enough workers to
        run until the (constant-completion-rate) estimated end of the
        BoT without exhausting the escrow: ``min(S / tr, S)``.
        """
        s_workers = max(1, math.floor(cpu_hours))
        if self.size == SIZE_GREEDY:
            return s_workers
        xe = mon.fraction_completed()
        tc_xe = mon.tc(xe) if xe > 0 else None
        if not xe or tc_xe is None or tc_xe <= 0:
            return s_workers  # nothing to extrapolate from yet
        remaining = tc_xe / xe - tc_xe  # tr = tc(1) - tc(xe), §3.5
        tr_hours = max(remaining / 3600.0, 1e-6)
        by_budget = cpu_hours / tr_hours
        n = max(by_budget, s_workers) if self.conservative_literal_max \
            else min(by_budget, s_workers)
        return max(1, math.floor(n))


def parse_combo(name: str) -> StrategyCombo:
    """Parse a paper-style combination name like ``"9A-G-D"``."""
    parts = name.strip().upper().split("-")
    if len(parts) != 3:
        raise ValueError(f"expected WHEN-SIZE-DEPLOY, got {name!r}")
    when, size, deploy = parts
    return StrategyCombo(when=when, size=size, deploy=deploy)


def _all_combos() -> List[StrategyCombo]:
    return [StrategyCombo(when=w, size=s, deploy=d)
            for w in _WHEN for s in _SIZE for d in _DEPLOY]


#: the full 18-combination grid evaluated in Figures 4 and 5
ALL_COMBOS: List[StrategyCombo] = _all_combos()
