"""The benchmark's workloads: configs from a seed, set-up, one timed
pass, and the output checks every operation must pass.

An *operation* is one execution on ``strategy_grid`` and one BoT on the
federated workloads.  Every operation yields a fingerprint of its
simulated outcome (events, makespan, slowdown, credits, worker
launches); a pass returns them in canonical order so the caller can
digest them, compare them with the pinned digests and count failures.

Only public names of ``repro`` are used.  The program receives nothing
but the configs built here from ``--seed``.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import SweepSpec, scaled_bot_sizes
from repro.campaign.store import ResultStore
from repro.core.strategies import ALL_COMBOS
from repro.experiments.config import DCISpec, ScenarioConfig, get_scale
from repro.experiments.harness import ScenarioHarness
from repro.experiments.runner import run_federated

#: relative slack of the credit-conservation checks (sums of floats
#: accumulated in different orders)
CREDIT_RTOL = 1e-9

GRID_CATEGORIES = ("SMALL", "RANDOM")


def fmt(x) -> str:
    """Stable text form of one outcome value for fingerprints.

    Nine significant digits: a real change of trajectory moves far more
    than that, while last-bit float noise does not.
    """
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".9g")
    return str(x)


def fingerprint(*values) -> str:
    return "|".join(fmt(v) for v in values)


class Op:
    """One operation's outcome: identifier, fingerprint, problems."""

    __slots__ = ("op_id", "fp", "problems")

    def __init__(self, op_id: str, fp: str, problems: List[str]):
        self.op_id = op_id
        self.fp = fp
        self.problems = problems

    def as_json(self) -> list:
        return [self.op_id, self.fp, self.problems]


def _times_problems(times, n_tasks: int) -> List[str]:
    """A completed BoT: exactly ``n_tasks`` sorted, finite, >= 0 times."""
    arr = np.asarray(times, dtype=float)
    out = []
    if arr.shape[0] != n_tasks:
        out.append(f"{arr.shape[0]} completions for {n_tasks} tasks")
    if arr.size:
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0:
            out.append("negative or non-finite completion time")
        if np.any(np.diff(arr) < 0.0):
            out.append("completion times not sorted")
    return out


def _credit_problems(spent: float, provisioned: float) -> List[str]:
    if not (spent >= 0.0 and
            spent <= provisioned * (1.0 + CREDIT_RTOL) + CREDIT_RTOL):
        return [f"credits spent {spent!r} outside [0, {provisioned!r}]"]
    return []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CREDIT_RTOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
class ExecClock:
    """Progress sink for :class:`CampaignExecutor` that marks the
    process CPU time at each execution's end.

    The executor assigns ``total`` once its store probe is done and
    ticks once per finished execution (after the result is stored), so
    each interval between marks is one execution as the campaign pays
    for it: ``run_execution`` plus the result-store ``put``.
    """

    def __init__(self) -> None:
        self.marks: List[float] = []
        self._total = 0

    @property
    def total(self) -> int:
        return self._total

    @total.setter
    def total(self, value: int) -> None:
        self._total = value
        self.marks = [time.process_time()]

    def tick(self, n: int = 1) -> None:
        self.marks.append(time.process_time())

    def finish(self) -> None:
        pass


class PassResult:
    """What one timed pass produced.

    ``span`` is the process CPU time at the pass's start and end;
    ``marks`` are process CPU times bounding each execution in turn.
    """

    def __init__(self, span: Tuple[float, float], marks: List[float],
                 wall: float, events: int, ops: List[Op], scenario: str,
                 store_bytes: int = 0):
        self.span = span
        self.marks = marks
        self.wall = wall
        self.events = events
        self.ops = ops
        self.scenario = scenario
        self.store_bytes = store_bytes


# ---------------------------------------------------------------------------
class StrategyGrid:
    """Figures 4/5 slice: 6 traces x {boinc, xwhep} x {SMALL, RANDOM}
    at quick sizes, one seed slot, no SpeQuloS + the 18 strategies."""

    name = "strategy_grid"

    def __init__(self, seed: int):
        scale = get_scale("quick")
        spec = SweepSpec(
            middlewares=("boinc", "xwhep"), categories=GRID_CATEGORIES,
            seed_slots=1, seed_base=seed,
            bot_sizes=scaled_bot_sizes(scale, GRID_CATEGORIES),
        ).with_strategies(None, *[c.name for c in ALL_COMBOS])
        self.configs = spec.expand()

    def setup(self) -> None:
        """Assemble every distinct environment world once."""
        seen = set()
        for cfg in self.configs:
            env = (cfg.trace, cfg.middleware, cfg.category, cfg.seed)
            if env in seen:
                continue
            seen.add(env)
            harness = ScenarioHarness(cfg.horizon)
            harness.build_dci(cfg.env_name(), cfg.trace, cfg.middleware,
                              cfg.seed, cfg.node_cap(),
                              provider=cfg.provider)

    def run_pass(self, workdir: str) -> PassResult:
        store = ResultStore(os.path.join(workdir, "results.sqlite"))
        clock = ExecClock()
        executor = CampaignExecutor(store=store, n_jobs=1, progress=clock)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            results = executor.run(self.configs)
            cpu1 = time.process_time()
            wall = time.perf_counter() - wall0
            store_bytes = store.file_bytes()
        finally:
            store.close()
        ops = [self._op(cfg, res) for cfg, res in zip(self.configs, results)]
        return PassResult((cpu0, cpu1), clock.marks, wall,
                          sum(r.events for r in results), ops,
                          scenario=str(len(results)),
                          store_bytes=store_bytes)

    @staticmethod
    def _op(cfg, res) -> Op:
        problems: List[str] = []
        if res.events <= 0:
            problems.append("no events")
        if not res.censored:
            problems += _times_problems(res.completion_times, res.n_tasks)
        problems += _credit_problems(res.credits_spent,
                                     res.credits_provisioned)
        fp = fingerprint(res.events, res.makespan, res.slowdown,
                         res.credits_spent, res.workers_launched,
                         res.censored)
        return Op(cfg.label(), fp, problems)

    def op_ids(self) -> List[str]:
        return [cfg.label() for cfg in self.configs]


# ---------------------------------------------------------------------------
@contextlib.contextmanager
def captured_harnesses():
    """Collect the :class:`ScenarioHarness` objects built inside the
    block (one per ``run_federated``) so their BoT monitors can be
    checked after the run.  One extra call per scenario."""
    built: List[ScenarioHarness] = []
    original = ScenarioHarness.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    ScenarioHarness.__init__ = init
    try:
        yield built
    finally:
        ScenarioHarness.__init__ = original


class Federated:
    """One ``run_federated`` scenario per pass."""

    name = ""
    #: a fresh persistent history archive per pass
    fresh_history = False

    def __init__(self, seed: int):
        self.config = self.scenario(seed)

    @staticmethod
    def scenario(seed: int) -> ScenarioConfig:
        raise NotImplementedError

    def setup(self) -> None:
        """Assemble every DCI world of the scenario once."""
        cfg = self.config
        harness = ScenarioHarness(cfg.horizon)
        for i, (name, spec) in enumerate(zip(cfg.dci_names(), cfg.dcis)):
            harness.build_dci(name, spec.trace, spec.middleware, cfg.seed,
                              cfg.node_cap_for(spec),
                              provider=spec.provider, stream=(i,))

    def run_pass(self, workdir: str) -> PassResult:
        if self.fresh_history:
            os.environ["REPRO_HISTORY"] = os.path.join(workdir,
                                                       "history.sqlite")
        with captured_harnesses() as built:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            res = run_federated(self.config)
            cpu1 = time.process_time()
            wall = time.perf_counter() - wall0
        ops, scenario = self._ops(res, built[-1])
        return PassResult((cpu0, cpu1), [cpu0, cpu1], wall, res.events, ops,
                          scenario)

    def _ops(self, res, harness: ScenarioHarness) -> Tuple[List[Op], str]:
        # scenario-wide invariants: a breach fails every BoT of the pass
        shared: List[str] = []
        if res.events <= 0:
            shared.append("no events")
        shared += _credit_problems(res.pool_spent, res.pool_provisioned)
        spent_tenants = math.fsum(t.credits_spent for t in res.tenants)
        spent_providers = math.fsum(res.credits_by_provider().values())
        for label, total in (("tenant", spent_tenants),
                             ("per-provider", spent_providers)):
            if not _close(total, res.pool_spent):
                shared.append(f"{label} spend {total!r} != pool spend "
                              f"{res.pool_spent!r}")
        service = harness.service
        ops: List[Op] = []
        for t in res.tenants:
            problems = list(shared)
            if t.credits_spent < 0.0:
                problems.append(f"negative spend {t.credits_spent!r}")
            if not t.censored:
                mon = service.monitor(t.bot_id)
                problems += _times_problems(mon.completion_times, t.n_tasks)
            fp = fingerprint(t.dci, t.admission, t.makespan, t.slowdown,
                             t.credits_spent, t.workers_launched,
                             t.censored)
            ops.append(Op(t.bot_id, fp, problems))
        scenario = fingerprint(res.events, res.pool_provisioned,
                               res.pool_spent, res.workers_peak,
                               *[d.completions for d in res.dcis],
                               *[d.workers_launched for d in res.dcis])
        return ops, scenario

    def op_ids(self) -> List[str]:
        # the bot ids generate_tenants assigns
        return [f"tenant{i}" for i in range(self.config.n_tenants)]


class Federation100k(Federated):
    """Two-DCI seti federation of 2 x 50 000 hosts (BOINC on ec2,
    XWHEP on stratuslab), 8 tenants cycling SMALL/BIG at Table 3
    size, 3-day horizon, round-robin routing, fair-share arbitration."""

    name = "federation_100k"

    @staticmethod
    def scenario(seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            dcis=(DCISpec("seti", "boinc", provider="ec2",
                          max_nodes=50_000),
                  DCISpec("seti", "xwhep", provider="stratuslab",
                          max_nodes=50_000)),
            seed=seed, n_tenants=8, categories=("SMALL", "BIG"),
            routing="round_robin", policy="fairshare", horizon_days=3.0)


class TenantStream(Federated):
    """128 tenants' SMALL/RANDOM BoTs of 250 tasks arriving at 8/h over
    four heterogeneous DCIs, priced ec2=18 / stratuslab=6, with
    history-weighted routing, deferred admission and a fresh persistent
    history archive per pass."""

    name = "tenant_stream"
    fresh_history = True

    @staticmethod
    def scenario(seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            dcis=(DCISpec("nd", "xwhep", provider="stratuslab"),
                  DCISpec("g5klyo", "boinc", provider="ec2"),
                  DCISpec("spot10", "boinc", provider="ec2"),
                  DCISpec("seti", "xwhep", provider="stratuslab")),
            seed=seed, n_tenants=128, categories=("SMALL", "RANDOM"),
            bot_size=250, arrival_rate_per_hour=8.0,
            routing="history_weighted", admission="defer",
            history="persistent",
            pricing=(("ec2", 18.0), ("stratuslab", 6.0)))


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in
                              (StrategyGrid, Federation100k, TenantStream)}


def make_workload(name: str, seed: int):
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"available: {', '.join(WORKLOADS)}") from None


def pass_failure(workload, reason: str) -> List[Op]:
    """Every operation of a pass that raised counts as failed."""
    return [Op(op_id, "", [reason]) for op_id in workload.op_ids()]


