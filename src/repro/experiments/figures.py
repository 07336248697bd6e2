"""Builders regenerating every table and figure of the paper (§2, §4, §5).

Each ``*_report`` function runs (or reuses) the campaign it needs and
returns an :class:`~repro.experiments.report.ExperimentReport` whose
rendering mirrors the paper's table/figure.  Campaigns are memoized per
(campaign, scale) within the process so benches that share data
(Figures 4 and 5; Figures 6, 7 and Table 4) pay for it once.

Campaign grids (scaled by :class:`~repro.experiments.config.CampaignScale`):

* **baseline grid** (Figure 2, Table 1): every trace x middleware x
  category, no SpeQuloS;
* **strategy grid** (Figures 4, 5): paired executions for all 18
  strategy combinations;
* **headline grid** (Figures 6, 7, Table 4): paired executions with the
  paper's recommended ``9C-C-R`` combination;
* **contention sweep** (beyond the paper's grid): 1→N concurrent
  tenants sharing one DCI + Cloud + credit pool under each arbitration
  policy, reporting per-tenant slowdown and fairness;
* **federation sweep** (§5's Figure 8 regime): one SpeQuloS over
  growing heterogeneous federations of DCIs and clouds, under each
  BoT-to-DCI routing policy, reporting cross-DCI fairness and pool
  usage;
* **economics sweep** (the economics plane): uniform vs heterogeneous
  per-provider price books on the reference federation, under blind
  load balancing vs cost-aware ``cheapest_drain`` routing, reporting
  credits spent, the per-cloud spend split and slowdown.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.cdf import ccdf_at, histogram_fractions
from repro.analysis.metrics import tail_removal_efficiency
from repro.campaign.executor import run_cached
from repro.campaign.spec import (
    FederatedSweepSpec,
    MultiTenantSweepSpec,
    SweepSpec,
    scaled_bot_sizes,
)
from repro.core.strategies import ALL_COMBOS
from repro.history import (
    ExecutionRecord,
    HistoryPlane,
    env_key_of,
    fit_alpha,
    prediction_success,
)
from repro.experiments.config import CampaignScale, ExecutionConfig, get_scale
from repro.experiments.report import ExperimentReport, Series, TextTable
from repro.experiments.runner import (
    ExecutionResult,
    run_campaign,
    run_execution,
)
from repro.infra.catalog import TRACE_NAMES, get_trace_spec, list_trace_specs
from repro.infra.stats import measure_trace
from repro.workload.categories import BOT_CATEGORIES
from repro.workload.generator import make_bot

__all__ = [
    "figure1_report", "figure2_report", "table1_report", "table2_report",
    "table3_report", "figure4_report", "figure5_report", "figure6_report",
    "figure7_report", "table4_report", "table5_report",
    "ablation_threshold_report", "ablation_budget_report",
    "ablation_middleware_report", "contention_report",
    "federation_report", "federation_sweep", "economics_report",
    "economics_sweep", "learning_report", "learning_rates",
]

MIDDLEWARE = ("boinc", "xwhep")
CATEGORIES = ("SMALL", "BIG", "RANDOM")
#: the paper's recommended compromise (§4.3)
HEADLINE_COMBO = "9C-C-R"
#: minimum baseline tail (seconds) for a TRE to be well-defined
MIN_TAIL = 120.0


def has_material_tail(res: ExecutionResult) -> bool:
    """Whether a baseline execution's tail is large enough to score.

    TRE compares against cloud provisioning whose granularity is the
    scheduler tick plus one cloud task execution (minutes); a tail
    below ~10 % of the ideal time (or two ticks) is within that
    granularity and would only add TRE~0 noise, so Figure 4 excludes
    it — the paper's full-size tails are far above this threshold.
    """
    tail = res.makespan - res.ideal_time
    return tail > max(MIN_TAIL, 0.10 * res.ideal_time)

_memo: Dict[Tuple[str, str], object] = {}


def _memoized(key: str, scale: CampaignScale, build):
    k = (key, scale.name)
    if k not in _memo:
        _memo[k] = build()
    return _memo[k]


# ---------------------------------------------------------------------------
# campaign sweeps (declarative grids; see repro.campaign.spec)
# ---------------------------------------------------------------------------
def baseline_sweep(scale: CampaignScale,
                   categories: Sequence[str] = CATEGORIES,
                   traces: Sequence[str] = TRACE_NAMES) -> SweepSpec:
    """Every trace x middleware x category, no SpeQuloS (Fig. 2, Tab. 1)."""
    return SweepSpec(traces=tuple(traces), middlewares=MIDDLEWARE,
                     categories=tuple(categories),
                     seed_slots=scale.seeds_per_env,
                     bot_sizes=scaled_bot_sizes(scale, categories))


def baseline_grid(scale: CampaignScale,
                  categories: Sequence[str] = CATEGORIES,
                  traces: Sequence[str] = TRACE_NAMES,
                  ) -> List[ExecutionConfig]:
    return baseline_sweep(scale, categories, traces).expand()


def _run_baselines(scale: CampaignScale) -> List[ExecutionResult]:
    return _memoized("baselines", scale,
                     lambda: run_campaign(baseline_grid(scale)))


def strategy_sweep(scale: CampaignScale) -> SweepSpec:
    """Environments for the 18-combination grid (Figures 4/5).

    Quick scale keeps SMALL and RANDOM (the classes where the tail
    dominates, §4.3.1); full scale adds BIG as the paper does.  Slots
    start at 1000 so the grid never shares seeds with the baseline
    sweep.
    """
    cats = CATEGORIES if scale.size_factor >= 1.0 else ("SMALL", "RANDOM")
    return SweepSpec(middlewares=MIDDLEWARE, categories=cats,
                     seed_slots=scale.seeds_strategy_grid, seed_base=1000,
                     bot_sizes=scaled_bot_sizes(scale, cats))


def _run_strategy_campaign(scale: CampaignScale) -> Tuple[
        List[ExecutionResult], Dict[str, List[ExecutionResult]]]:
    """(baselines, {combo name: paired results in baseline order})."""
    def build():
        combos = [c.name for c in ALL_COMBOS]
        sweep = strategy_sweep(scale).with_strategies(None, *combos)
        results = run_campaign(sweep.expand())
        n = len(results) // (len(combos) + 1)
        base_res = results[:n]
        per_combo = {name: results[n * (k + 1): n * (k + 2)]
                     for k, name in enumerate(combos)}
        return base_res, per_combo
    return _memoized("strategy", scale, build)  # type: ignore[return-value]


def _run_headline_campaign(scale: CampaignScale) -> Tuple[
        List[ExecutionResult], List[ExecutionResult]]:
    """Paired (no SpeQuloS, 9C-C-R) over the full environment grid."""
    def build():
        sweep = baseline_sweep(scale).with_strategies(None, HEADLINE_COMBO)
        results = run_campaign(sweep.expand())
        n = len(results) // 2
        return results[:n], results[n:]
    return _memoized("headline", scale, build)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Figure 1 — example execution profile with tail
# ---------------------------------------------------------------------------
def figure1_report(scale: Optional[CampaignScale] = None) -> ExperimentReport:
    """One BoT execution's completion-ratio curve and the ideal-time
    construction of §2.2 (the paper's illustrative Figure 1)."""
    scale = scale or get_scale()
    cfg = ExecutionConfig(trace="seti", middleware="boinc", category="SMALL",
                          seed=11, bot_size=scale.bot_size("SMALL"))
    res = run_cached(cfg)
    profile = res.profile
    xs, ys = [], []
    for pct in range(1, 101):
        xs.append(profile.tc(pct / 100.0))
        ys.append(pct / 100.0)
    rep = ExperimentReport(
        "Figure 1", "Example of BoT execution with noteworthy values")
    rep.series.append(Series("BoT completion ratio over time (t, ratio)",
                             xs, ys))
    table = TextTable("Noteworthy values", ["quantity", "value"])
    table.add_row("actual completion time (s)", f"{res.makespan:.0f}")
    table.add_row("ideal completion time tc(0.9)/0.9 (s)",
                  f"{res.ideal_time:.0f}")
    table.add_row("tail duration (s)", f"{res.makespan - res.ideal_time:.0f}")
    table.add_row("tail slowdown", f"{res.slowdown:.2f}")
    rep.tables.append(table)
    rep.notes.append(f"environment: {cfg.label()}")
    return rep


# ---------------------------------------------------------------------------
# Figure 2 — CDF of tail slowdown per middleware
# ---------------------------------------------------------------------------
def figure2_report(scale: Optional[CampaignScale] = None) -> ExperimentReport:
    scale = scale or get_scale()
    results = _run_baselines(scale)
    rep = ExperimentReport(
        "Figure 2", "Tail slowdown CDF in BE-DCIs (no SpeQuloS)")
    thresholds = [1.0, 1.1, 1.25, 1.33, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0]
    table = TextTable(
        "Fraction of executions with tail slowdown <= S",
        ["S"] + [mw.upper() for mw in MIDDLEWARE],
        note="paper: ~half of executions below 1.33; slowdown of 2 for "
             "25% (XWHEP) to 33% (BOINC); worst 5%: 4x (XWHEP), 10x (BOINC)")
    by_mw = {mw: [r.slowdown for r in results
                  if r.config.middleware == mw] for mw in MIDDLEWARE}
    for s in thresholds:
        row = [f"{s:g}"]
        for mw in MIDDLEWARE:
            vals = np.asarray(by_mw[mw])
            row.append(f"{float((vals <= s).mean()):.2f}")
        table.add_row(*row)
    rep.tables.append(table)
    for mw in MIDDLEWARE:
        med = float(np.median(by_mw[mw]))
        p95 = float(np.percentile(by_mw[mw], 95))
        rep.notes.append(f"{mw}: median slowdown {med:.2f}, "
                         f"95th percentile {p95:.2f}, n={len(by_mw[mw])}")
    return rep


# ---------------------------------------------------------------------------
# Table 1 — tail fractions per DCI class and middleware
# ---------------------------------------------------------------------------
def table1_report(scale: Optional[CampaignScale] = None) -> ExperimentReport:
    scale = scale or get_scale()
    results = _run_baselines(scale)
    rep = ExperimentReport(
        "Table 1", "Average fraction of BoT in tail / execution time in tail")
    table = TextTable(
        "Tail fractions by BE-DCI class",
        ["BE-DCI class", "%BoT tail BOINC", "%BoT tail XWHEP",
         "%time tail BOINC", "%time tail XWHEP"],
        note="paper: %BoT in tail 2.9-6.4; %time in tail 16-52 "
             "(largest for Desktop Grids)")
    groups: Dict[str, Dict[str, List[ExecutionResult]]] = defaultdict(
        lambda: defaultdict(list))
    for r in results:
        klass = get_trace_spec(r.config.trace).dci_class
        groups[klass][r.config.middleware].append(r)
    for klass in ("Desktop Grids", "Best Effort Grids", "Spot Instances"):
        row = [klass]
        for metric in ("pct_tasks_in_tail", "pct_time_in_tail"):
            for mw in MIDDLEWARE:
                vals = [getattr(r, metric) for r in groups[klass][mw]]
                row.append(f"{float(np.mean(vals)):.2f}" if vals else "-")
        table.add_row(*row)
    rep.tables.append(table)
    return rep


# ---------------------------------------------------------------------------
# Table 2 — trace statistics (synthesis targets vs measured)
# ---------------------------------------------------------------------------
def table2_report(horizon_days: float = 4.0,
                  step: float = 600.0) -> ExperimentReport:
    rep = ExperimentReport(
        "Table 2", "Summary of the Best Effort DCI traces "
                   "(paper target vs synthesized)")
    table = TextTable(
        "Trace statistics",
        ["trace", "", "mean", "std", "min", "max",
         "av.quartiles (s)", "unav.quartiles (s)", "power", "p.std"],
        note="targets are the paper's Table 2; measured rows come from "
             f"full-size synthesized traces over {horizon_days:g} days")
    rng = np.random.default_rng(2012)
    for spec in list_trace_specs():
        table.add_row(
            spec.name, "target", f"{spec.mean_nodes:.0f}",
            f"{spec.std_nodes:.0f}", spec.min_nodes, spec.max_nodes,
            ",".join(f"{q:.0f}" for q in spec.avail_quartiles),
            ",".join(f"{q:.0f}" for q in spec.unavail_quartiles),
            f"{spec.power_mean:.0f}", f"{spec.power_std:.0f}")
        nodes = spec.materialize(rng, horizon_days * 86400.0)
        st = measure_trace(nodes, horizon_days * 86400.0, step)
        table.add_row(
            "", "measured", f"{st.mean_nodes:.0f}", f"{st.std_nodes:.0f}",
            st.min_nodes, st.max_nodes,
            ",".join(f"{q:.0f}" for q in st.avail_quartiles),
            ",".join(f"{q:.0f}" for q in st.unavail_quartiles),
            f"{st.power_mean:.0f}", f"{st.power_std:.0f}")
    rep.tables.append(table)
    rep.notes.append(
        "synthesized duration quartiles match by construction (quantile-"
        "fitted); count min/max for g5k traces depend on the day/night "
        "gate model — see DESIGN.md substitution notes")
    return rep


# ---------------------------------------------------------------------------
# Table 3 — BoT workload characteristics
# ---------------------------------------------------------------------------
def table3_report(n_draws: int = 25) -> ExperimentReport:
    rep = ExperimentReport("Table 3", "Characteristics of BoT workloads")
    table = TextTable(
        "BoT categories (target vs generated)",
        ["category", "", "size", "nops/task", "arrival span (s)",
         "wall clock (s)"])
    rng = np.random.default_rng(77)
    for name, cat in BOT_CATEGORIES.items():
        size = str(cat.size) if cat.size else \
            f"norm({cat.size_normal[0]:.0f},{cat.size_normal[1]:.0f})"
        nops = f"{cat.nops:.0f}" if cat.nops else \
            f"norm({cat.nops_normal[0]:.0f},{cat.nops_normal[1]:.0f})"
        arr = "0" if not cat.arrival_weibull else \
            f"weib({cat.arrival_weibull[0]},{cat.arrival_weibull[1]})"
        table.add_row(name, "target", size, nops, arr,
                      f"{cat.wall_clock:.0f}")
        sizes, means, spans = [], [], []
        for _ in range(n_draws):
            bot = make_bot(cat, rng)
            sizes.append(bot.size)
            means.append(bot.total_nops / bot.size)
            spans.append(bot.arrival_span())
        table.add_row(
            "", "generated",
            f"{np.mean(sizes):.0f}±{np.std(sizes):.0f}",
            f"{np.mean(means):.0f}",
            f"{np.mean(spans):.0f}", f"{cat.wall_clock:.0f}")
    rep.tables.append(table)
    return rep


# ---------------------------------------------------------------------------
# Figures 4a/4b/4c — Tail Removal Efficiency CCDFs, 18 combinations
# ---------------------------------------------------------------------------
def _tre_samples(bases: List[ExecutionResult],
                 speq: List[ExecutionResult]) -> List[float]:
    """Paired TRE values where the baseline exhibits a material tail."""
    out = []
    for b, s in zip(bases, speq):
        if not has_material_tail(b):
            continue
        out.append(tail_removal_efficiency(b.makespan, s.makespan,
                                           b.ideal_time))
    return out


def figure4_report(scale: Optional[CampaignScale] = None) -> ExperimentReport:
    scale = scale or get_scale()
    bases, per_combo = _run_strategy_campaign(scale)
    rep = ExperimentReport(
        "Figure 4", "Tail Removal Efficiency CCDF per strategy combination")
    thresholds = list(range(0, 101, 10))
    for deploy, sub in (("F", "4a Flat"), ("R", "4b Reschedule"),
                        ("D", "4c Cloud duplication")):
        table = TextTable(
            f"Figure {sub}: fraction of executions with TRE >= P",
            ["combo"] + [f"{p}%" for p in thresholds],
            note="paper: best combos (9x-x-D / 9x-x-R) remove the tail "
                 "entirely in ~half of executions and halve it in ~80%; "
                 "Flat and Execution-Variance clearly weaker")
        for combo in ALL_COMBOS:
            if combo.deploy != deploy:
                continue
            tre = _tre_samples(bases, per_combo[combo.name])
            if not tre:
                table.add_row(combo.name, *["-"] * len(thresholds))
                continue
            fr = ccdf_at(tre, thresholds)
            table.add_row(combo.name, *[f"{v:.2f}" for v in fr])
        rep.tables.append(table)
    n_tail = len(_tre_samples(bases, per_combo[HEADLINE_COMBO]))
    rep.notes.append(f"executions with measurable baseline tail: {n_tail} "
                     f"of {len(bases)}")
    return rep


# ---------------------------------------------------------------------------
# Figure 5 — credit consumption per strategy combination
# ---------------------------------------------------------------------------
def figure5_report(scale: Optional[CampaignScale] = None) -> ExperimentReport:
    scale = scale or get_scale()
    _bases, per_combo = _run_strategy_campaign(scale)
    rep = ExperimentReport(
        "Figure 5", "Credits consumed per strategy combination "
                    "(percent of provisioned)")
    table = TextTable(
        "Average % of provisioned credits spent",
        ["combo", "% spent", "workers avg"],
        note="paper: mostly < 25% spent (=> < 2.5% of workload offloaded); "
             "Reschedule > Flat > Cloud-duplication; Assignment threshold "
             "spends more (starts earlier); Conservative saves vs Greedy")
    for combo in ALL_COMBOS:
        rs = per_combo[combo.name]
        pct = float(np.mean([r.credits_used_pct for r in rs]))
        wk = float(np.mean([r.workers_launched for r in rs]))
        table.add_row(combo.name, f"{pct:.1f}", f"{wk:.1f}")
    rep.tables.append(table)
    return rep


# ---------------------------------------------------------------------------
# Figure 6 — completion times with and without SpeQuloS (6 panels)
# ---------------------------------------------------------------------------
def figure6_report(scale: Optional[CampaignScale] = None) -> ExperimentReport:
    scale = scale or get_scale()
    bases, speq = _run_headline_campaign(scale)
    rep = ExperimentReport(
        "Figure 6", f"Average completion time with/without SpeQuloS "
                    f"({HEADLINE_COMBO})")
    panels = [(mw, cat) for mw in MIDDLEWARE for cat in CATEGORIES]
    for mw, cat in panels:
        table = TextTable(
            f"Figure 6 panel: {mw.upper()} & {cat} BoT",
            ["BE-DCI", "no SpeQuloS (s)", "SpeQuloS (s)", "speedup"],
            note="paper: SpeQuloS reduces completion time everywhere; "
                 "largest gains on volatile DCIs (seti, nd, g5klyo)")
        for trace in TRACE_NAMES:
            b = [r.makespan for r in bases
                 if r.config.trace == trace and r.config.middleware == mw
                 and r.config.category == cat]
            s = [r.makespan for r in speq
                 if r.config.trace == trace and r.config.middleware == mw
                 and r.config.category == cat]
            if not b:
                continue
            mb, ms = float(np.mean(b)), float(np.mean(s))
            table.add_row(trace.upper(), f"{mb:.0f}", f"{ms:.0f}",
                          f"{mb / ms:.2f}x" if ms > 0 else "-")
        rep.tables.append(table)
    return rep


# ---------------------------------------------------------------------------
# Figure 7 — execution stability (normalized completion repartition)
# ---------------------------------------------------------------------------
def figure7_report(scale: Optional[CampaignScale] = None) -> ExperimentReport:
    scale = scale or get_scale()
    bases, speq = _run_headline_campaign(scale)
    rep = ExperimentReport(
        "Figure 7", "Repartition of completion times normalized by the "
                    "environment average")
    bins = 20
    lo, hi = 0.0, 5.0

    def normalized(results: List[ExecutionResult], mw: str) -> List[float]:
        env: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        for r in results:
            if r.config.middleware == mw:
                env[(r.config.trace, r.config.category)].append(r.makespan)
        out: List[float] = []
        for vals in env.values():
            mean = float(np.mean(vals))
            if mean > 0:
                out.extend(v / mean for v in vals)
        return out

    for mw in MIDDLEWARE:
        table = TextTable(
            f"Figure 7 panel: {mw.upper()} (fraction of executions per "
            "normalized-completion bin)",
            ["bin center", "no SpeQuloS", "SpeQuloS"],
            note="paper: BOINC stability improves markedly with SpeQuloS "
                 "(mass concentrates near 1); XWHEP already stable")
        centers, f_base = histogram_fractions(normalized(bases, mw),
                                              lo, hi, bins)
        _, f_speq = histogram_fractions(normalized(speq, mw), lo, hi, bins)
        for c, fb, fs in zip(centers, f_base, f_speq):
            table.add_row(f"{c:.2f}", f"{fb:.3f}", f"{fs:.3f}")
        rep.tables.append(table)
        for label, samples in (("no SpeQuloS", normalized(bases, mw)),
                               ("SpeQuloS", normalized(speq, mw))):
            arr = np.asarray(samples)
            rep.notes.append(
                f"{mw} {label}: std of normalized completion "
                f"{float(np.std(arr)):.3f}")
    return rep


# ---------------------------------------------------------------------------
# Table 4 — completion time prediction success
# ---------------------------------------------------------------------------
def table4_report(scale: Optional[CampaignScale] = None,
                  fraction: float = 0.5) -> ExperimentReport:
    scale = scale or get_scale()
    _bases, speq = _run_headline_campaign(scale)
    rep = ExperimentReport(
        "Table 4", "SpeQuloS completion-time prediction success (+-20%), "
                   f"predicted at {fraction:.0%} completion")
    idx = min(99, max(0, int(round(fraction * 100)) - 1))
    env: Dict[Tuple[str, str, str], List[ExecutionResult]] = defaultdict(list)
    for r in speq:
        env[(r.config.trace, r.config.middleware,
             r.config.category)].append(r)

    table = TextTable(
        "Prediction success rate (%)",
        ["BE-DCI"] + [f"{c} {mw.upper()}" for c in CATEGORIES
                      for mw in MIDDLEWARE] + ["mixed"],
        note="paper: >90% success overall; RANDOM BoTs and spot100/XWHEP "
             "notably harder")
    overall_hits = overall_n = 0
    for trace in TRACE_NAMES:
        row = [trace]
        t_hits = t_n = 0
        for cat in CATEGORIES:
            for mw in MIDDLEWARE:
                rs = env.get((trace, mw, cat), [])
                bases_p = [r.tc_grid[idx] / fraction for r in rs]
                actuals = [r.makespan for r in rs]
                alpha = fit_alpha(bases_p, actuals)
                hits = sum(
                    1 for p, a in zip(bases_p, actuals)
                    if math.isfinite(p) and prediction_success(alpha * p, a))
                n = sum(1 for p in bases_p if math.isfinite(p))
                row.append(f"{100.0 * hits / n:.0f}" if n else "-")
                t_hits += hits
                t_n += n
        row.append(f"{100.0 * t_hits / t_n:.1f}" if t_n else "-")
        overall_hits += t_hits
        overall_n += t_n
        table.add_row(*row)
    if overall_n:
        table.add_row("mixed", *[""] * (len(CATEGORIES) * len(MIDDLEWARE)),
                      f"{100.0 * overall_hits / overall_n:.1f}")
    rep.tables.append(table)
    rep.notes.append("alpha fitted per environment with perfect knowledge "
                     "of the other executions, as in §4.3.3")
    return rep


# ---------------------------------------------------------------------------
# Table 5 — EDGI deployment accounting
# ---------------------------------------------------------------------------
def table5_report(duration_days: float = 2.0, seed: int = 5,
                  n_bots: int = 12) -> ExperimentReport:
    from repro.deployment.edgi import EDGIConfig
    summary = run_cached(EDGIConfig(seed=seed, duration_days=duration_days,
                                    n_bots=n_bots))
    rep = ExperimentReport(
        "Table 5", "EDGI-style deployment: tasks executed per "
                   "infrastructure component")
    table = TextTable(
        "Task accounting",
        ["component", "#tasks"],
        note="paper (first half of 2011): XW@LAL 557002, XW@LRI 129630, "
             "EGI 10371, StratusLab 3974, EC2 119 — shape to match: DGs "
             "carry the bulk, clouds a small QoS fraction")
    for name, count in summary.items():
        table.add_row(name, count)
    rep.tables.append(table)
    return rep


# ---------------------------------------------------------------------------
# Ablations (design-choice sweeps beyond the paper's grid)
# ---------------------------------------------------------------------------
_ABLATION_ENVS = (("seti", "boinc"), ("nd", "xwhep"))


def _ablation_bases(scale: CampaignScale, seed0: int
                    ) -> Dict[Tuple[str, str, int], ExecutionResult]:
    seeds = [seed0 + i for i in range(max(2, scale.seeds_per_env - 1))]
    out = {}
    for trace, mw in _ABLATION_ENVS:
        for s in seeds:
            cfg = ExecutionConfig(trace=trace, middleware=mw,
                                  category="SMALL", seed=s,
                                  bot_size=scale.bot_size("SMALL"))
            out[(trace, mw, s)] = run_cached(cfg)
    return out


def ablation_threshold_report(scale: Optional[CampaignScale] = None
                              ) -> ExperimentReport:
    """Sweep the completion-threshold trigger — the paper fixes 90%;
    this quantifies the TRE/spend trade-off around that choice."""
    scale = scale or get_scale()
    rep = ExperimentReport(
        "Ablation A1", "Completion-threshold sweep (9C-C-R variants)")
    table = TextTable(
        "Trigger threshold vs outcome (seti/boinc + nd/xwhep, SMALL)",
        ["threshold", "mean TRE %", "mean credits %"],
        note="the paper fixes 90%: earlier triggers buy little extra TRE "
             "for noticeably more credits")
    bases = _ablation_bases(scale, 2000)
    for thr in (0.80, 0.85, 0.90, 0.95):
        tres, spends = [], []
        for key, base in bases.items():
            res = run_cached(
                base.config.with_strategy(HEADLINE_COMBO, threshold=thr))
            if has_material_tail(base):
                tres.append(tail_removal_efficiency(
                    base.makespan, res.makespan, base.ideal_time))
            spends.append(res.credits_used_pct)
        table.add_row(f"{thr:.0%}",
                      f"{float(np.mean(tres)):.1f}" if tres else "-",
                      f"{float(np.mean(spends)):.1f}")
    rep.tables.append(table)
    return rep


def ablation_budget_report(scale: Optional[CampaignScale] = None
                           ) -> ExperimentReport:
    """Sweep the credit provision (2.5-20% of the workload) — the paper
    fixes 10%; this shows where the tail removal saturates."""
    scale = scale or get_scale()
    rep = ExperimentReport(
        "Ablation A2", "Credit-budget sweep (9C-C-R, fraction of workload)")
    table = TextTable(
        "Provision vs outcome (seti/boinc + nd/xwhep, SMALL)",
        ["provision %", "mean TRE %", "mean credits spent (abs)"],
        note="the paper provisions 10% of the workload and spends <25% of "
             "it; TRE saturates well below the full budget")
    bases = _ablation_bases(scale, 3000)
    for frac in (0.025, 0.05, 0.10, 0.20):
        tres, spent = [], []
        for key, base in bases.items():
            res = run_cached(base.config.with_strategy(HEADLINE_COMBO)
                             .with_credit_fraction(frac))
            if has_material_tail(base):
                tres.append(tail_removal_efficiency(
                    base.makespan, res.makespan, base.ideal_time))
            spent.append(res.credits_spent)
        table.add_row(f"{frac:.1%}",
                      f"{float(np.mean(tres)):.1f}" if tres else "-",
                      f"{float(np.mean(spent)):.0f}")
    rep.tables.append(table)
    return rep


# ---------------------------------------------------------------------------
# Contention sweep — multi-tenant arbitration (beyond the paper's grid)
# ---------------------------------------------------------------------------
def contention_report(scale: Optional[CampaignScale] = None,
                      trace: str = "seti", middleware: str = "boinc",
                      ) -> ExperimentReport:
    """1→N concurrent BoTs per DCI under each arbitration policy.

    The scenario family §5's shared deployment implies but the paper
    never measures: N tenants' BoTs share one BE-DCI, one Cloud
    supplement and one credit pool sized for 5 % of *one* tenant's
    workload — so contention grows with N — under ``fifo``,
    ``fairshare`` and ``deadline`` arbitration.
    """
    from repro.core.scheduler import ARBITRATION_POLICIES
    scale = scale or get_scale()
    tenant_counts = (1, 2, 4, 8) if scale.size_factor < 1.0 \
        else (1, 2, 4, 8, 16, 32, 64)
    seeds = [6000 + i for i in range(max(2, scale.seeds_per_env - 1))]
    sweep = MultiTenantSweepSpec(
        traces=(trace,), middlewares=(middleware,),
        policies=ARBITRATION_POLICIES, tenant_counts=tenant_counts,
        seeds=tuple(seeds), bot_size=40, strategy="9C-C-D",
        pool_fraction=0.05, pool_scaling="per-tenant",
        worker_budget=8, worker_budget_scaling="at-least-tenants",
        deadline_factor=0.5)
    cfgs = sweep.expand()
    # key by scenario axes rather than relying on expansion order
    by_axes = {(c.policy, c.n_tenants, c.seed): r
               for c, r in zip(cfgs, run_campaign(cfgs))}
    rep = ExperimentReport(
        "Contention", "Per-tenant slowdown and fairness under concurrent "
                      f"QoS runs ({trace}/{middleware}, shared pool)")
    table = TextTable(
        "Contention sweep (mean over seeds)",
        ["policy", "tenants", "mean slowdown", "max/min spread",
         "jain index", "pool spent %", "censored"],
        note="pool = 5% of one tenant's workload regardless of N, so "
             "N tenants share 1/N of the single-tenant provision each; "
             "fairshare trades a little mean slowdown for a much "
             "tighter spread once the pool is contended")
    for policy in sweep.policies:
        for n in sweep.tenant_counts:
            slows, spreads, jains, spents, cens = [], [], [], [], 0
            for seed in sweep.seeds:
                res = by_axes[(policy, n, seed)]
                slows.append(float(np.mean(res.slowdowns)))
                spreads.append(res.slowdown_spread)
                jains.append(res.fairness)
                spents.append(res.pool_used_pct)
                cens += res.censored_count
            table.add_row(policy, str(n),
                          f"{float(np.mean(slows)):.2f}",
                          f"{float(np.mean(spreads)):.2f}",
                          f"{float(np.mean(jains)):.3f}",
                          f"{float(np.mean(spents)):.1f}",
                          str(cens))
    rep.tables.append(table)
    rep.notes.append(f"seeds per point: {len(seeds)}; BoT size 40 "
                     f"(SMALL tasks); strategy 9C-C-D")
    return rep


# ---------------------------------------------------------------------------
# Federation sweep — one SpeQuloS over many DCIs and clouds (§5, Fig. 8)
# ---------------------------------------------------------------------------
FEDERATION_ROUTINGS = ("round_robin", "least_loaded")


def federation_sweep(scale: CampaignScale) -> FederatedSweepSpec:
    """The federation report's grid: DCI count x routing x seed.

    DCI templates grow a heterogeneous federation — a huge volatile
    desktop grid (seti/boinc), a tiny 10-node lab grid (nd/xwhep, the
    one round-robin drowns) and a Grid'5000 harvest bounded to 200
    nodes as in the paper's XW@LRI.  The two-DCI point is the
    *reference federated scenario*: 8 tenants' 100-task BoTs with a
    pool worth 2 % of the aggregate workload and an 8-worker global
    budget, where routing quality shows directly in the max/min
    slowdown spread.
    """
    seeds = tuple(6000 + i for i in range(max(2, scale.seeds_per_env - 1)))
    return FederatedSweepSpec(
        dci_traces=("seti", "nd", "g5klyo"),
        dci_middlewares=("boinc", "xwhep", "xwhep"),
        dci_max_nodes=(None, 10, 200),
        n_dcis=(1, 2, 3),
        routings=FEDERATION_ROUTINGS,
        policies=("fairshare",),
        seeds=seeds,
        n_tenants=8, bot_size=100, strategy="9C-C-R",
        pool_fraction=0.02, max_total_workers=8,
        arrival_rate_per_hour=2.0, deadline_factor=0.5,
        horizon_days=2.0)


def federation_report(scale: Optional[CampaignScale] = None
                      ) -> ExperimentReport:
    """Slowdown and pool usage vs DCI count and routing policy.

    The scenario family the paper's Figure 8 deployment implies but
    never measures: the same tenant stream over growing federations,
    under blind round-robin vs live-load routing, with one arbiter
    rationing the shared pool and worker budget across every binding.
    """
    scale = scale or get_scale()
    sweep = federation_sweep(scale)
    cfgs = sweep.expand()
    by_axes = {(c.routing, len(c.dcis), c.seed): r
               for c, r in zip(cfgs, run_campaign(cfgs))}
    rep = ExperimentReport(
        "Federation", "One SpeQuloS over many DCIs and clouds: slowdown "
                      "and pool usage vs DCI count and routing policy")
    table = TextTable(
        "Federation sweep (mean over seeds)",
        ["routing", "DCIs", "mean slowdown", "max/min spread",
         "jain index", "pool spent %", "peak workers", "censored"],
        note="heterogeneous DCIs (seti/boinc + nd/xwhep@10 + g5klyo/"
             "xwhep@200); live-load routing avoids drowning the tiny "
             "desktop grid that blind round-robin overloads")
    for routing in sweep.routings:
        for n in sweep.n_dcis:
            rs = [by_axes[(routing, n, s)] for s in sweep.seeds]
            table.add_row(
                routing, str(n),
                f"{float(np.mean([np.mean(r.slowdowns) for r in rs])):.2f}",
                f"{float(np.mean([r.slowdown_spread for r in rs])):.2f}",
                f"{float(np.mean([r.fairness for r in rs])):.3f}",
                f"{float(np.mean([r.pool_used_pct for r in rs])):.1f}",
                f"{float(np.mean([r.workers_peak for r in rs])):.1f}",
                str(sum(r.censored_count for r in rs)))
    rep.tables.append(table)

    # per-DCI accounting of the largest federation (first seed)
    n_max = max(sweep.n_dcis)
    for routing in sweep.routings:
        res = by_axes[(routing, n_max, sweep.seeds[0])]
        table = TextTable(
            f"Per-DCI accounting, {n_max} DCIs, {routing} "
            f"(seed {sweep.seeds[0]})",
            ["DCI", "trace", "cloud", "tenants", "DG tasks",
             "cloud tasks", "peak workers", "cloud CPUh"])
        for d in res.dcis:
            table.add_row(d.name, d.trace, d.provider,
                          str(d.tenants_assigned), str(d.completions),
                          str(d.cloud_tasks), str(d.workers_peak),
                          f"{d.cloud_cpu_hours:.1f}")
        rep.tables.append(table)

    ref_n = 2
    spreads = {
        routing: float(np.mean([by_axes[(routing, ref_n, s)].slowdown_spread
                                for s in sweep.seeds]))
        for routing in sweep.routings}
    winner = min(spreads, key=spreads.get)
    rep.notes.append(
        f"reference scenario ({ref_n} DCIs): max/min slowdown spread "
        + ", ".join(f"{r} {v:.2f}" for r, v in spreads.items())
        + f" — {winner} routing serves the tenants most evenly")
    rep.notes.append(f"seeds per point: {len(sweep.seeds)}; "
                     f"{sweep.n_tenants} tenants x {sweep.bot_size} tasks; "
                     f"strategy {sweep.strategy}; pool "
                     f"{sweep.pool_fraction:.0%} of aggregate workload; "
                     f"global budget {sweep.max_total_workers} workers")
    return rep


# ---------------------------------------------------------------------------
# Economics report — credits vs slowdown under per-provider pricing
# ---------------------------------------------------------------------------
ECONOMICS_ROUTINGS = ("least_loaded", "cheapest_drain")


def economics_sweep(scale: CampaignScale) -> FederatedSweepSpec:
    """The economics report's grid: routing x price book x seed over
    the reference heterogeneous federation.

    The two DCIs carry the EDGI preset's provider mapping (nd/xwhep
    backed by the on-site StratusLab, g5klyo/xwhep backed by EC2) over
    *capacity-equalized* realizations — 150 nodes each, so blind load
    balancing has no capacity excuse and the provider price is the only
    systematic differentiator.  The price-book axis pairs the paper's
    uniform economy against :data:`~repro.deployment.edgi.EDGI_PRICING`
    (StratusLab at a third of the EC2 rate).  Routing quality shows
    directly in credits spent: ``cheapest_drain`` steers BoTs (and
    their cloud supplements) toward the cheap provider,
    ``least_loaded`` cannot see prices at all.
    """
    from repro.deployment.edgi import EDGI_PRICING
    seeds = tuple(6000 + i for i in range(max(2, scale.seeds_per_env - 1)))
    return FederatedSweepSpec(
        dci_traces=("nd", "g5klyo"),
        dci_middlewares=("xwhep",),
        dci_providers=("stratuslab", "ec2"),
        dci_max_nodes=(150, 150),
        n_dcis=(2,),
        routings=ECONOMICS_ROUTINGS,
        policies=("fairshare",),
        pricings=(None, EDGI_PRICING),
        seeds=seeds,
        n_tenants=8, bot_size=100, strategy="9C-C-R",
        pool_fraction=0.10, max_total_workers=8,
        arrival_rate_per_hour=2.0, deadline_factor=0.5,
        horizon_days=2.0)


def economics_report(scale: Optional[CampaignScale] = None
                     ) -> ExperimentReport:
    """Credits spent vs slowdown across uniform/heterogeneous price
    books on the reference federation.

    The acceptance scenario: under the uniform paper economy
    ``cheapest_drain`` reproduces ``least_loaded`` decision-for-
    decision while the scenario's history plane is cold (a constant
    price factor preserves every argmin), while under the
    heterogeneous book it routes toward the cheap on-site cloud and
    spends measurably fewer credits at comparable slowdown.  Warm
    store = zero new simulations.
    """
    scale = scale or get_scale()
    sweep = economics_sweep(scale)
    cfgs = sweep.expand()
    by_axes = {(c.routing, c.pricing is not None, c.seed): r
               for c, r in zip(cfgs, run_campaign(cfgs))}
    rep = ExperimentReport(
        "Economics", "Per-provider pricing and cost-aware routing: "
                     "credits spent vs slowdown on the reference "
                     "federation")
    table = TextTable(
        "Price book x routing (mean over seeds)",
        ["price book", "routing", "credits spent", "pool %",
         "mean slowdown", "max/min spread", "censored"],
        note="uniform book: the routings decide identically while the "
             "plane is cold; heterogeneous book (stratuslab 6 / ec2 "
             "18 credits per CPU-hour): cheapest_drain steers work "
             "to the cheap provider")
    spends: Dict[Tuple[str, bool], float] = {}
    slowdowns: Dict[Tuple[str, bool], float] = {}
    for heterogeneous in (False, True):
        for routing in sweep.routings:
            rs = [by_axes[(routing, heterogeneous, s)]
                  for s in sweep.seeds]
            spend = float(np.mean([r.pool_spent for r in rs]))
            slow = float(np.mean([np.mean(r.slowdowns) for r in rs]))
            spends[(routing, heterogeneous)] = spend
            slowdowns[(routing, heterogeneous)] = slow
            table.add_row(
                "heterogeneous" if heterogeneous else "uniform",
                routing, f"{spend:.1f}",
                f"{float(np.mean([r.pool_used_pct for r in rs])):.1f}",
                f"{slow:.2f}",
                f"{float(np.mean([r.slowdown_spread for r in rs])):.2f}",
                str(sum(r.censored_count for r in rs)))
    rep.tables.append(table)

    # per-provider split of the heterogeneous runs (first seed)
    for routing in sweep.routings:
        res = by_axes[(routing, True, sweep.seeds[0])]
        table = TextTable(
            f"Per-DCI credit accounting, heterogeneous book, {routing} "
            f"(seed {sweep.seeds[0]})",
            ["DCI", "provider", "rate cr/CPUh", "tenants",
             "credits spent", "cloud CPUh"])
        for d in res.dcis:
            table.add_row(d.name, d.provider,
                          f"{d.price_per_cpu_hour:g}",
                          str(d.tenants_assigned),
                          f"{d.credits_spent:.1f}",
                          f"{d.cloud_cpu_hours:.1f}")
        rep.tables.append(table)

    cheap = spends[("cheapest_drain", True)]
    blind = spends[("least_loaded", True)]
    saving = 100.0 * (1.0 - cheap / blind) if blind > 0 else 0.0
    rep.notes.append(
        f"heterogeneous book: cheapest_drain spends {cheap:.1f} "
        f"credits vs least_loaded's {blind:.1f} ({saving:.0f}% saved) "
        f"at mean slowdown {slowdowns[('cheapest_drain', True)]:.2f} "
        f"vs {slowdowns[('least_loaded', True)]:.2f}")
    rep.notes.append(
        f"uniform book sanity: cheapest_drain "
        f"{spends[('cheapest_drain', False)]:.1f} vs least_loaded "
        f"{spends[('least_loaded', False)]:.1f} credits — while the "
        f"scenario's history plane is cold the two policies decide "
        f"identically (a constant price factor preserves every "
        f"argmin); they only diverge once archived throughput warms "
        f"the drain estimates")
    rep.notes.append(f"seeds per point: {len(sweep.seeds)}; "
                     f"{sweep.n_tenants} tenants x {sweep.bot_size} "
                     f"tasks; pool {sweep.pool_fraction:.0%} of the "
                     f"aggregate workload; global budget "
                     f"{sweep.max_total_workers} workers")
    return rep


# ---------------------------------------------------------------------------
# Learning report — warm-vs-cold prediction over the history plane
# ---------------------------------------------------------------------------
#: reference environment of the learning study (trace, middleware,
#: category, strategy) and the completion fraction predictions are
#: made at — 25 %, early enough that the uncalibrated tc(r)/r
#: extrapolation overshoots (SpeQuloS removes the tail *later*), which
#: is exactly what a warm α corrects
LEARNING_ENV = ("seti", "boinc", "SMALL", HEADLINE_COMBO)
LEARNING_FRACTION = 0.25


def _learning_data(scale: CampaignScale) -> dict:
    """The learning study's raw numbers (memoized per scale).

    Replays a seed sequence of reference executions through a
    :class:`~repro.history.plane.HistoryPlane` exactly as a deployed
    service would see them: execution *i* is predicted with the α
    calibrated from the `i` executions archived before it.  Three
    success rates fall out:

    * **cold** — every prediction uses α = 1 (a service whose archive
      is wiped between executions: the pre-plane reality);
    * **growing** — the sequential replay above (the archive fills);
    * **warm** — each execution predicted with the α of a full archive
      (leave-one-out, so no execution predicts itself).

    Executions come from the campaign store (warm report = zero new
    simulations).
    """
    def build():
        trace, mw, cat, strategy = LEARNING_ENV
        n = 12 if scale.size_factor < 1.0 else 20
        cfgs = [ExecutionConfig(trace=trace, middleware=mw, category=cat,
                                seed=7000 + i, strategy=strategy,
                                bot_size=scale.bot_size(cat))
                for i in range(n)]
        results = run_campaign(cfgs)
        fraction = LEARNING_FRACTION
        env = env_key_of(f"{trace}-{mw}", cat)
        records = [ExecutionRecord(env, r.n_tasks, r.makespan, r.tc_grid,
                                   credits_spent=r.credits_spent)
                   for r in results]
        # the same grid lookup the Oracle uses (no third copy of the
        # percent-index formula)
        bases = [rec.tc_at(fraction) / fraction for rec in records]
        actuals = [rec.makespan for rec in records]

        plane = HistoryPlane()
        rows = []
        for res, rec, base, actual in zip(results, records, bases,
                                          actuals):
            alpha, archived = plane.alpha(env, fraction)
            rows.append({
                "seed": res.config.seed,
                "archived": archived,
                "alpha": alpha,
                "cold_ok": prediction_success(base, actual),
                "seq_ok": prediction_success(alpha * base, actual),
            })
            plane.add(rec)
        warm_ok = []
        for i in range(len(records)):
            alpha = fit_alpha([b for j, b in enumerate(bases) if j != i],
                              [a for j, a in enumerate(actuals) if j != i])
            warm_ok.append(prediction_success(alpha * bases[i],
                                              actuals[i]))
        for row, ok in zip(rows, warm_ok):
            row["warm_ok"] = ok
        return {
            "rows": rows,
            "env": env,
            "records": records,
            "cold_rate": float(np.mean([r["cold_ok"] for r in rows])),
            "seq_rate": float(np.mean([r["seq_ok"] for r in rows])),
            "warm_rate": float(np.mean(warm_ok)),
        }
    return _memoized("learning", scale, build)  # type: ignore[return-value]


def learning_rates(scale: Optional[CampaignScale] = None
                   ) -> Tuple[float, float, float]:
    """(cold, growing-archive, warm) ±20 % prediction success rates on
    the reference learning scenario."""
    scale = scale or get_scale()
    data = _learning_data(scale)
    return data["cold_rate"], data["seq_rate"], data["warm_rate"]


def learning_report(scale: Optional[CampaignScale] = None
                    ) -> ExperimentReport:
    """Warm-vs-cold prediction success over the history plane.

    The §3.4 claim end to end: the Oracle's α-calibrated predictions
    improve as the Information module's archive fills.  The sequential
    trajectory shows the success probability climbing execution by
    execution; the summary pins cold (α = 1, the always-cold
    pre-plane service) against warm (a filled persistent archive).
    As a side effect the study's records are replayed into the
    persistent history archive (idempotently), so ``repro history
    stats`` shows the same environment the report scores.
    """
    scale = scale or get_scale()
    data = _learning_data(scale)
    trace, mw, cat, strategy = LEARNING_ENV
    rep = ExperimentReport(
        "Learning", "Prediction success vs archive fill "
                    f"({trace}/{mw}/{cat}, {strategy}, predicted at "
                    f"{LEARNING_FRACTION:.0%} completion)")
    table = TextTable(
        "Sequential replay: each execution predicted from the archive "
        "as of its start",
        ["execution", "seed", "archived", "alpha", "cold ok",
         "calibrated ok"],
        note="alpha is fitted from the executions archived so far; "
             "'cold ok' scores the same prediction with alpha = 1")
    for i, row in enumerate(data["rows"]):
        table.add_row(str(i + 1), str(row["seed"]), str(row["archived"]),
                      f"{row['alpha']:.2f}",
                      "yes" if row["cold_ok"] else "no",
                      "yes" if row["seq_ok"] else "no")
    rep.tables.append(table)

    summary = TextTable(
        "Prediction success rate (+-20 %)",
        ["archive regime", "success rate %"],
        note="the acceptance bar: a warm persistent archive must "
             "strictly beat the cold start")
    summary.add_row("cold start (alpha = 1, archive wiped each run)",
                    f"{100.0 * data['cold_rate']:.1f}")
    summary.add_row("growing archive (sequential replay)",
                    f"{100.0 * data['seq_rate']:.1f}")
    summary.add_row("warm archive (leave-one-out over full history)",
                    f"{100.0 * data['warm_rate']:.1f}")
    rep.tables.append(summary)

    # replay the study into the shared persistent archive (idempotent:
    # records are content-addressed) so `repro history stats` sees it
    from repro.history import PersistentHistoryStore
    persistent = HistoryPlane(PersistentHistoryStore())
    for rec in data["records"]:
        persistent.add(rec)
    rep.notes.append(
        f"{len(data['records'])} executions of {data['env']} replayed "
        f"into the persistent archive (repro history stats)")
    rep.notes.append(
        "predictions extrapolate tc(r)/r at r = "
        f"{LEARNING_FRACTION:.0%}; with SpeQuloS the tail is removed "
        "after that point, so uncalibrated early predictions "
        "overshoot — exactly the bias a warm alpha corrects")
    return rep


def ablation_middleware_report(scale: Optional[CampaignScale] = None
                               ) -> ExperimentReport:
    """Sweep the middleware volatility knobs the tail depends on:
    BOINC's ``delay_bound`` and XWHEP's ``worker_timeout``."""
    scale = scale or get_scale()
    rep = ExperimentReport(
        "Ablation A3", "Middleware timeout knobs vs tail slowdown "
                       "(no SpeQuloS)")
    from repro.middleware.boinc import BoincConfig
    from repro.middleware.xwhep import XWHepConfig
    table = TextTable(
        "Tail slowdown sensitivity",
        ["middleware", "knob", "value (s)", "mean slowdown"],
        note="BOINC's day-long delay_bound is the root of its 10x tails "
             "(§2.2); XWHEP's 900s detection keeps tails shorter")
    seeds = [4000 + i for i in range(max(2, scale.seeds_per_env - 1))]
    # the timeout knobs live outside ExecutionConfig, so they enter the
    # store digest through run_cached's extra-parameters key
    for db in (21600.0, 86400.0, 172800.0):
        slows = []
        for s in seeds:
            cfg = ExecutionConfig(trace="seti", middleware="boinc",
                                  category="SMALL", seed=s,
                                  bot_size=scale.bot_size("SMALL"))
            res = run_cached(
                cfg, extra={"delay_bound": db},
                compute=lambda: run_execution(
                    cfg, middleware_config=BoincConfig(delay_bound=db)))
            slows.append(res.slowdown)
        table.add_row("boinc", "delay_bound", f"{db:.0f}",
                      f"{float(np.mean(slows)):.2f}")
    for wt in (300.0, 900.0, 3600.0):
        slows = []
        for s in seeds:
            cfg = ExecutionConfig(trace="g5klyo", middleware="xwhep",
                                  category="SMALL", seed=s,
                                  bot_size=scale.bot_size("SMALL"))
            res = run_cached(
                cfg, extra={"worker_timeout": wt},
                compute=lambda: run_execution(
                    cfg, middleware_config=XWHepConfig(worker_timeout=wt)))
            slows.append(res.slowdown)
        table.add_row("xwhep", "worker_timeout", f"{wt:.0f}",
                      f"{float(np.mean(slows)):.2f}")
    rep.tables.append(table)
    return rep
