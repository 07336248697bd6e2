#!/usr/bin/env python
"""Completion-time prediction as a service (§3.4, Table 4).

SpeQuloS predicts a BoT's completion as ``tp = alpha * tc(r) / r`` —
the current progress extrapolated linearly, corrected by a per-
environment factor ``alpha`` fitted on archived executions.  This
example builds a history by running several BoTs in one environment
(persisted through the SQLite archive backend, as a real multi-user
service would), then scores +-20 % prediction accuracy on fresh
executions — the paper's Table 4 protocol.

Run:  python examples/prediction_service.py
"""


from repro.core.info import InformationModule
from repro.core.oracle import fit_alpha, prediction_success
from repro.history import PersistentHistoryStore
from repro.history.records import ExecutionRecord
from repro.experiments import ExecutionConfig, run_campaign

ENV = ("nd", "xwhep", "SMALL")
PREDICT_AT = 0.5


def main() -> None:
    trace, mw, cat = ENV
    env_key = f"{trace}-{mw}//{cat}"
    print(f"environment: {env_key}, predictions at "
          f"{PREDICT_AT:.0%} completion\n")

    # 1. Build a history archive from 8 training executions.
    store = PersistentHistoryStore(":memory:")
    info = InformationModule(store=store)
    train_cfgs = [ExecutionConfig(trace=trace, middleware=mw, category=cat,
                                  seed=500 + i, bot_size=200,
                                  strategy="9C-C-R")
                  for i in range(8)]
    print("running 8 training executions...")
    for res in run_campaign(train_cfgs):
        store.add(ExecutionRecord(env_key=env_key, n_tasks=res.n_tasks,
                                  makespan=res.makespan, grid=res.tc_grid))
    print(f"archive now holds {len(store)} executions "
          f"({store.env_keys()})\n")

    # 2. Fit alpha exactly as the Oracle does.
    idx = int(round(PREDICT_AT * 100)) - 1
    history = store.fetch(env_key)
    bases = [rec.grid[idx] / PREDICT_AT for rec in history]
    actuals = [rec.makespan for rec in history]
    alpha = fit_alpha(bases, actuals)
    print(f"fitted alpha = {alpha:.3f} "
          "(1.0 would mean linear extrapolation is already unbiased)")

    # 3. Score fresh executions.
    # Predictions are made for QoS-enabled BoTs: SpeQuloS both needs
    # them (to advise the user) and helps them succeed (tail removal
    # stabilizes completion times, §4.3.2-4.3.3).
    test_cfgs = [ExecutionConfig(trace=trace, middleware=mw, category=cat,
                                 seed=900 + i, bot_size=200,
                                 strategy="9C-C-R")
                 for i in range(6)]
    print("\nscoring 6 fresh executions:")
    hits = 0
    for res in run_campaign(test_cfgs):
        base = res.tc_grid[idx] / PREDICT_AT
        tp = alpha * base
        ok = prediction_success(tp, res.makespan)
        hits += ok
        print(f"  seed {res.config.seed}: predicted {tp:8.0f} s, "
              f"actual {res.makespan:8.0f} s  "
              f"{'HIT' if ok else 'miss'}")
    print(f"\nsuccess rate: {hits}/{len(test_cfgs)} "
          f"({100 * hits / len(test_cfgs):.0f} %) — the paper reports "
          "~90 % on average across environments (Table 4)")


if __name__ == "__main__":
    main()
