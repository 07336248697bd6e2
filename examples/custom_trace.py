#!/usr/bin/env python
"""Bring your own availability trace.

The paper replays datasets from the Failure Trace Archive; this
reproduction synthesizes equivalents, but the whole pipeline also runs
on *measured* traces.  This example shows the workflow end to end:

1. write a trace in the FTA-style interval format (here we fabricate a
   tiny institutional desktop grid: 9-to-5 weekday availability with
   per-node jitter — the classic enterprise-DG pattern of Kondo et
   al.);
2. load it with :func:`repro.infra.fta.load_trace`;
3. run a BoT through XtremWeb-HEP on it, with and without SpeQuloS.

Any monitoring system that can dump `(node, start, end)` rows can feed
this path.

Run:  python examples/custom_trace.py
"""

import io

import numpy as np

from repro.core.service import SpeQuloS
from repro.cloud.registry import get_driver
from repro.infra.columns import NodeColumns
from repro.infra.fta import load_trace, save_trace
from repro.infra.pool import NodePool
from repro.infra.stats import measure_trace
from repro.middleware.xwhep import XWHepServer
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task

DAY = 86400.0
HOUR = 3600.0


def fabricate_office_trace(n_nodes=40, n_days=5, seed=1) -> str:
    """A 9-to-5 enterprise desktop grid, as an FTA-format string."""
    rng = np.random.default_rng(seed)
    buf = io.StringIO()
    buf.write("# fabricated office desktop grid: 9-17h weekdays\n")
    for node in range(n_nodes):
        power = max(300.0, rng.normal(1000.0, 250.0))
        for day in range(n_days):
            # workstation switched on around 9, off around 17, with a
            # lunch-break suspension on some days
            on = day * DAY + 9 * HOUR + rng.normal(0, 900)
            off = day * DAY + 17 * HOUR + rng.normal(0, 1800)
            if rng.random() < 0.4:   # lunch reboot
                lunch = day * DAY + 12.5 * HOUR + rng.normal(0, 600)
                buf.write(f"{node} {on:.0f} {lunch:.0f} {power:.0f}\n")
                buf.write(f"{node} {lunch + 1800:.0f} {off:.0f} "
                          f"{power:.0f}\n")
            else:
                buf.write(f"{node} {on:.0f} {off:.0f} {power:.0f}\n")
    return buf.getvalue()


def main() -> None:
    text = fabricate_office_trace()
    trace = NodeColumns.from_nodes(load_trace(io.StringIO(text)))
    stats = measure_trace(trace, 5 * DAY, step=600.0)
    print(f"loaded {len(trace)} nodes from the FTA-format trace")
    print(f"  mean available nodes : {stats.mean_nodes:.1f}")
    print(f"  availability medians : {stats.avail_quartiles[1]:.0f} s")
    print(f"  node power           : {stats.power_mean:.0f} ± "
          f"{stats.power_std:.0f} nops/s")

    def run(with_speq: bool) -> tuple:
        sim = Simulation(horizon=30 * DAY)
        pool = NodePool(trace.fresh(),
                        rng=np.random.default_rng(7))
        srv = XWHepServer(sim, pool)
        # 150 one-hour tasks submitted Monday 10:00
        bot = BagOfTasks(
            bot_id="office-bot",
            tasks=[Task(i, 3_600_000.0) for i in range(150)],
            wall_clock=11_000.0)
        spent = 0.0
        if with_speq:
            speq = SpeQuloS(sim)
            speq.connect_dci("office", srv,
                             get_driver("opennebula", sim,
                                        np.random.default_rng(8)))
            speq.register_qos(bot, "office",
                              submit_time=9.5 * HOUR + HOUR / 2)
            provision = 0.10 * bot.workload_cpu_hours * 15.0
            speq.credits.deposit("it-dept", provision)
            speq.order_qos("office-bot", "it-dept", provision)
        done = {}

        class Obs:
            def on_bot_completed(self, bid, t):
                done["t"] = t
                sim.stop()

        srv.add_observer(Obs())
        srv.submit_bot(bot, at=10 * HOUR)
        sim.run()
        if with_speq:
            spent = speq.credits.spent("office-bot")
        return done.get("t"), spent

    plain, _ = run(False)
    speq_t, spent = run(True)
    print(f"\n150 x 1h-task BoT submitted Monday 10:00:")
    print(f"  without SpeQuloS : done after {(plain - 10 * HOUR) / HOUR:6.1f} h"
          f" (overnight gaps stall the tail)")
    print(f"  with SpeQuloS    : done after {(speq_t - 10 * HOUR) / HOUR:6.1f} h"
          f" (cloud bill: {spent:.0f} credits)")

    # the same trace can be persisted for reuse by other tools
    save_trace(trace, io.StringIO())  # (or a real path)
    print("\ntrace round-trips through repro.infra.fta for reuse.")


if __name__ == "__main__":
    main()
