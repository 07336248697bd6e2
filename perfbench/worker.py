"""One benchmark process: set up a workload, run its timed passes and
write what it measured as JSON.

Started by ``run.py`` in a fresh interpreter per run, with every store
of the program pointed into a private work directory.  Modes:

* ``plain``  — untraced: ``--setups`` set-ups, then timed passes until
  ``--seconds`` of normalized CPU time are spent (at least one pass);
* ``ref``    — untraced reference of a traced run: one set-up, one
  pass, plus a count of batch-handler calls;
* ``traced`` — the same set-up and pass with every layer boundary
  traced; the spans are written to ``--spans``.

CPU times are reported raw and normalized to the reference host speed
(see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import time
import traceback

from hostspeed import HostProbe
from repro.experiments.harness import ASSEMBLY_CACHE, TRACE_CACHE
from repro.experiments.trace_store import TraceStore, set_default_trace_store
from tracer import BatchCounter, Tracer
from workloads import make_workload, pass_failure


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "ref", "traced"),
                    required=True)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    workload = make_workload(args.workload, args.seed)
    tracer = counter = None
    if args.mode == "traced":
        tracer = Tracer().install()
    elif args.mode == "ref":
        counter = BatchCounter().install()

    probe = HostProbe(
        on_sample=tracer.exclude if tracer is not None else None).start()
    try:
        setups = []
        store = None
        for i in range(args.setups):
            # every set-up starts cold: empty in-process caches and a fresh
            # on-disk trace store
            TRACE_CACHE.clear()
            ASSEMBLY_CACHE.clear()
            store = TraceStore(os.path.join(args.workdir, f"traces-{i}"))
            set_default_trace_store(store)
            gc.collect()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            workload.setup()
            cpu1, wall = time.process_time(), time.perf_counter() - wall0
            factor = probe.factor(cpu0, cpu1)
            setups.append({"cpu": probe.normalized(cpu0, cpu1, factor),
                           "cpu_raw": cpu1 - cpu0, "factor": factor,
                           "wall": wall})

        passes = []
        spent = 0.0
        while True:
            passdir = os.path.join(args.workdir, f"pass-{len(passes)}")
            os.makedirs(passdir)
            # every pass starts from a collected heap: the garbage of
            # the set-up or of the previous pass is not its cost
            gc.collect()
            try:
                res = workload.run_pass(passdir)
            except Exception:
                traceback.print_exc()
                passes.append({"cpu": 0.0, "cpu_raw": 0.0, "factor": 1.0,
                               "wall": 0.0, "events": 0, "exec_cpu": [],
                               "ops": [op.as_json() for op in pass_failure(
                                   workload, "pass raised")],
                               "scenario": "raised", "store_bytes": 0})
                break
            cpu0, cpu1 = res.span
            factor = probe.factor(cpu0, cpu1)
            marks = res.marks
            cpu = probe.normalized(cpu0, cpu1, factor)
            passes.append({
                "cpu": cpu,
                "cpu_raw": cpu1 - cpu0, "factor": factor, "wall": res.wall,
                "events": res.events,
                "exec_cpu": [probe.normalized(a, b, probe.local_factor(a, b))
                             for a, b in zip(marks, marks[1:])],
                "ops": [op.as_json() for op in res.ops],
                "scenario": res.scenario, "store_bytes": res.store_bytes})
            spent += cpu
            if args.mode != "plain" or spent >= args.seconds:
                break
    finally:
        probe.stop()

    out = {"workload": args.workload, "seed": args.seed,
           "mode": args.mode, "setups": setups, "passes": passes,
           "peak_rss_kb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss}
    if counter is not None:
        out["batch_calls"] = counter.calls
    if tracer is not None:
        layers = tracer.metrics()
        layers["infra.trace.store_bytes"] = store.file_bytes()
        layers["campaign.store.bytes"] = passes[-1]["store_bytes"]
        out["layers"] = layers
        out["batch_calls"] = layers["simulator.batch_calls"]
        if args.spans:
            tracer.save(args.spans)
    with open(args.out, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
