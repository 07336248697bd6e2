"""Repository benchmark: host cost of the SpeQuloS simulator, end to end
and per layer, with the simulated outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload strategy_grid --seed 1 \\
        --seconds 10 --trace 0

Each run starts fresh interpreters (see ``worker.py``) whose stores all
live in a private work directory that is removed afterwards.  With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
makes an untraced reference run and a traced run of the same seed,
checks that both simulated exactly the same thing, and prints every
per-layer metric.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and
units come from ``BENCHMARK.json`` at the repository root.

``--pin`` records the run's outcome digest as the pinned reference for
its workload and seed in ``data/pinned.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINNED = os.path.join(BENCH_DIR, "data", "pinned.json")
WORKLOADS = ("strategy_grid", "federation_100k", "tenant_stream")
DEFAULT_SEED = 1
#: cold set-ups per untraced run (setup_s is their median); two for
#: federation_100k, whose set-up generates 10^5 hosts in about 12 s
SETUPS = {"strategy_grid": 3, "federation_100k": 2, "tenant_stream": 3}
#: whole-run budget: children are killed past it
BUDGET_SECONDS = 170.0
#: percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def metric_specs(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
def child_env(workdir: str) -> dict:
    """The caller's environment minus every ``REPRO_*`` setting, with
    the program's stores inside ``workdir`` and numeric libraries held
    to one thread (the simulator itself is single-threaded)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               REPRO_STORE=os.path.join(workdir, "results.sqlite"),
               REPRO_TRACE_STORE=os.path.join(workdir, "traces"),
               REPRO_HISTORY=os.path.join(workdir, "history.sqlite"))
    return env


def run_child(args, mode: str, setups: int, workdir: str, deadline: float,
              spans: str = None) -> dict:
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--setups", str(setups), "--workdir", workdir, "--out", out]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail(f"no time left for the {mode} run")
    try:
        proc = subprocess.run(cmd, env=child_env(workdir), cwd=ROOT,
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run exceeded the {BUDGET_SECONDS:.0f}s budget")
    if proc.returncode != 0:
        fail(f"{mode} run exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def op_hash(op_id: str, fp: str) -> str:
    return hashlib.sha256(f"{op_id}|{fp}".encode()).hexdigest()[:12]


def digest_of(hashes: list, scenario: str) -> str:
    body = "\n".join(hashes + [scenario]).encode()
    return hashlib.sha256(body).hexdigest()[:16]


def load_pinned() -> dict:
    if not os.path.exists(PINNED):
        return {}
    with open(PINNED) as fh:
        return json.load(fh)


def check_passes(args, passes: list) -> tuple:
    """(attempted, failed, digest, notes) over every pass.

    An operation fails if it raised or broke an invariant, if it
    differs from the same operation of the run's first pass (every
    pass simulates the same configs), or if it differs from the pinned
    reference of this workload and seed.
    """
    first = passes[0]
    ref_hashes = [op_hash(op_id, fp) for op_id, fp, _ in first["ops"]]
    digest = digest_of(ref_hashes, first["scenario"])
    pinned = load_pinned().get(args.workload, {}).get(str(args.seed))
    if args.pin:
        pinned = None
    references = [(ref_hashes, first["scenario"], "first pass")]
    if pinned is not None:
        references.append((pinned["ops"], pinned["scenario"],
                           "pinned digest"))
    notes = []
    attempted = failed = 0
    for p in passes:
        hashes = [op_hash(op_id, fp) for op_id, fp, _ in p["ops"]]
        for refs, scenario, label in references:
            if scenario != p["scenario"] or len(refs) != len(hashes):
                bad = set(range(len(hashes)))
            else:
                bad = {i for i, (a, b) in enumerate(zip(refs, hashes))
                       if a != b}
            if bad:
                notes.append(f"{len(bad)} operations differ from the "
                             f"{label}")
            for i in bad:
                p["ops"][i][2].append(f"differs from the {label}")
        for op_id, _fp, problems in p["ops"]:
            attempted += 1
            if problems:
                failed += 1
                if len(notes) < 12:
                    notes.append(f"{op_id}: {'; '.join(problems)}")
    if pinned is None:
        notes.append(f"digest {digest} (seed {args.seed} not pinned)")
    elif pinned["digest"] == digest:
        notes.append(f"digest {digest} matches the pinned digest")
    else:
        notes.append(f"digest {digest} differs from the pinned digest "
                     f"{pinned['digest']}")
    return attempted, failed, digest, notes


def pin(args, passes: list, digest: str) -> None:
    data = load_pinned()
    first = passes[0]
    data.setdefault(args.workload, {})[str(args.seed)] = {
        "digest": digest, "scenario": first["scenario"],
        "ops": [op_hash(op_id, fp) for op_id, fp, _ in first["ops"]]}
    os.makedirs(os.path.dirname(PINNED), exist_ok=True)
    with open(PINNED, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def tail(samples: list) -> tuple:
    """(label, value): the highest ladder percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it, else the maximum."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return f"p{pct:g}", float(np.percentile(samples, pct))
    return "max", max(samples)


def end_to_end(res: dict) -> tuple:
    """(metrics, notes) of one untraced run; times are normalized CPU."""
    setups, passes = res["setups"], res["passes"]
    cpu = sum(p["cpu"] for p in passes)
    events = sum(p["events"] for p in passes)
    samples = [s for p in passes for s in p["exec_cpu"]]
    label, tail_s = tail(samples)
    metrics = {
        "setup_s": statistics.median(s["cpu"] for s in setups),
        "run_s": statistics.median(p["cpu"] for p in passes),
        "events_per_s": events / cpu,
        "exec_per_s": len(samples) / cpu,
        "exec_p50_ms": 1e3 * statistics.median(samples),
        "exec_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }

    def series(phases, key, unit="s"):
        return ", ".join(f"{p[key]:.3f}" for p in phases) + f" {unit}"

    notes = [
        f"{len(setups)} set-ups: CPU {series(setups, 'cpu_raw')}, "
        f"wall {series(setups, 'wall')}, host factor "
        f"{series(setups, 'factor', 'x')}",
        f"{len(passes)} timed passes, {events} events: CPU "
        f"{series(passes, 'cpu_raw')}, wall {series(passes, 'wall')}, "
        f"host factor {series(passes, 'factor', 'x')}",
        f"exec_tail_ms is {label} over {len(samples)} executions",
    ]
    return metrics, notes


def per_layer(ref: dict, traced: dict) -> dict:
    metrics = dict(traced["layers"])
    metrics["simulator.events"] = traced["passes"][0]["events"]
    # both passes normalized to the reference host speed, so host drift
    # between the two processes does not read as tracing cost
    metrics["trace.overhead"] = (traced["passes"][0]["cpu"]
                                 / ref["passes"][0]["cpu"] - 1.0)
    return metrics


# ---------------------------------------------------------------------------
def main() -> None:
    ap = argparse.ArgumentParser(
        description="Host-cost benchmark of the SpeQuloS simulator.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="normalized CPU seconds of timed passes per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record this run's digest as the pinned one")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        fail(f"no program source under {os.path.join(ROOT, 'src')}; "
             "run from a full checkout")
    deadline = time.monotonic() + BUDGET_SECONDS
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                            dir=os.path.join(BENCH_DIR, ".work"))
    try:
        if args.trace:
            spans_dir = os.path.join(BENCH_DIR, "out")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"spans-{args.workload}"
                                            f"-s{args.seed}.npz")
            ref = run_child(args, "ref", 1, os.path.join(work, "ref"),
                            deadline)
            traced = run_child(args, "traced", 1,
                               os.path.join(work, "traced"), deadline,
                               spans=spans)
            passes = ref["passes"] + traced["passes"]
            specs = metric_specs("per_layer")
            metrics = per_layer(ref, traced)
            notes = [f"spans written to {os.path.relpath(spans, ROOT)}",
                     f"peak RSS: reference "
                     f"{ref['peak_rss_kb'] / 1024:.0f} MB, traced "
                     f"{traced['peak_rss_kb'] / 1024:.0f} MB"]
            same_batches = ref["batch_calls"] == traced["batch_calls"]
            notes.append(
                f"batch calls: reference {ref['batch_calls']}, traced "
                f"{traced['batch_calls']}"
                + ("" if same_batches else " — MISMATCH"))
        else:
            res = run_child(args, "plain", SETUPS[args.workload],
                            os.path.join(work, "plain"), deadline)
            passes = res["passes"]
            specs = metric_specs("end_to_end")
            metrics, notes = end_to_end(res)
            same_batches = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, digest, check_notes = check_passes(args, passes)
    if args.pin and failed == 0:
        pin(args, passes, digest)
        check_notes.append(f"pinned digest {digest} for seed {args.seed}")

    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    width = max(len(s["name"]) for s in specs)
    for s in specs:
        print(f"  {s['name']:<{width}}  {metrics[s['name']]:>16.6g} "
              f"{s['unit']}")
    print(f"  {'failed_frac':<{width}}  {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for note in notes + check_notes:
        print(f"  - {note}")
    result = {
        "correct": failed == 0 and same_batches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]],
                                "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
