"""Per-handle Algorithm 2 (reference for the scheduler's columnar
billing tick, :meth:`repro.core.scheduler.SpeQuloSScheduler.
_bill_and_manage`, and its batched teardown settlement)."""

import numpy as np

from repro.core.strategies import DEPLOY_CLOUD_DUP, SIZE_GREEDY


def _handle_busy(run, handle) -> bool:
    if handle.deploy_mode == DEPLOY_CLOUD_DUP:
        return run.coordinator.busy(handle.node)
    return run.server.is_busy(handle.node)


def stop_all_scalar(sched, run, reason: str) -> None:
    """Stop every worker, settling each handle's usage one by one in
    handle order (the clamping order a shortfall makes observable)."""
    if run.stop_reason is None:
        run.stop_reason = reason
    for handle in run.handles:
        sched._stop_handle(run, handle)


def bill_and_manage_scalar(sched, run) -> None:
    """The historical tick loop: per handle in launch order, bill the
    usage since the last tick, then mark it busy or release it past
    its idle grace; stop everything at the first uncovered charge."""
    now = sched.sim.now
    greedy = run.combo.size == SIZE_GREEDY
    ledger = run.ledger
    config = sched.config
    for handle in run.handles:
        if handle.stopped:
            continue
        if not sched._bill_handle(run, handle):
            stop_all_scalar(sched, run, reason="credits exhausted")
            return
        if _handle_busy(run, handle):
            ledger.touch_busy_bulk(np.array([handle.ledger_index]), now)
            continue
        if greedy and not handle.ever_assigned:
            grace = config.greedy_release_grace
        elif config.idle_grace is not None:
            grace = config.idle_grace
        else:
            continue
        if now - handle.last_busy >= grace:
            sched._stop_handle(run, handle)
