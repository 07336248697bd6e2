"""Per-handle Algorithm 2 (reference for the scheduler's columnar
billing: :meth:`repro.core.scheduler.SpeQuloSScheduler._bill_and_manage`,
its batched ``stop_all`` settlement and single-worker stops).

Everything that bills here is scalar: one :func:`charge` (one
``CreditSystem.bill``) per handle, in handle order, reading and writing
the run's ledger columns directly.  Only the release of a worker (which
touches no credits) is shared with the scheduler.
"""

import numpy as np

from repro.core.strategies import DEPLOY_CLOUD_DUP, SIZE_GREEDY
from repro.economics.pricing import ONDEMAND


def charge(meter, bot_id, provider, busy_seconds, now=0.0, tier=ONDEMAND):
    """Bill one worker's usage; returns ``(billed, asked)`` — the
    sequential reference ``BillingMeter.charge_many`` is pinned
    against."""
    if busy_seconds <= 0:
        return 0.0, 0.0
    asked = meter.rate_for(provider, now, tier) * busy_seconds / 3600.0
    billed = meter.credits.bill(bot_id, asked)
    if billed:
        meter.spent_by_provider[provider] = \
            meter.spent_by_provider.get(provider, 0.0) + billed
    meter.cpu_seconds_by_provider[provider] = \
        meter.cpu_seconds_by_provider.get(provider, 0.0) + busy_seconds
    return billed, asked


def _handle_busy(run, handle) -> bool:
    if handle.deploy_mode == DEPLOY_CLOUD_DUP:
        return run.coordinator.busy(handle.node)
    return run.server.is_busy(handle.node)


def _busy_seconds(run, handle, now) -> float:
    usage_of = (run.coordinator.usage_of
                if handle.deploy_mode == DEPLOY_CLOUD_DUP
                else run.server.cloud_usage_of)
    return usage_of([handle.node.node_id], now)[0][0]


def bill_handle(sched, run, handle) -> bool:
    """Bill one handle's usage since its last charge; False when the
    escrow could not cover it."""
    i = handle.ledger_index
    total = _busy_seconds(run, handle, sched.sim.now)
    delta = total - float(run.ledger.billed_busy[i])
    if delta <= 0:
        return True
    billed, asked = charge(sched.meter, run.bot_id, run.driver.name,
                           delta, sched.sim.now)
    run.ledger.billed_busy[i] = total
    return billed >= asked - 1e-9


def stop_handle(sched, run, handle) -> None:
    """Settle one handle, then release it (starvation stops)."""
    if run.ledger.stopped[handle.ledger_index]:
        return
    bill_handle(sched, run, handle)
    sched._release(run, handle)


def stop_all_scalar(sched, run, reason: str) -> None:
    """Stop every worker, settling each handle's usage one by one in
    handle order (the clamping order a shortfall makes observable)."""
    if run.stop_reason is None:
        run.stop_reason = reason
    for handle in run.handles:
        stop_handle(sched, run, handle)


def bill_and_manage_scalar(sched, run) -> None:
    """The historical tick loop: per handle in launch order, bill the
    usage since the last tick, then mark it busy or release it past
    its idle grace; stop everything at the first uncovered charge."""
    now = sched.sim.now
    greedy = run.combo.size == SIZE_GREEDY
    ledger = run.ledger
    config = sched.config
    for handle in run.handles:
        i = handle.ledger_index
        if ledger.stopped[i]:
            continue
        if not bill_handle(sched, run, handle):
            stop_all_scalar(sched, run, reason="credits exhausted")
            return
        if _handle_busy(run, handle):
            ledger.touch_busy_bulk(np.array([i]), now)
            continue
        if greedy and not ledger.ever_assigned[i]:
            grace = config.greedy_release_grace
        elif config.idle_grace is not None:
            grace = config.idle_grace
        else:
            continue
        if now - ledger.last_busy[i] >= grace:
            stop_handle(sched, run, handle)
