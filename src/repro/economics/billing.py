"""Unified billing: one per-provider accounting source for credits.

The Scheduler used to price Cloud usage inline
(``credits_per_cpu_hour * busy_seconds / 3600``), which welded the
whole service to one exchange rate.  The :class:`BillingMeter` owns
that conversion: it reads the rate from the scenario's
:class:`~repro.economics.pricing.PriceBook` (per provider, per tier,
optionally time-varying), bills the
:class:`~repro.core.credit.CreditSystem`, and keeps the per-provider
ledger every consumer shares —

* the Scheduler's Algorithm 2 billing charges usage through
  :meth:`charge_many` — every tick, teardown and single-worker stop
  settles its workers' busy seconds as one batch;
* launch sizing and the :class:`~repro.core.scheduler.CloudArbiter`'s
  ``credit_budget`` read spendable credits through
  :meth:`remaining_for` (pool-aware, delegated to the credit system);
* reports read :attr:`spent_by_provider` / :attr:`cpu_seconds_by_provider`
  for the per-cloud cost split.

Drift discipline: with the default uniform book the charge arithmetic
is float-for-float identical to the inline formula it replaced
(``rate * busy_seconds / 3600.0`` with the same ``rate``), so default
scenarios stay byte-identical.  A batch bills exactly what one scalar
charge per delta would, in the same order (the sequential reference
is pinned in the test suite).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.economics.pricing import ONDEMAND, PriceBook

__all__ = ["BillingMeter"]


class BillingMeter:
    """Prices Cloud usage per provider and bills the credit system."""

    def __init__(self, credits, book: Optional[PriceBook] = None):
        #: the scenario's :class:`~repro.core.credit.CreditSystem`
        self.credits = credits
        #: the pricing source (uniform paper rate unless a scenario
        #: attaches its own)
        self.book = book if book is not None else PriceBook()
        #: credits actually billed, keyed by provider name
        self.spent_by_provider: Dict[str, float] = {}
        #: busy CPU·seconds charged, keyed by provider name
        self.cpu_seconds_by_provider: Dict[str, float] = {}

    # ------------------------------------------------------------ rates
    def rate_for(self, provider: str, now: float = 0.0,
                 tier: str = ONDEMAND) -> float:
        """Credits per CPU·hour this provider charges right now."""
        return self.book.rate(provider, now, tier)

    def affordable_cpu_hours(self, provider: str, budget: float,
                             now: float = 0.0,
                             tier: str = ONDEMAND) -> float:
        """CPU·hours a credit budget buys from one provider."""
        if budget <= 0:
            return 0.0
        return budget / self.rate_for(provider, now, tier)

    # ---------------------------------------------------------- billing
    def charge_many(self, bot_id: str, provider: str,
                    busy_deltas: Sequence[float], now: float = 0.0,
                    tier: str = ONDEMAND) -> int:
        """Bill one provider's workers their usage since the last
        charge, as one batch in order.

        ``busy_deltas`` must all be positive (the Scheduler charges only
        handles that computed since they were last billed).  Each delta
        is priced at the provider's rate at ``now`` (``rate *
        busy_seconds / 3600``) and billed through
        :meth:`CreditSystem.bill_many
        <repro.core.credit.CreditSystem.bill_many>`, which clamps every
        amount to the escrow left; the per-provider totals accumulate
        in delta order.

        Returns the index of the first delta whose charge fell short
        (``billed < asked - 1e-9``, the Scheduler's exhaustion test),
        or ``-1`` when every delta was covered.  Deltas after a
        shortfall are still billed (and clamped).
        """
        if not busy_deltas:
            return -1
        rate = self.rate_for(provider, now, tier)
        asked = [rate * b / 3600.0 for b in busy_deltas]
        billed_seq = self.credits.bill_many(bot_id, asked)
        fail = -1
        spent = self.spent_by_provider.get(provider, 0.0)
        cpu = self.cpu_seconds_by_provider.get(provider, 0.0)
        for i, billed in enumerate(billed_seq):
            if billed:
                spent = spent + billed
            cpu = cpu + busy_deltas[i]
            if fail < 0 and billed < asked[i] - 1e-9:
                fail = i
        if spent:
            self.spent_by_provider[provider] = spent
        self.cpu_seconds_by_provider[provider] = cpu
        return fail

    # ------------------------------------------------------- credit view
    def remaining_for(self, bot_id: str) -> float:
        """Spendable credits behind an order (pool-aware) — the budget
        launch sizing and arbitration read."""
        return self.credits.remaining_for(bot_id)

    def has_credits(self, bot_id: str) -> bool:
        return self.credits.has_credits(bot_id)

    # -------------------------------------------------------- reporting
    def spent_for(self, provider: str) -> float:
        return self.spent_by_provider.get(provider, 0.0)

    def total_spent(self) -> float:
        """Credits billed through this meter, all providers — additive
        by construction (the invariant the property tests pin)."""
        return sum(self.spent_by_provider.values())
