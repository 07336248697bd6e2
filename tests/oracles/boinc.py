"""Naive Reschedule candidate scan (reference for the lazily
invalidated heap behind :meth:`repro.middleware.base.DGServer.
fetch_for_cloud`, shared by both middleware)."""

from typing import Optional


def fetch_candidate_scan(server, node) -> Optional[object]:
    """The incomplete task the server's ``_fetch_eligible`` hook
    accepts for ``node`` with the smallest ``(cloud_dups,
    first_assign_time | inf, gtid)`` key — the historical
    O(incomplete) argmin scan."""
    best = None
    best_key = None
    for cand in server._incomplete:
        if cand.done or not server._fetch_eligible(cand, node):
            continue
        key = server._fetch_key(cand)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best
