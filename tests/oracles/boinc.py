"""Naive Reschedule candidate scan (reference for the lazily
invalidated heap behind :meth:`repro.middleware.boinc.BoincServer.
fetch_for_cloud`)."""

from typing import Optional


def fetch_candidate_scan(server, node) -> Optional[object]:
    """The eligible incomplete workunit with the smallest
    ``(cloud_dups, first_assign_time | inf, gtid)`` key — the
    historical O(incomplete) argmin scan."""
    best = None
    best_key = None
    for cand in server._incomplete:
        if not server._eligible(cand, node):
            continue
        key = server._fetch_key(cand)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best
