"""Failure Trace Archive–style trace import/export.

The paper replays availability traces from the Failure Trace Archive
(Kondo et al., CCGrid 2010).  The archive's event representation boils
down to per-node availability intervals; this module reads and writes a
plain-text event format compatible with that idea, so users with access
to real FTA datasets (or their own monitoring data) can run every
experiment of this repository on *measured* traces instead of the
synthesized ones:

    # node_id  start_seconds  end_seconds  [power]
    0   0.0      3600.0   950
    0   7200.0  10800.0   950
    1   100.0    4000.0  1210

Lines starting with ``#`` are comments; intervals of one node must be
sorted and disjoint; the optional 4th column carries node power in
nops/s (defaulting to ``default_power``).

Round trip: :func:`save_trace` writes exactly what :func:`load_trace`
reads (``NodeColumns.from_nodes`` turns the loaded nodes back into
columns), so synthesized traces can also be exported for inspection
or reuse by external tools.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from typing import Dict, List, TextIO, Union

import numpy as np

from repro.infra.node import Node

__all__ = ["load_trace", "save_trace", "TraceFormatError"]


class TraceFormatError(ValueError):
    """Raised on malformed trace files."""


def _open(path_or_file: Union[str, TextIO], mode: str):
    if isinstance(path_or_file, (str, os.PathLike)):
        return open(path_or_file, mode), True
    return path_or_file, False


def load_trace(path_or_file: Union[str, TextIO],
               default_power: float = 1000.0,
               tag: str = "fta") -> List[Node]:
    """Parse an FTA-style interval file into :class:`Node` objects.

    Node ids are renumbered densely (0..n-1) in first-appearance order;
    the original ids are kept in each node's ``tag`` suffix only if
    they differ.  Raises :class:`TraceFormatError` on malformed rows,
    unsorted or overlapping intervals, or inconsistent power values for
    one node.
    """
    fh, owned = _open(path_or_file, "r")
    intervals: Dict[str, List[tuple]] = defaultdict(list)
    powers: Dict[str, float] = {}
    order: List[str] = []
    try:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (3, 4):
                raise TraceFormatError(
                    f"line {lineno}: expected 3 or 4 columns, got "
                    f"{len(parts)}")
            nid = parts[0]
            try:
                start, end = float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise TraceFormatError(
                    f"line {lineno}: bad interval bounds") from exc
            if not (math.isfinite(start) and math.isfinite(end)):
                raise TraceFormatError(
                    f"line {lineno}: interval bounds must be finite")
            if end <= start:
                raise TraceFormatError(
                    f"line {lineno}: empty/inverted interval "
                    f"[{start}, {end})")
            power = default_power
            if len(parts) == 4:
                try:
                    power = float(parts[3])
                except ValueError as exc:
                    raise TraceFormatError(
                        f"line {lineno}: bad power value") from exc
                if not 0 < power < math.inf:
                    raise TraceFormatError(
                        f"line {lineno}: power must be finite and "
                        f"positive")
            if nid in powers and powers[nid] != power:
                raise TraceFormatError(
                    f"line {lineno}: node {nid} changes power "
                    f"({powers[nid]} -> {power})")
            if nid not in powers:
                powers[nid] = power
                order.append(nid)
            intervals[nid].append((start, end))
    finally:
        if owned:
            fh.close()
    if not order:
        raise TraceFormatError("trace file contains no intervals")

    nodes: List[Node] = []
    for i, nid in enumerate(order):
        ivs = sorted(intervals[nid])
        starts = np.array([s for s, _ in ivs])
        ends = np.array([e for _, e in ivs])
        if np.any(starts[1:] < ends[:-1]):
            raise TraceFormatError(
                f"node {nid}: overlapping availability intervals")
        nodes.append(Node(i, powers[nid], starts, ends, tag=tag))
    return nodes


def save_trace(trace, path_or_file: Union[str, TextIO],
               header: str = "") -> None:
    """Write a realization in flat interval columns (a
    :class:`~repro.infra.intervals.FlatTrace` or a
    :class:`~repro.infra.columns.NodeColumns`; node ``i`` is written
    as id ``i``) to the FTA-style interval format (see module doc)."""
    fh, owned = _open(path_or_file, "w")
    try:
        fh.write("# node_id start_seconds end_seconds power\n")
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        offsets = trace.offsets.tolist()
        starts, ends = trace.starts.tolist(), trace.ends.tolist()
        for i, power in enumerate(trace.power.tolist()):
            # repr gives the shortest exact decimal: load() replays the
            # simulation bit-for-bit identically.
            for k in range(offsets[i], offsets[i + 1]):
                fh.write(f"{i} {starts[k]!r} {ends[k]!r} {power!r}\n")
    finally:
        if owned:
            fh.close()
