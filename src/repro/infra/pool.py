"""Lazy node pool: serves available idle workers to the middleware.

The paper's ``seti`` trace averages 24 391 simultaneously available
nodes while a BoT occupies at most a few thousand workers, so an event
per node transition would dominate the simulation for nothing.  The
pool instead activates nodes *lazily*:

* ``_ready_*`` — unordered lists of idle nodes believed to be inside an
  availability interval (entries may be stale; they are validated and
  recycled on pop);
* a *future* store of idle nodes currently unavailable, keyed by next
  interval start (columnar epoch arrays + an overflow heap, below).

Only :meth:`acquire` (the middleware asking for a worker) pays the cost
of promoting nodes between the two structures; nodes that are never
needed never generate events.  A node executing a task is owned by the
middleware (which schedules its completion / preemption / resume
events) and re-enters the pool through :meth:`release` /
:meth:`preempted`.

Members are plain ``int`` node ids in every structure, so no Python
object exists for the 10^5-host bulk of a columnar pool.  ``_nodes``
maps an id to the object handed to the middleware: every node passed
to :meth:`add` (cloud workers, which join the idle pool like any
volunteer, paper §3.1) and one :class:`~repro.infra.columns.ColumnNode`
flyweight per columnar id, created on its first acquisition.  Interval
lookups read ``_nodes`` and otherwise go straight to the columns.  The
t=0 filing of a columnar realization is one pure vectorized function
of the template, :meth:`NodePool.file`; it replays the historical
node-id-order ``add()`` loop exactly, so draw-list positions — and
therefore the RNG draw sequence — are unchanged.

Columnar promotion epochs: the t=0 filing used to heapify every
not-yet-available node into a per-node future heap and every ready
interval end into a stale heap — ~10^5 tuple allocations whose pops
dominated the dispatch profile.  The filing now lands in flat sorted
NumPy arrays instead (the *epoch*): ``_fut_start``/``_fut_id``/
``_fut_end`` sorted by ``(start, id)`` with a cursor ``_fut_pos``, and
``_stale_end``/``_stale_id`` sorted by ``(end, id)`` with
``_stale_pos``.  Promotion and stale sweeping over the epoch are one
``searchsorted`` cut merged against the overflow heaps.  Nodes refiled
*after* the epoch (release/preempt churn) go to small overflow heaps
(``_future``, ``_stale``) exactly as before.  **Draw-order
invariant:** the historical heaps popped in ascending ``(start, id)``
/ ``(end, id)`` key order — a property of the key multiset, not the
heap layout — and the epoch arrays are sorted by those same keys, so
merging the array cut against the due heap entries on that key
(:meth:`_promote`, :meth:`_sweep_stale`) re-files nodes in the
byte-identical order.  For the same reason a
bulk batch of pushes may be replaced by ``extend + heapify``: heapq's
pop sequence depends only on the key multiset (duplicate keys here are
fully identical tuples, hence interchangeable).

Ready bookkeeping: alongside the draw lists the pool keeps
``_ready_end_of`` (node id → interval end for every node filed
ready).  The probes — :meth:`has_ready`, :meth:`idle_count`,
:meth:`next_future_start` — pop the stale store once per *expired*
entry (amortized O(log n)), refile those nodes to their next interval,
and read the answer off the index.  :meth:`acquire` deliberately does
**not** sweep: its draw loop still validates lazily so the RNG draw
sequence (and thus every fixed-seed golden) is bit-identical to the
historical scan — a sweep would refile entries the historical code
left in place and shift the draw weights.  Entries a sweep refiled
remain in the draw lists as *ghosts* (their id has left the index, or
— after a sweep-refile within the same probe — a fresher copy of the
same id was appended) and are skipped at draw time exactly like the
retired nodes the historical loop skipped; a sweep compacts them away
when they outnumber live entries, keeping exactly one copy per indexed
id (a sweep-refiled node leaves its old list copy *and* appends a new
one, so compaction must deduplicate or the ghost count never drops
and the compaction scan re-triggers forever).

Bulk acquisition: :meth:`acquire_many` is provably ``k`` sequential
:meth:`acquire` calls — one shared :meth:`_promote` (the follow-up
promotes are no-ops: nothing with ``start <= t`` remains and the draws
add nothing) followed by ``k`` runs of the identical scalar draw loop
over ``self._rng``.  Only the bookkeeping around the draws is batched;
the weighted cloud-vs-regular pick, the ghost skips and the lazy
refiles consume the historical RNG sequence draw for draw.  Callers
whose interleaving cannot be reduced to back-to-back acquires (any
path that releases or files nodes between draws) must keep calling
scalar :meth:`acquire`.

Selection model: desktop-grid work distribution is *pull-based* — the
server hands a task to whichever idle worker polls next.  Among
homogeneous volunteers that is equivalent to a uniformly random pick.
Dedicated cloud workers, however, poll far more aggressively than
desktop clients (they exist only to serve this server and pay no
user-activity backoff), so when both kinds sit idle the next poll is
more likely to come from the cloud side.  ``cloud_poll_weight`` models
that: a single idle cloud worker is ``w`` times more likely to get the
next task than a single idle regular node.  This is what gives the
paper's *Flat* strategy its modest-but-nonzero tail pickup (§4.2.1).
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, \
    Tuple, Union

import numpy as np

from repro.infra.columns import ColumnNode, NodeColumns
from repro.infra.node import Node

__all__ = ["NodePool", "Filing"]

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)


class Filing(NamedTuple):
    """The t=0 filing of one columns template (:meth:`NodePool.file`),
    shared by every pool applied from it: pools copy ``members`` and
    ``ready_end_of`` and only move their own cursors over the epochs."""

    members: frozenset
    #: ready id -> interval end, in ascending id (= draw-list) order
    ready_end_of: Mapping[int, float]
    stale_end: np.ndarray
    stale_id: np.ndarray
    fut_start: np.ndarray
    fut_id: np.ndarray
    fut_end: np.ndarray


class NodePool:
    """Tracks idle nodes and serves poll-weighted random ones on demand."""

    def __init__(self,
                 nodes: Union[Iterable[Node], NodeColumns] = (),
                 rng: Optional[np.random.Generator] = None,
                 cloud_poll_weight: float = 10.0):
        if cloud_poll_weight <= 0:
            raise ValueError("cloud_poll_weight must be positive")
        self._rng = rng or np.random.default_rng(0)
        self.cloud_poll_weight = float(cloud_poll_weight)
        self._ready_reg: List[int] = []
        self._ready_cloud: List[int] = []
        #: node id -> interval_end for every node filed ready
        self._ready_end_of: Dict[int, float] = {}
        # -- future store: epoch arrays (t=0 filing, sorted by
        # (start, id)) behind a cursor, + overflow heap of
        # (next_start, id, interval_end) for later refiles
        self._fut_start = _EMPTY_F
        self._fut_id = _EMPTY_I
        self._fut_end = _EMPTY_F
        self._fut_pos = 0
        self._future: List[Tuple[float, int, float]] = []
        # -- stale store: epoch arrays (sorted by (end, id)) behind a
        # cursor, + overflow heap of (interval_end, id)
        self._stale_end = _EMPTY_F
        self._stale_id = _EMPTY_I
        self._stale_pos = 0
        self._stale: List[Tuple[float, int]] = []
        self._members: set[int] = set()
        self.size = 0
        #: backing columnar realization (None for object-only pools)
        self._columns: Optional[NodeColumns] = None
        #: id -> object handed out: every added node, plus one
        #: ColumnNode flyweight per columnar id from its first acquire
        self._nodes: Dict[int, object] = {}
        if isinstance(nodes, NodeColumns):
            self._apply(nodes, self.file(nodes))
        else:
            for n in nodes:
                self.add(n, at=0.0)

    # ------------------------------------------------------------------
    @staticmethod
    def file(cols: NodeColumns) -> Filing:
        """The vectorized t=0 filing of a columnar realization, exactly
        ``add(node, at=0.0)`` over ids in order: each node's first
        interval ending after 0 (nodes without one are dropped) files
        ready in ascending id if it contains 0, its end joining the
        stale epoch sorted by ``(end, id)``, else into the future epoch
        sorted by ``(start, id)``.  Reads no cursor, so the result
        depends on the template only."""
        ids, s0, e0 = cols.first_interval(0.0)
        ready = s0 <= 0.0
        ids_r, e_r = ids[ready], e0[ready]
        stale = np.lexsort((ids_r, e_r))
        away = ~ready
        ids_a, s_a, e_a = ids[away], s0[away], e0[away]
        fut = np.lexsort((ids_a, s_a))
        epochs = (e_r[stale], ids_r[stale], s_a[fut], ids_a[fut], e_a[fut])
        for arr in epochs:
            arr.setflags(write=False)
        return Filing(frozenset(ids.tolist()),
                      MappingProxyType(dict(zip(ids_r.tolist(),
                                                e_r.tolist()))),
                      *epochs)

    @classmethod
    def from_filing(cls, cols: NodeColumns, filing: Filing,
                    rng: Optional[np.random.Generator] = None,
                    cloud_poll_weight: float = 10.0) -> "NodePool":
        """A pool over ``cols`` — a fresh cursor copy of the template
        ``filing`` was computed from — identical to ``NodePool(cols,
        ...)`` without re-deriving the filing."""
        pool = cls(rng=rng, cloud_poll_weight=cloud_poll_weight)
        pool._apply(cols, filing)
        return pool

    def _apply(self, cols: NodeColumns, filing: Filing) -> None:
        self._columns = cols
        self._members = set(filing.members)
        self.size = len(self._members)
        self._ready_end_of = filing.ready_end_of.copy()
        self._ready_reg = list(filing.ready_end_of)
        self._stale_end = filing.stale_end
        self._stale_id = filing.stale_id
        self._fut_start = filing.fut_start
        self._fut_id = filing.fut_id
        self._fut_end = filing.fut_end

    # ------------------------------------------------------------------
    def add(self, node: Node, at: float) -> None:
        """Register a node; it becomes acquirable from time ``at``."""
        nid = node.node_id
        if nid in self._members:
            raise ValueError(f"node {nid} already in pool")
        self._members.add(nid)
        self._nodes[nid] = node
        self.size += 1
        self._enqueue(nid, at)

    def remove(self, node: Node) -> None:
        """Unregister a node (stale queue entries are skipped lazily)."""
        nid = node.node_id
        if nid not in self._members:
            return
        self._members.discard(nid)
        self._ready_end_of.pop(nid, None)
        self._nodes.pop(nid, None)
        self.size -= 1

    def __contains__(self, node: Node) -> bool:
        return node.node_id in self._members

    def _enqueue(self, nid: int, at: float) -> None:
        """File an idle member under ready or future."""
        node = self._nodes.get(nid)
        nxt = (self._columns.next_available(nid, at) if node is None
               else node.next_available(at))
        if nxt is None:
            # Never comes back within the trace horizon: drop silently.
            self._members.discard(nid)
            self.size -= 1
            return
        start, end = nxt
        if start <= at:
            self._file_ready(nid, end)
        else:
            heapq.heappush(self._future, (start, nid, end))

    def _file_ready(self, nid: int, end: float) -> None:
        self._ready_end_of[nid] = end
        heapq.heappush(self._stale, (end, nid))
        node = self._nodes.get(nid)
        cloud = node is not None and node.cloud
        (self._ready_cloud if cloud else self._ready_reg).append(nid)

    # ------------------------------------------------------------------
    # promotion (future -> ready)
    # ------------------------------------------------------------------
    def _promote(self, t: float) -> None:
        """Move nodes whose next interval has started into ready.

        The due slice of the future epoch is one ``searchsorted`` cut,
        merged against the due overflow-heap entries on ``(start, id)``
        — the order the historical all-heap store popped the same keys
        in (epoch first on equal keys).  Epoch entries are always
        columnar ids, never cloud, so their filings are inlined with
        the stale pushes batched: the stale heap's pop sequence over a
        key multiset does not depend on its layout.
        """
        fs = self._fut_start
        pos = self._fut_pos
        heap = self._future
        epoch_due = pos < fs.shape[0] and fs[pos] <= t
        if not epoch_due and not (heap and heap[0][0] <= t):
            return
        hi = int(np.searchsorted(fs, t, side="right")) if epoch_due else pos
        starts = fs[pos:hi].tolist()
        ids = self._fut_id[pos:hi].tolist()
        ends = self._fut_end[pos:hi].tolist()
        self._fut_pos = hi
        members = self._members
        index = self._ready_end_of
        reg = self._ready_reg
        pairs = []
        i, n = 0, len(starts)
        while True:
            head = heap[0] if heap and heap[0][0] <= t else None
            # epoch entries ordered before the due heap head (all of
            # the remaining ones once the heap has nothing due)
            while i < n and (head is None
                             or (starts[i], ids[i]) <= (head[0], head[1])):
                nid = ids[i]
                if nid in members:
                    end = ends[i]
                    index[nid] = end
                    reg.append(nid)
                    pairs.append((end, nid))
                i += 1
            if head is None:
                break
            heapq.heappop(heap)
            _, nid, end = head
            if nid in members:
                self._file_ready(nid, end)
        stale = self._stale
        if len(pairs) > 8 and 4 * len(pairs) > len(stale):
            stale.extend(pairs)
            heapq.heapify(stale)
        else:
            for pair in pairs:
                heapq.heappush(stale, pair)

    # ------------------------------------------------------------------
    # stale sweep (expired ready entries -> refile)
    # ------------------------------------------------------------------
    def _sweep_stale(self, t: float) -> None:
        """Refile every ready entry whose interval has already ended.

        Only the probes call this — :meth:`acquire` keeps the
        historical lazy validation so its RNG draw sequence is
        unchanged.  Mirrors :meth:`_promote`: one cut of the stale
        epoch merged against the due overflow-heap entries on
        ``(end, id)``.  A key duplicated across epoch and heap (a node
        released back within its filing interval) processes
        epoch-first; the loser fails the index-end validation exactly
        like the historical second heap copy did.  Refiles performed
        here file intervals with ``end > t`` only, so they never make
        more entries due.  Refiled nodes leave ghosts in the draw
        lists; compact those away once they dominate (never triggers
        in runs that only acquire, so fixed-seed traces are
        unaffected).
        """
        se = self._stale_end
        pos = self._stale_pos
        heap = self._stale
        index = self._ready_end_of
        epoch_due = pos < se.shape[0] and se[pos] <= t
        if epoch_due or (heap and heap[0][0] <= t):
            hi = int(np.searchsorted(se, t, side="right")) if epoch_due \
                else pos
            ends = se[pos:hi].tolist()
            nids = self._stale_id[pos:hi].tolist()
            self._stale_pos = hi
            i, n = 0, len(ends)
            while True:
                if heap and heap[0][0] <= t and (
                        i == n or heap[0] < (ends[i], nids[i])):
                    end, nid = heapq.heappop(heap)
                elif i < n:
                    end, nid = ends[i], nids[i]
                    i += 1
                else:
                    break
                if index.get(nid) != end:
                    continue
                del index[nid]
                self._enqueue(nid, t)
        ghosts = (len(self._ready_reg) + len(self._ready_cloud)
                  - len(index))
        if ghosts > 8 and ghosts > len(index):
            self._compact_ghosts()

    def _compact_ghosts(self) -> None:
        """Drop draw-list entries whose id left the ready index, and
        all-but-one copies of ids that were sweep-refiled back in (the
        refile appends a fresh copy without removing the old one, so
        an id can hold several list slots while the index holds one —
        keeping only the first copy restores list length == index
        size and stops the compaction trigger from re-firing)."""
        index = self._ready_end_of
        for attr in ("_ready_reg", "_ready_cloud"):
            lst = getattr(self, attr)
            if not lst:
                continue
            seen: set[int] = set()
            out = []
            for nid in lst:
                if nid in index and nid not in seen:
                    seen.add(nid)
                    out.append(nid)
            setattr(self, attr, out)

    # ------------------------------------------------------------------
    def _draw(self, t: float) -> Optional[Tuple[Node, float]]:
        """One weighted draw over the (already promoted) ready lists —
        the historical :meth:`acquire` body, draw for draw.

        The swap-pop is inlined (it used to live in a ``_pop_from``
        helper) with hoisted locals: the draw loop runs thousands of
        times per arrival storm and the per-call overhead dominated
        its profile.  ``_ready_reg``/``_ready_cloud`` are rebound only
        by :meth:`_compact_ghosts` (sweeps, never draws), so holding
        the list objects across the loop is safe; the stale refiles a
        draw performs always file intervals starting after ``t``, so
        they never grow the lists mid-draw either.
        """
        rng = self._rng
        index = self._ready_end_of
        reg = self._ready_reg
        cloud = self._ready_cloud
        weight = self.cloud_poll_weight
        cols = self._columns
        nodes = self._nodes
        while reg or cloud:
            w_cloud = weight * len(cloud)
            w_total = w_cloud + len(reg)
            pick_cloud = (w_cloud > 0
                          and rng.random() * w_total < w_cloud)
            ready = cloud if pick_cloud else reg
            while ready:
                i = int(rng.integers(len(ready)))
                ready[i], ready[-1] = ready[-1], ready[i]
                nid = ready.pop()
                end = index.get(nid)
                if end is None:
                    continue  # retired, or a ghost left by a sweep
                node = nodes.get(nid)
                if end <= t:
                    # Filed interval lapsed; only a full lookup can
                    # tell a node inside a *later* interval (hand it
                    # out with that end) from one in a gap (refile).
                    # A filed end still ahead needs no lookup: the
                    # node was filed inside an interval no later than
                    # ``t`` (time only moves forward after filing), so
                    # ``t`` sits inside that same interval.
                    iv = (cols.interval_at(nid, t) if node is None
                          else node.interval_at(t))
                    if iv is None:
                        del index[nid]
                        self._enqueue(nid, t)
                        continue
                    end = iv[1]
                del index[nid]
                if node is None:
                    node = nodes[nid] = ColumnNode(cols, nid)
                return node, end
            # Chosen side was entirely stale; loop re-weights what's left.
        return None

    def ready_hint(self, t: float) -> int:
        """Cheap estimate of how many draws could succeed at ``t``,
        touching no state.

        Counts the ready index (which may still hold entries whose
        interval has lapsed but which no sweep refiled yet) plus the
        due slice of the future epoch (which may hold removed members)
        plus one for a due overflow-heap head.  Purely a routing hint
        for the dispatch plane: both dispatch strategies are
        transcript-identical, so a wrong estimate can never change
        results — only which (equivalent) loop runs.
        """
        hint = len(self._ready_end_of)
        fs = self._fut_start
        pos = self._fut_pos
        if pos < fs.shape[0] and fs[pos] <= t:
            hint += int(np.searchsorted(fs, t, side="right")) - pos
        if self._future and self._future[0][0] <= t:
            hint += 1
        return hint

    def acquire(self, t: float) -> Optional[Tuple[Node, float]]:
        """Pop an idle node available at time ``t`` (poll-weighted).

        Returns ``(node, interval_end)`` or ``None``.  The caller owns
        the node until :meth:`release` (still alive) or
        :meth:`preempted` (availability interval ended under it).
        """
        self._promote(t)
        return self._draw(t)

    def acquire_many(self, t: float, k: int
                     ) -> List[Tuple[Node, float]]:
        """Up to ``k`` acquisitions at ``t``, stopping at the first dry
        draw — RNG-identical to ``k`` sequential :meth:`acquire` calls.

        Exactness: each scalar acquire is promote + draw.  After the
        first promote at ``t`` nothing with ``start <= t`` remains in
        the future store, and a draw never files nodes with
        ``start <= t`` (its lazy refiles go to intervals starting
        later), so the follow-up promotes are no-ops — eliding them
        changes no state and consumes no RNG.  The draws themselves
        run the unmodified scalar loop.  A dry draw consumes the same
        ghost-skip RNG sequence as a scalar acquire returning None,
        after which the scalar caller (the dispatch loop) stopped
        acquiring — so stopping here matches it draw for draw.  Any
        caller that mutates the pool between draws (release, add)
        must use scalar :meth:`acquire` instead.
        """
        if k <= 0:
            return []  # zero acquires touch nothing, not even a promote
        self._promote(t)
        out: List[Tuple[Node, float]] = []
        draw = self._draw
        for _ in range(k):
            got = draw(t)
            if got is None:
                break
            out.append(got)
        return out

    def release(self, node: Node, t: float) -> None:
        """Return a node that is still alive at ``t`` (task finished)."""
        if node.node_id not in self._members:
            return  # retired while busy (e.g. a stopped cloud worker)
        self._enqueue(node.node_id, t)

    def preempted(self, node: Node, t: float) -> None:
        """Return a node whose availability ended at ``t``; it re-enters
        through its next availability interval."""
        if node.node_id not in self._members:
            return
        self._enqueue(node.node_id, t)

    # ------------------------------------------------------------------
    def has_ready(self, t: float) -> bool:
        """Whether at least one idle node is available right now.

        Stale entries are refiled (consistently with
        :meth:`next_future_start`) rather than rescanned on every
        poll, so the check is O(expired) amortized, not O(pool).
        """
        self._promote(t)
        self._sweep_stale(t)
        return bool(self._ready_end_of)

    def next_future_start(self, t: float) -> Optional[float]:
        """Earliest future time an *idle, currently away* node returns.

        Used to schedule a dispatch wake-up when pending work found no
        available node.  Stale ready entries are refiled first so their
        next intervals are taken into account.
        """
        self._promote(t)
        self._sweep_stale(t)
        if self._ready_end_of:
            return t  # available now — caller can acquire
        members = self._members
        fid = self._fut_id
        pos = self._fut_pos
        n = fid.shape[0]
        while pos < n and int(fid[pos]) not in members:
            pos += 1  # retired epoch heads, dropped like heap pops below
        self._fut_pos = pos
        heap = self._future
        while heap and heap[0][1] not in members:
            heapq.heappop(heap)
        best: Optional[float] = None
        if pos < n:
            best = float(self._fut_start[pos])
        if heap and (best is None or heap[0][0] < best):
            best = heap[0][0]
        return best

    def idle_count(self, t: float) -> int:
        """Idle nodes available right now (index size after a sweep)."""
        self._promote(t)
        self._sweep_stale(t)
        return len(self._ready_end_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        future = (self._fut_start.shape[0] - self._fut_pos
                  + len(self._future))
        return (f"<NodePool size={self.size} ready={len(self._ready_end_of)} "
                f"future~{future}>")
