"""Windowed state extraction — the MDP observation of §III-B.

A state contains information about *running* tasks, *ready* tasks and their
descendants up to depth ``w`` (Fig. 1), plus the state of the computing
resources.  :class:`StateBuilder` turns the live simulator into an
:class:`Observation`:

* the window sub-DAG's node features — the paper's raw features
  (:func:`repro.graphs.features.node_features`) *enriched* with normalised
  resource/duration context (expected duration of each task on each resource
  type, and the expected remaining time of running tasks), which is how the
  "sub-DAG enriched with the computing resource state information" of Fig. 2
  enters the GCN;
* the symmetric-normalised adjacency of the window (for GCN propagation);
* the positions of the ready tasks inside the window (the action set);
* a descriptor of the current processor and of the global resource state
  (used for the ∅-action score).

All quantities are normalised so that the representation is size-invariant,
enabling the transfer experiments of §V-F.

:func:`build_observations` builds the members of a vectorised environment
together: one vectorised pass over the shared simulator kernel yields an
:class:`ObservationBatch` (features, block-diagonal normalised adjacency,
action sets and descriptors of all members), and each member's
:class:`BatchObservation` is a view into it, bitwise equal to the
per-member :meth:`StateBuilder.build` result (DESIGN.md §11.4).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

import numpy as np
from scipy import sparse as sp

from repro import obs
from repro.graphs.durations import DurationTable
from repro.graphs.features import (
    NUM_STATIC_FEATURES,
    descendant_type_fractions,
    node_features,
)
from repro.graphs.taskgraph import TaskGraph
from repro.nn.layers import gcn_normalize_adjacency
from repro.platforms.resources import NUM_RESOURCE_TYPES
from repro.sim.engine import Simulation
from repro.sim.kernel import SimKernel

#: extra per-node dynamic columns appended to the paper's raw features:
#: expected duration on each resource type (normalised), remaining time of
#: running tasks, expected duration on the *current* processor, and the
#: current processor's type broadcast to every node.  The last two are what
#: lets the per-task actor scores depend on which processor is asking —
#: without them the policy could not express "this kernel belongs on a GPU,
#: decline it on a CPU" (Fig. 2: the sub-DAG is "enriched with the computing
#: resource state information" before entering the GCN).
NUM_DYNAMIC_FEATURES = NUM_RESOURCE_TYPES + 1 + 1 + NUM_RESOURCE_TYPES

#: current-processor descriptor width:
#: one-hot(type) + [idle fraction, ready fraction, mean remaining (norm)]
PROC_FEATURE_DIM = NUM_RESOURCE_TYPES + 3


def observation_feature_dim(num_types: int) -> int:
    """Node-feature width of observations for graphs with ``num_types`` kernels."""
    return NUM_STATIC_FEATURES + 2 * num_types + NUM_DYNAMIC_FEATURES


@dataclass
class Observation:
    """One decision point of the scheduling MDP."""

    features: np.ndarray
    """(m, F) node features of the window sub-DAG"""
    norm_adj: object
    """(m, m) GCN-normalised adjacency of the window — a dense ndarray, or a
    ``scipy.sparse.csr_matrix`` when the builder runs in sparse mode"""
    ready_positions: np.ndarray
    """row indices (into ``features``) of the ready tasks, = the action set"""
    ready_tasks: np.ndarray
    """original task ids aligned with ``ready_positions``"""
    proc_features: np.ndarray
    """(PROC_FEATURE_DIM,) descriptor of the current processor + global state"""
    current_proc: int
    """processor awaiting a decision"""
    allow_pass: bool
    """whether the ∅ action is legal (False would deadlock the system)"""
    window_fingerprint: Optional[bytes] = None
    """raw bytes of the sorted window node ids — identifies the window node
    set (shared with the builder's adjacency memo key)"""
    embed_key: Optional[tuple] = None
    """within-instant memo key set by the environment: observations with the
    same key are guaranteed to produce the same GCN embedding, letting a
    compiled agent reuse it (see :mod:`repro.nn.compile`); None disables"""
    extra_node_features: int = 0
    """count of builder-appended trailing feature columns beyond the base
    layout (the streaming environment appends job-id/arrival-age columns);
    consumers that index columns from the *end* of the base layout must
    subtract it (see ``GreedyScheduler.decide_observation``)"""

    @property
    def num_actions(self) -> int:
        """Ready-task choices plus the ∅ action when legal."""
        return len(self.ready_positions) + (1 if self.allow_pass else 0)

    @property
    def num_nodes(self) -> int:
        """Window size (running + ready + ≤w-depth descendants)."""
        return self.features.shape[0]


def action_for_task(obs: Observation, task: Optional[int]) -> int:
    """Map a scheduler-style choice (task id or ``None`` = idle) to an action.

    The inverse of the observation's action indexing: ``None`` maps to the ∅
    action (requires ``obs.allow_pass``), a task id maps to its position in
    ``obs.ready_tasks``.  Raises ``ValueError`` for a task outside the ready
    set and for ∅ where passing is illegal — surfacing scheduler bugs at the
    decision instead of deadlocking the episode later.
    """
    if task is None:
        if not obs.allow_pass:
            raise ValueError(
                "scheduler chose to idle but the ∅ action is illegal here "
                "(nothing running and no other processor left to ask)"
            )
        return int(len(obs.ready_tasks))
    matches = np.flatnonzero(np.asarray(obs.ready_tasks) == int(task))
    if matches.size == 0:
        raise ValueError(
            f"scheduler chose task {task} which is not ready "
            f"(ready set: {np.asarray(obs.ready_tasks).tolist()})"
        )
    return int(matches[0])


class StateBuilder:
    """Builds :class:`Observation` objects from a live :class:`Simulation`.

    Per-graph constants (descendant-type fractions, the dense adjacency) are
    cached on first use: they dominate state-extraction cost and never change
    within an episode.
    """

    #: bound of the per-graph window-adjacency memo; class-level so tests can
    #: shrink it to exercise eviction
    _ADJ_CACHE_MAX = 4096

    #: trailing feature columns this builder appends beyond the base layout;
    #: agents size their input dimension as
    #: ``observation_feature_dim(num_types) + extra_node_features``
    extra_node_features = 0

    def __init__(
        self, durations: DurationTable, window: int, sparse: bool = False
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.window = window
        self.durations = durations
        #: use a CSR window adjacency instead of dense — O(edges) instead of
        #: O(m²) per decision; pays off once windows reach hundreds of tasks
        self.sparse = sparse
        # normalisation scale for all duration-valued features
        self._scale = float(durations.table.mean())

    # Per-graph constants are cached *on the graph object*, so their
    # lifetime is exactly the graph's.  A builder-level dict keyed by
    # ``id(graph)`` would grow without bound under per-episode graph
    # factories and could return stale entries when a collected graph's id
    # is reused by a new instance.

    # Memoised arrays are frozen (``setflags(write=False)``) before caching:
    # they are shared across every observation of an episode, so an aliasing
    # write from a caller would silently corrupt all later rollouts — frozen,
    # the write raises at the faulty line instead.

    @staticmethod
    def _fractions(graph: TaskGraph) -> np.ndarray:
        cached = graph.__dict__.get("_cached_type_fractions")
        if cached is None:
            cached = descendant_type_fractions(graph)
            cached.setflags(write=False)
            graph.__dict__["_cached_type_fractions"] = cached
        return cached

    @staticmethod
    def _adjacency(graph: TaskGraph) -> np.ndarray:
        cached = graph.__dict__.get("_cached_dense_adjacency")
        if cached is None:
            cached = graph.adjacency_matrix()
            cached.setflags(write=False)
            graph.__dict__["_cached_dense_adjacency"] = cached
        return cached

    @staticmethod
    def _static_features(graph: TaskGraph, fractions: np.ndarray) -> np.ndarray:
        """Raw feature matrix with the ready/running columns left at zero.

        Degrees, type one-hots and descendant fractions never change within
        an episode; per decision only columns 2–3 are dynamic, so the window
        rows can be gathered from this constant and patched in place.
        """
        cached = graph.__dict__.get("_cached_static_features")
        if cached is None:
            cached = node_features(graph, fractions=fractions)
            cached.setflags(write=False)
            graph.__dict__["_cached_static_features"] = cached
        return cached

    #: graphs above this size skip the dense reachability cache (O(n²) bool
    #: memory, O(n³·w) one-off construction) and fall back to per-decision BFS
    _REACH_CACHE_MAX_NODES = 2048

    def _reach_mask(self, graph: TaskGraph) -> Optional[np.ndarray]:
        """Boolean (n, n) matrix: ``reach[u, v]`` ⇔ v within ``window`` hops of u.

        Graph-static, so the per-decision window computation reduces to one
        row gather + ``any`` instead of a fresh BFS.  ``None`` for graphs too
        large to cache densely (the BFS path handles those).
        """
        if graph.num_tasks > self._REACH_CACHE_MAX_NODES:
            return None
        cache: Dict[int, np.ndarray] = graph.__dict__.setdefault(
            "_cached_reach_masks", {}
        )
        reach = cache.get(self.window)
        if reach is None:
            adj = self._adjacency(graph)  # float 0/1
            n = graph.num_tasks
            reach = np.zeros((n, n), dtype=bool)
            frontier = adj
            for _ in range(self.window):
                reach |= frontier > 0.0
                frontier = frontier @ adj  # path counts; > 0 ⇔ reachable
            reach.setflags(write=False)
            cache[self.window] = reach
        return reach

    def _expected_norm(self, graph: TaskGraph) -> np.ndarray:
        """Per-task expected durations over resource types, pre-normalised."""
        cached = graph.__dict__.get("_cached_expected_norm")
        if cached is None or cached[0] is not self.durations:
            expected = self.durations.expected_vector(graph.task_types) / self._scale
            expected.setflags(write=False)
            cached = (self.durations, expected)
            graph.__dict__["_cached_expected_norm"] = cached
        return cached[1]

    def _feature_template(self, graph: TaskGraph) -> tuple:
        """(n, F) feature matrix with every graph-static column filled in.

        Layout matches :meth:`build`'s observation rows:
        ``[raw | exp per type | remaining | exp on current | current one-hot]``.
        Only the ready/running flags (raw columns 2–3), the remaining column
        and the current-processor block change per decision, so an
        observation is one row gather plus a handful of column patches
        instead of a five-part hstack of freshly allocated arrays.
        """
        cached = graph.__dict__.get("_cached_feature_template")
        if cached is None or cached[0] is not self.durations:
            raw = self._static_features(graph, self._fractions(graph))
            exp = self._expected_norm(graph)
            template = np.zeros(
                (graph.num_tasks, raw.shape[1] + NUM_DYNAMIC_FEATURES),
                dtype=np.float64,
            )
            template[:, : raw.shape[1]] = raw
            template[:, raw.shape[1]: raw.shape[1] + NUM_RESOURCE_TYPES] = exp
            template.setflags(write=False)
            cached = (self.durations, template, raw.shape[1])
            graph.__dict__["_cached_feature_template"] = cached
        return cached[1], cached[2]

    @staticmethod
    def _remap_scratch(graph: TaskGraph) -> np.ndarray:
        """Reusable task-id → window-position vector (-1 outside the window).

        Callers fill ``remap[nodes]`` and must reset those entries to -1
        before returning, so the scratch stays all -1 between decisions —
        O(m) bookkeeping instead of an O(n) allocation per decision.
        """
        cached = graph.__dict__.get("_cached_window_remap")
        if cached is None:
            cached = np.full(graph.num_tasks, -1, dtype=np.int64)
            graph.__dict__["_cached_window_remap"] = cached
        return cached

    @staticmethod
    def _sym_pairs(graph: TaskGraph) -> tuple:
        """``(u, v)`` arrays of the symmetrised adjacency plus self-loops —
        the nonzero pattern of ``Ã`` in :func:`gcn_normalize_adjacency` —
        sorted by ``(u, v)``."""
        cached = graph.__dict__.get("_cached_sym_pairs")
        if cached is None:
            n = graph.num_tasks
            e = graph.edges
            loops = np.arange(n, dtype=np.int64)
            keys = np.unique(
                np.concatenate((e[:, 0], e[:, 1], loops)) * n
                + np.concatenate((e[:, 1], e[:, 0], loops))
            )
            cached = (keys // n, keys % n)
            for arr in cached:
                arr.setflags(write=False)
            graph.__dict__["_cached_sym_pairs"] = cached
        return cached

    def window_nodes(self, sim: Simulation) -> np.ndarray:
        """Sorted task ids inside the observation window."""
        src_mask = sim.ready | sim.running
        sources = np.flatnonzero(src_mask)
        if sources.size == 0:
            raise RuntimeError("no ready or running task — episode is over")
        if self.window > 0:
            reach = self._reach_mask(sim.graph)
            if reach is not None:
                # (reachable ∧ ¬finished) ∨ sources, as one mask: flatnonzero
                # of a boolean union is already sorted and unique, so the
                # union1d sort of the BFS path is unnecessary here.
                mask = reach[sources].any(axis=0)
                mask &= ~sim.finished
                mask |= src_mask
                nodes = np.flatnonzero(mask)
            else:
                desc = sim.graph.descendants_within(sources, self.window)
                # descendants that already finished cannot appear (they would
                # be predecessors); keep unfinished ones only for safety.
                desc = desc[~sim.finished[desc]]
                nodes = np.union1d(sources, desc)
        else:
            nodes = sources
        return nodes

    def build(
        self,
        sim: Simulation,
        current_proc: int,
        allow_pass: Optional[bool] = None,
    ) -> Observation:
        """Extract the observation for ``current_proc`` at the current instant.

        ``allow_pass`` overrides the default ∅-action legality (the
        environment masks ∅ only when declining would deadlock: nothing is
        running *and* no other idle processor remains to be offered).
        """
        graph = sim.graph
        nodes = self.window_nodes(sim)

        # gather the graph-static rows of the full template, patch the
        # per-decision columns in place
        template, raw_width = self._feature_template(graph)
        features = template[nodes]
        features[:, 2] = sim.ready[nodes]
        features[:, 3] = sim.running[nodes]
        col_remaining = raw_width + NUM_RESOURCE_TYPES
        col_exp_current = col_remaining + 1

        remap = self._remap_scratch(graph)
        remap[nodes] = np.arange(nodes.size)
        busy = sim.busy_processors()
        remaining_all = None
        if busy.size:
            remaining_all = sim.expected_remaining_many(busy)
            pos = remap[sim.proc_task[busy]]
            inside = pos >= 0
            if inside.any():
                features[pos[inside], col_remaining] = (
                    remaining_all[inside] / self._scale
                )
        # current-processor context, broadcast to every node
        cur_type = sim.platform.type_of(current_proc)
        features[:, col_exp_current] = features[:, raw_width + cur_type]
        features[:, col_exp_current + 1 + cur_type] = 1.0

        # the normalised window adjacency depends only on the node set, which
        # repeats across the decisions of one instant (assignments move tasks
        # ready→running but both stay in the window) — memoise per set
        adj_cache: Dict = graph.__dict__.setdefault("_cached_window_norm_adj", {})
        nodes_bytes = nodes.tobytes()
        adj_key = (self.sparse, nodes_bytes)
        norm_adj = adj_cache.get(adj_key)
        if norm_adj is not None:
            # LRU recency refresh: re-inserting moves the key to the end of
            # the (insertion-ordered) dict, so hot windows survive eviction
            adj_cache[adj_key] = adj_cache.pop(adj_key)
        if norm_adj is None:
            if self.sparse:
                from repro.nn.sparse import (
                    edges_to_sparse_adjacency,
                    gcn_normalize_adjacency_sparse,
                )

                e = graph.edges
                if len(e):
                    mask = (remap[e[:, 0]] >= 0) & (remap[e[:, 1]] >= 0)
                    sub_edges = np.column_stack(
                        (remap[e[mask, 0]], remap[e[mask, 1]])
                    )
                else:
                    sub_edges = np.zeros((0, 2), dtype=np.int64)
                norm_adj = gcn_normalize_adjacency_sparse(
                    edges_to_sparse_adjacency(sub_edges, nodes.size)
                )
            else:
                sub_adj = self._adjacency(graph)[np.ix_(nodes, nodes)]
                norm_adj = gcn_normalize_adjacency(sub_adj)
            # freeze the memoised adjacency (CSR: its backing arrays) — it is
            # shared by every observation with this window node set
            if self.sparse:
                for arr in (norm_adj.data, norm_adj.indices, norm_adj.indptr):
                    arr.setflags(write=False)
            else:
                norm_adj.setflags(write=False)
            # bound memory under huge episodes by evicting the single oldest
            # entry (dicts preserve insertion order, and hits above refresh a
            # key's position) — a wholesale clear() would drop the hot window
            # of the current instant and cause a latency cliff on re-entry
            while len(adj_cache) >= self._ADJ_CACHE_MAX:
                adj_cache.pop(next(iter(adj_cache)))
            adj_cache[adj_key] = norm_adj
        remap[nodes] = -1  # restore the all--1 scratch invariant

        ready_mask = sim.ready[nodes]
        ready_positions = np.flatnonzero(ready_mask)
        ready_tasks = nodes[ready_positions]

        # processor descriptor, sharing busy/remaining computed above
        proc_features = self.proc_descriptor(
            sim, current_proc, busy=busy, remaining=remaining_all
        )
        if allow_pass is None:
            allow_pass = bool(sim.running.any())

        return Observation(
            features=features,
            norm_adj=norm_adj,
            ready_positions=ready_positions,
            ready_tasks=ready_tasks,
            proc_features=proc_features,
            current_proc=int(current_proc),
            allow_pass=allow_pass,
            window_fingerprint=nodes_bytes,
        )

    def build_terminal(self, sim: Simulation) -> Observation:
        """Degenerate observation of a *finished* episode.

        The MDP has no decision point at the terminal state (the window
        would be empty), so the environment historically returned ``None``.
        The vectorised wrapper stashes this well-formed stand-in as
        ``infos[k]["terminal_observation"]`` (gym convention): zero window
        nodes, an empty action set, ``current_proc=-1``, and a global
        resource descriptor of the all-idle platform — shaped so batched
        consumers can embed it without special-casing, while ``num_actions
        == 0`` still marks it as non-actionable.
        """
        graph = sim.graph
        template, _raw_width = self._feature_template(graph)
        features = np.zeros((0, template.shape[1]), dtype=np.float64)
        if self.sparse:
            from repro.nn.sparse import (
                edges_to_sparse_adjacency,
                gcn_normalize_adjacency_sparse,
            )

            norm_adj = gcn_normalize_adjacency_sparse(
                edges_to_sparse_adjacency(np.zeros((0, 2), dtype=np.int64), 0)
            )
        else:
            norm_adj = np.zeros((0, 0), dtype=np.float64)
        empty = np.empty(0, dtype=np.int64)
        proc_features = np.zeros(PROC_FEATURE_DIM, dtype=np.float64)
        proc_features[NUM_RESOURCE_TYPES] = 1.0  # every processor is idle
        return Observation(
            features=features,
            norm_adj=norm_adj,
            ready_positions=empty,
            ready_tasks=empty.copy(),
            proc_features=proc_features,
            current_proc=-1,
            allow_pass=False,
        )

    def build_many(
        self,
        sims: "list[Simulation]",
        procs: "list[int]",
        allow_passes: "list[bool]",
    ) -> "list[Observation]":
        """Observations for many members with one fused dynamic-state pass.

        Convenience wrapper over :func:`build_observations` for callers that
        share a single builder across members.
        """
        return build_observations([self] * len(sims), sims, procs, allow_passes)

    def proc_descriptor(
        self,
        sim: Simulation,
        current_proc: int,
        *,
        busy: Optional[np.ndarray] = None,
        remaining: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Current-processor + resource-state summary vector.

        This is the single source of the descriptor — :meth:`build` calls it
        with its already-computed ``busy``/``remaining`` arrays, standalone
        callers let it derive them from the simulation.  (Busy and idle
        processors partition the platform, so ``p - busy.size`` equals
        ``sim.idle_processors().size``.)
        """
        if busy is None:
            busy = sim.busy_processors()
        if remaining is None and busy.size:
            remaining = sim.expected_remaining_many(busy)
        p = sim.platform.num_processors
        descriptor = np.zeros(PROC_FEATURE_DIM, dtype=np.float64)
        descriptor[sim.platform.type_of(current_proc)] = 1.0
        descriptor[NUM_RESOURCE_TYPES] = (p - busy.size) / p
        descriptor[NUM_RESOURCE_TYPES + 1] = min(
            1.0, int(sim.ready.sum()) / max(1, p)
        )
        if remaining is not None and len(remaining):
            descriptor[NUM_RESOURCE_TYPES + 2] = (
                float(remaining.mean()) / self._scale
            )
        return descriptor




class BatchObservation(Observation):
    """One member of an :class:`ObservationBatch`; its arrays are views.

    ``features``, ``ready_positions``, ``ready_tasks`` and ``proc_features``
    slice the batch arrays.  ``norm_adj`` is cut out of the batch's
    block-diagonal CSR on first read — dense for a dense-mode builder, CSR
    for a sparse one — so consumers that never read it (the agent's batched
    glue) never pay for it.  Pickling or copying yields a plain
    :class:`Observation` with the adjacency materialised: checkpoints and
    worker pipes carry exactly the values a per-member build produces.
    """

    @classmethod
    def _view(
        cls, batch: "ObservationBatch", member: int, sparse: bool, **values: Any
    ) -> "BatchObservation":
        """Member ``member`` of ``batch``: ``values`` are the eagerly cut
        fields; the defaulted ones keep their defaults.  Fills the instance
        dict directly — K views are made per step, and the dataclass
        ``__init__`` would route ``norm_adj`` through the property."""
        ob = cls.__new__(cls)
        ob.__dict__.update(
            values,
            _norm_adj=None,
            embed_key=None,
            extra_node_features=0,
            _batch=batch,
            _member=member,
            _sparse=sparse,
        )
        return ob

    @property  # type: ignore[override]
    def norm_adj(self) -> object:
        adj = self.__dict__["_norm_adj"]
        if adj is None:
            adj = self._batch.member_adjacency(self._member, self._sparse)
            self.__dict__["_norm_adj"] = adj
        return adj

    @norm_adj.setter
    def norm_adj(self, value: object) -> None:
        self.__dict__["_norm_adj"] = value

    def __reduce__(self) -> tuple:
        return (Observation, tuple(getattr(self, f.name) for f in _OBS_FIELDS))


_OBS_FIELDS = fields(Observation)


class ObservationBatch:
    """R observations built in one pass, held in block layout.

    Member ``i`` owns rows ``node_offsets[i]:node_offsets[i+1]`` of
    ``features`` and ``nodes`` (its sorted window task ids), and entries
    ``ready_offsets[i]:ready_offsets[i+1]`` of ``ready_rows`` (block-global
    rows of its ready tasks, i.e. its action set).  The GCN-normalised
    block-diagonal adjacency is raw CSR — float64 ``adj_data``, int32
    block-global ``adj_indices``, int32 ``adj_indptr`` — bitwise what
    :func:`repro.nn.sparse.block_diag_adjacency_sparse` assembles from the
    members' :func:`~repro.nn.layers.gcn_normalize_adjacency` windows.
    """

    def __init__(
        self,
        features: np.ndarray,
        nodes: np.ndarray,
        node_offsets: np.ndarray,
        adj_data: np.ndarray,
        adj_indices: np.ndarray,
        adj_indptr: np.ndarray,
        row_nnz: np.ndarray,
        ready_rows: np.ndarray,
        ready_offsets: np.ndarray,
        proc_features: np.ndarray,
        allow_pass: np.ndarray,
    ) -> None:
        self.features = features
        self.nodes = nodes
        self.node_offsets = node_offsets
        self.adj_data = adj_data
        self.adj_indices = adj_indices
        self.adj_indptr = adj_indptr
        self.ready_rows = ready_rows
        self.ready_offsets = ready_offsets
        self.proc_features = proc_features
        self.allow_pass = allow_pass
        #: stored entries per block row (the CSR row lengths)
        self.row_nnz = row_nnz
        self._node_bounds = node_offsets.tolist()
        self._nnz_bounds = adj_indptr[node_offsets].tolist()
        self._csr = None

    @property
    def size(self) -> int:
        return len(self._node_bounds) - 1

    def adjacency(self) -> sp.csr_matrix:
        """The block-diagonal adjacency as one ``scipy.sparse.csr_matrix``
        (built once; the batched GCN multiplies by it)."""
        if self._csr is None:
            m = self.features.shape[0]
            self._csr = sp.csr_matrix(
                (self.adj_data, self.adj_indices, self.adj_indptr), shape=(m, m)
            )
        return self._csr

    def member_block(self, i: int) -> tuple:
        """``(data, block-global columns, per-row nnz, first row)`` of member
        ``i``'s diagonal block — views, nothing is copied."""
        a, b = self._nnz_bounds[i], self._nnz_bounds[i + 1]
        lo = self._node_bounds[i]
        return (
            self.adj_data[a:b],
            self.adj_indices[a:b],
            self.row_nnz[lo: self._node_bounds[i + 1]],
            lo,
        )

    def member_adjacency(self, i: int, sparse: bool) -> object:
        """Member ``i``'s normalised window adjacency as the per-member
        builder returns it: frozen dense ``(m, m)`` or frozen CSR."""
        data, cols, counts, lo = self.member_block(i)
        m = counts.size
        local = cols - np.int32(lo)
        if sparse:
            indptr = np.zeros(m + 1, dtype=np.int32)
            np.cumsum(counts, out=indptr[1:])
            adj = sp.csr_matrix((data.copy(), local, indptr), shape=(m, m))
            for arr in (adj.data, adj.indices, adj.indptr):
                arr.setflags(write=False)
            return adj
        dense = np.zeros((m, m), dtype=np.float64)
        dense[np.repeat(np.arange(m), counts), local] = data
        dense.setflags(write=False)
        return dense


def _build_batch(
    builder: StateBuilder,
    kernel: SimKernel,
    rows: np.ndarray,
    procs: np.ndarray,
    allow_passes: "list[Optional[bool]]",
    sparse: "list[bool]",
) -> "Optional[list[BatchObservation]]":
    """Observations of kernel ``rows`` in one vectorised pass.

    Bitwise the per-member :meth:`StateBuilder.build` results: the same
    window masks (reach rows OR-ed over the sources), the same template rows
    patched with the same scalar formulas, and normalised adjacency entries
    ``(1/√dᵢ)·(1/√dⱼ)`` over each window's symmetrised edges plus
    self-loops.  Rows are grouped by graph structure (the kernel's graph
    tokens), each group reading one graph's static arrays, so rows may hold
    distinct graph objects and graphs of different sizes.  ``None`` when
    the rows' feature widths differ (they cannot share a feature matrix).
    """
    num_rows = rows.size
    # (row selector, graph) per structure; one structure selects every row
    # with a slice, so its gathers below copy nothing
    tokens = kernel._graph_tokens[rows]
    if kernel._next_token == 1 or (tokens == tokens[0]).all():
        parts = [(slice(None), kernel.graphs[int(rows[0])])]
    else:
        uniq, row_part = np.unique(tokens, return_inverse=True)
        parts = []
        for g in range(uniq.size):
            sel = np.flatnonzero(row_part == g)
            parts.append((sel, kernel.graphs[int(rows[sel[0]])]))
    templates = [builder._feature_template(graph) for _, graph in parts]
    template, raw_width = templates[0]
    if any(t.shape[1] != template.shape[1] for t, _ in templates):
        return None

    ready = kernel.ready[rows]
    running = kernel.running[rows]
    src = ready | running
    if not src.any(axis=1).all():
        raise RuntimeError("no ready or running task — episode is over")
    if builder.window > 0:
        mask = np.zeros_like(src)
        for sel, graph in parts:
            n = graph.num_tasks
            r_idx, u_idx = np.nonzero(src[sel, :n])
            starts = np.searchsorted(r_idx, np.arange(mask[sel].shape[0]))
            mask[sel, :n] = np.logical_or.reduceat(
                builder._reach_mask(graph)[u_idx], starts, axis=0
            )
        mask &= ~kernel.finished[rows]
        mask |= src
    else:
        mask = src
    member, nodes = np.nonzero(mask)  # member-major, task ids ascending
    total = nodes.size
    counts = np.bincount(member, minlength=num_rows)
    node_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=node_offsets[1:])
    block_rows = np.arange(total)
    position = np.full(mask.shape, -1, dtype=np.int32)  # task → block row
    position[member, nodes] = block_rows

    if len(parts) == 1:
        features = template[nodes]
    else:
        features = np.empty((total, template.shape[1]), dtype=np.float64)
        node_part = row_part[member]
        for g, (t, _) in enumerate(templates):
            at = node_part == g
            features[at] = t[nodes[at]]
    is_ready = ready[member, nodes]
    features[:, 2] = is_ready
    features[:, 3] = running[member, nodes]
    col_remaining = raw_width + NUM_RESOURCE_TYPES
    col_exp_current = col_remaining + 1
    busy_r, _busy_p, busy_tasks, remaining = kernel.busy_remaining(rows)
    if busy_r.size:
        pos = position[busy_r, busy_tasks]
        inside = pos >= 0
        features[pos[inside], col_remaining] = remaining[inside] / builder._scale
    cur_types = kernel.platform.resource_types[procs]
    node_types = np.repeat(cur_types, counts)
    features[:, col_exp_current] = features[block_rows, raw_width + node_types]
    features[block_rows, col_exp_current + 1 + node_types] = 1.0

    # normalised adjacency from each structure's symmetrised edge list:
    # an entry (u, v) belongs to a window iff both ends have a block row;
    # row-major over (member, edge) with edges sorted by (u, v) is CSR order
    entry_row, entry_col = [], []
    for sel, graph in parts:
        src_end, dst_end = builder._sym_pairs(graph)
        pos_rows = position[sel]
        pu = pos_rows[:, src_end]
        pv = pos_rows[:, dst_end]
        keep = (pu >= 0) & (pv >= 0)
        entry_row.append(pu[keep])
        entry_col.append(pv[keep])
    if len(parts) == 1:
        entry_row, entry_col = entry_row[0], entry_col[0]
    else:
        entry_row = np.concatenate(entry_row)
        order = np.argsort(entry_row, kind="stable")
        entry_row = entry_row[order]
        entry_col = np.concatenate(entry_col)[order]
    degree = np.bincount(entry_row, minlength=total)
    inv_sqrt = 1.0 / np.sqrt(degree.astype(np.float64))
    adj_indptr = np.zeros(total + 1, dtype=np.int32)
    np.cumsum(degree, out=adj_indptr[1:])

    ready_rows = np.flatnonzero(is_ready)
    ready_member = member[ready_rows]
    ready_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(ready_member, minlength=num_rows), out=ready_offsets[1:])
    ready_pos = ready_rows - node_offsets[ready_member]
    ready_tasks = nodes[ready_rows]

    num_procs = kernel.platform.num_processors
    busy_counts = np.bincount(busy_r, minlength=num_rows)
    proc = np.zeros((num_rows, PROC_FEATURE_DIM), dtype=np.float64)
    proc[np.arange(num_rows), cur_types] = 1.0
    proc[:, NUM_RESOURCE_TYPES] = (num_procs - busy_counts) / num_procs
    proc[:, NUM_RESOURCE_TYPES + 1] = np.minimum(
        1.0, ready.sum(axis=1) / max(1, num_procs)
    )
    if busy_r.size and busy_counts.max() < 8:
        # NumPy sums fewer than 8 terms left to right from 0, and so does
        # a weighted bincount: each row's sum is bitwise the busy-only sum
        # whose mean the per-member descriptor takes
        at = busy_counts > 0
        sums = np.bincount(busy_r, weights=remaining, minlength=num_rows)
        proc[at, NUM_RESOURCE_TYPES + 2] = (
            sums[at] / busy_counts[at] / builder._scale
        )
    elif busy_r.size:
        # longer sums are pairwise: take each busy count c's rows as one
        # (rows, c) block, whose row-wise mean is bitwise the 1-D mean
        first = np.cumsum(busy_counts) - busy_counts
        for c in np.unique(busy_counts[busy_counts > 0]).tolist():
            at = np.flatnonzero(busy_counts == c)
            block = remaining[first[at, None] + np.arange(c)]
            proc[at, NUM_RESOURCE_TYPES + 2] = block.mean(axis=1) / builder._scale

    allow = [
        bool(running[i].any()) if a is None else a
        for i, a in enumerate(allow_passes)
    ]
    batch = ObservationBatch(
        features=features,
        nodes=nodes,
        node_offsets=node_offsets,
        adj_data=inv_sqrt[entry_row] * inv_sqrt[entry_col],
        adj_indices=entry_col,
        adj_indptr=adj_indptr,
        row_nnz=degree,
        ready_rows=ready_rows,
        ready_offsets=ready_offsets,
        proc_features=proc,
        allow_pass=np.asarray(allow, dtype=bool),
    )
    bounds = batch._node_bounds
    ready_bounds = ready_offsets.tolist()
    return [
        BatchObservation._view(
            batch,
            i,
            sparse[i],
            features=features[bounds[i]: bounds[i + 1]],
            ready_positions=ready_pos[ready_bounds[i]: ready_bounds[i + 1]],
            ready_tasks=ready_tasks[ready_bounds[i]: ready_bounds[i + 1]],
            proc_features=proc[i],
            current_proc=proc_id,
            allow_pass=allow[i],
            window_fingerprint=nodes[bounds[i]: bounds[i + 1]].tobytes(),
        )
        for i, proc_id in enumerate(procs.tolist())
    ]


def build_observations(
    builders: "list[StateBuilder]",
    sims: "list[Simulation]",
    procs: "list[int]",
    allow_passes: "list[Optional[bool]]",
) -> "list[Observation]":
    """Build one observation per member, batching members of a shared kernel.

    Members whose simulations are rows of one struct-of-arrays kernel (and
    whose builders agree on window and duration table) are built together
    in one vectorised pass over the kernel arrays: the returned
    observations are :class:`BatchObservation` views into one
    :class:`ObservationBatch`, bitwise equal to what
    :meth:`StateBuilder.build` returns member by member.  A lone member,
    builder subclasses (which append their own columns) and graphs above
    ``_REACH_CACHE_MAX_NODES`` go through the per-member build.
    """
    if not (len(builders) == len(sims) == len(procs) == len(allow_passes)):
        raise ValueError("builders/sims/procs/allow_passes must align")
    groups: Dict[tuple, list] = {}
    for i, (builder, sim) in enumerate(zip(builders, sims)):
        kernel = getattr(sim, "_kernel", None)
        if kernel is not None and type(builder) is StateBuilder:
            key = (id(kernel), builder.window, id(builder.durations))
            groups.setdefault(key, []).append(i)
    tracer = obs.TRACER
    out: "list[Optional[Observation]]" = [None] * len(sims)
    for members in groups.values():
        if len(members) < 2:
            continue  # a lone member gains nothing from the batched pass
        kernel = sims[members[0]]._kernel
        rows = np.asarray([sims[i]._row for i in members], dtype=np.int64)
        if kernel.n_tasks[rows].max() > StateBuilder._REACH_CACHE_MAX_NODES:
            continue  # no dense reach masks: the per-member BFS path
        handle = (
            tracer.begin("state_build", batch=len(members))
            if tracer.enabled
            else None
        )
        built = _build_batch(
            builders[members[0]],
            kernel,
            rows,
            np.asarray([procs[i] for i in members], dtype=np.int64),
            [allow_passes[i] for i in members],
            [builders[i].sparse for i in members],
        )
        if built is not None:
            for i, ob in zip(members, built):
                out[i] = ob
        if handle is not None:
            tracer.end(handle, nodes=built[0]._batch.nodes.size if built else 0)
    for i, ob in enumerate(out):
        if ob is None:
            handle = (
                tracer.begin("state_build", proc=int(procs[i]))
                if tracer.enabled
                else None
            )
            ob = out[i] = builders[i].build(
                sims[i], procs[i], allow_pass=allow_passes[i]
            )
            if handle is not None:
                tracer.end(handle, nodes=ob.num_nodes)
    return out
