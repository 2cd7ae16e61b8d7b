"""The READYS agent network (paper Fig. 2).

Architecture, bottom to top:

* a stack of ``g`` GCN layers over the window sub-DAG (node features are the
  paper's raw features enriched with resource state) with ReLU activations,
  producing an internal representation ``H`` of every node in the window;
* **critic**: mean-pooling of ``H`` followed by a one-dimensional projection
  → state value ``V``;
* **actor**: the embeddings of the *ready* tasks are projected to one scalar
  score each; the ∅ action's score is a projection of the concatenation of
  the max-pooled DAG representation with the current-processor descriptor;
  a softmax over [task scores, ∅ score] gives the policy π.

The number of GCN layers defaults to ``max(window, 1)`` — the paper finds
``g = w`` layers suffice for window information to reach the ready tasks.

Compiled inference
------------------
:meth:`ReadysAgent.enable_compiled` attaches an
:class:`~repro.nn.compile.InferenceCompiler` to the agent.  While enabled,
the no-grad policy helpers (:meth:`action_distribution`, :meth:`sample_action`,
:meth:`greedy_action`, :meth:`state_value` and their batched variants) skip
the autograd forward: single observations replay a captured op plan as raw
NumPy, and batches run the fused forward program the compiled training step
uses, on plans keyed by batch structure.  Float64 replays are
bit-identical, so schedules and learning curves do not change.  Every
helper takes ``compiled=False`` as an escape hatch back to the reference
path; the gradient-carrying entry points (:meth:`forward`,
:meth:`forward_batch_flat`) are never compiled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as sp

from repro import obs as _obs
from repro.nn import InferenceCompiler
from repro.nn import functional as F
from repro.nn.layers import GCNStack, Linear, Module
from repro.nn.sparse import block_diag_adjacency_sparse
from repro.nn.tensor import Tensor, no_grad
from repro.sim.state import Observation
from repro.utils.seeding import SeedLike, as_generator


@dataclass(frozen=True)
class AgentConfig:
    """Hyper-parameters of the READYS network."""

    feature_dim: int
    """width of the node feature rows (see ``observation_feature_dim``)"""
    proc_feature_dim: int
    """width of the current-processor descriptor"""
    hidden_dim: int = 64
    """GCN embedding width"""
    num_gcn_layers: int = 2
    """``g`` — number of stacked graph convolutions"""

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.proc_feature_dim < 1:
            raise ValueError("feature dims must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.num_gcn_layers < 1:
            raise ValueError("num_gcn_layers must be >= 1")


@dataclass
class BatchedForward:
    """Flat result of one batched forward over B observations.

    The logits of every observation live concatenated in one tensor so that a
    whole unroll's policy losses reduce to a handful of segment ops; callers
    that want the per-observation view slice with ``action_offsets``.
    """

    logits: Tensor
    """(Σ num_actionsᵢ,) per-action scores, observation-major"""
    values: Tensor
    """(B,) state values"""
    action_segments: np.ndarray
    """observation index of every flat logit entry"""
    action_offsets: np.ndarray
    """(B+1,) prefix offsets: obs i's logits are ``logits[off[i]:off[i+1]]``"""

    @property
    def num_observations(self) -> int:
        return len(self.action_offsets) - 1

    def logits_of(self, i: int) -> Tensor:
        """Graph-connected logits slice of observation ``i``."""
        return self.logits[slice(int(self.action_offsets[i]), int(self.action_offsets[i + 1]))]


@dataclass
class _BatchGlue:
    """Pure-NumPy assembly of a batched forward (no tensor ops).

    Shared between the reference :meth:`ReadysAgent.forward_batch_flat` and
    the compiled batched path so both feed *the same arrays* into the network
    — the glue is also what the compiled plan registers as dynamic inputs.
    """

    batch: int
    sizes: List[int]
    feats: np.ndarray
    graph_ids: np.ndarray
    adj: Any
    num_ready: np.ndarray
    ready_rows: np.ndarray
    pass_idx: np.ndarray
    proc_stack: Optional[np.ndarray]
    num_actions: np.ndarray
    action_offsets: np.ndarray
    perm: np.ndarray


def _concat_blocks(obs_list: Sequence[Any], sizes: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal CSR of batch-built observations from their blocks'
    CSR slices — bitwise :func:`block_diag_adjacency_sparse` over their
    ``norm_adj``, without materialising any member adjacency."""
    data, cols, counts, shifts = [], [], [], []
    offset = 0
    for o, size in zip(obs_list, sizes.tolist()):
        d, c, n, lo = o._batch.member_block(o._member)
        data.append(d)
        cols.append(c)
        counts.append(n)
        shifts.append(offset - lo)
        offset += size
    nnz = np.fromiter((d.size for d in data), dtype=np.int64, count=len(data))
    indptr = np.concatenate(
        ([0], np.cumsum(np.concatenate(counts), dtype=np.int32)), dtype=np.int32
    )
    return sp.csr_matrix(
        (
            np.concatenate(data),
            np.concatenate(cols) + np.repeat(np.asarray(shifts, dtype=np.int32), nnz),
            indptr,
        ),
        shape=(offset, offset),
    )


class ReadysAgent(Module):
    """GCN encoder + actor/critic heads."""

    def __init__(self, config: AgentConfig, rng: SeedLike = None) -> None:
        rng = as_generator(rng)
        self.config = config
        self.gcn = GCNStack(
            config.feature_dim, config.hidden_dim, config.num_gcn_layers, rng=rng
        )
        self.task_score = Linear(config.hidden_dim, 1, rng=rng)
        self.pass_score = Linear(config.hidden_dim + config.proc_feature_dim, 1, rng=rng)
        self.value_head = Linear(config.hidden_dim, 1, rng=rng)
        self._compiled: Optional[InferenceCompiler] = None

    # ------------------------------------------------------------------ #
    # compiled-inference control
    # ------------------------------------------------------------------ #

    def enable_compiled(
        self,
        dtype: str = "float64",
        max_plans: int = 64,
        memo_size: int = 16,
    ) -> InferenceCompiler:
        """Attach a capture/replay engine to the no-grad policy helpers.

        ``dtype="float64"`` (default) keeps replays bit-identical to the
        reference forward; ``"float32"`` trades ~1e-6 relative accuracy for
        speed on single-observation replays (weights are cast once per
        ``state_dict`` version; batched forwards stay float64).  Returns the
        engine so callers can read :attr:`~InferenceCompiler.stats`.
        """
        self._compiled = InferenceCompiler(
            dtype=dtype, max_plans=max_plans, memo_size=memo_size
        )
        return self._compiled

    def disable_compiled(self) -> None:
        """Drop the engine; helpers return to the reference forward."""
        self._compiled = None

    @property
    def compiled(self) -> bool:
        """Whether a compiled-inference engine is attached."""
        return self._compiled is not None

    def compile_stats(self) -> Optional[Dict[str, float]]:
        """The attached engine's counters, or None when not compiled."""
        return self._compiled.stats_dict() if self._compiled is not None else None

    # ------------------------------------------------------------------ #

    def forward(self, obs: Observation) -> Tuple[Tensor, Tensor]:
        """Return ``(logits, value)`` for one observation.

        ``logits`` has one entry per ready task, plus a final entry for the
        ∅ action when it is legal.  ``value`` is a 1-element tensor.
        """
        if len(obs.ready_positions) == 0:
            raise ValueError("observation has no ready task — not a decision point")
        return self._forward_arrays(
            obs.features,
            obs.norm_adj,
            np.asarray(obs.ready_positions),
            obs.proc_features,
            obs.allow_pass,
        )

    def _forward_arrays(
        self,
        features: np.ndarray,
        norm_adj: Any,
        ready_positions: np.ndarray,
        proc_features: np.ndarray,
        allow_pass: bool,
    ) -> Tuple[Tensor, Tensor]:
        """:meth:`forward` on raw arrays — the capture target of the compiled
        single-observation plan (the array arguments are its input slots)."""
        h = self.gcn(Tensor(features), norm_adj)  # (m, hidden)

        value = self.value_head(F.mean_pool(h))  # (1,)

        ready_emb = h[ready_positions]  # (A, hidden)
        task_logits = self.task_score(ready_emb).reshape(-1)  # (A,)

        if allow_pass:
            pooled = F.max_pool(h)  # (hidden,)
            ctx = Tensor.concatenate([pooled, Tensor(proc_features)], axis=0)
            pass_logit = self.pass_score(ctx)  # (1,)
            logits = Tensor.concatenate([task_logits, pass_logit], axis=0)
        else:
            logits = task_logits
        return logits, value

    # ------------------------------------------------------------------ #
    # batched forward
    # ------------------------------------------------------------------ #

    @staticmethod
    def _batch_glue(obs_list: Sequence[Observation]) -> _BatchGlue:
        """Assemble the block-diagonal arrays of one batched forward.

        Three sources, one result bitwise: the members of one
        :class:`~repro.sim.state.ObservationBatch` in order reuse the batch's
        arrays as they are; other batch-built observations (an update's
        member-major unrolls, a bootstrap subset) concatenate their blocks'
        CSR slices; anything else decomposes each ``norm_adj``.
        """
        batch = len(obs_list)
        for o in obs_list:
            if len(o.ready_positions) == 0:
                raise ValueError("observation has no ready task — not a decision point")
        source = getattr(obs_list[0], "_batch", None)
        if (
            source is not None
            and source.size == batch
            and all(
                getattr(o, "_batch", None) is source and o._member == i
                for i, o in enumerate(obs_list)
            )
        ):
            sizes = np.diff(source.node_offsets)
            feats = source.features
            adj = source.adjacency()
            num_ready = np.diff(source.ready_offsets)
            ready_rows = source.ready_rows
            pass_idx = np.flatnonzero(source.allow_pass)
            proc_stack = source.proc_features[pass_idx] if pass_idx.size else None
        else:
            sizes = np.array([o.num_nodes for o in obs_list])
            feats = np.concatenate([o.features for o in obs_list], axis=0)
            if all(hasattr(o, "_batch") for o in obs_list):
                adj = _concat_blocks(obs_list, sizes)
            else:
                # CSR block-diagonal regardless of member format: one sparse
                # matmul costs O(Σ nnz · h) while the dense form grows O((Σm)²)
                adj = block_diag_adjacency_sparse([o.norm_adj for o in obs_list])
            num_ready = np.array([len(o.ready_positions) for o in obs_list])
            node_offsets = np.concatenate(([0], np.cumsum(sizes)))
            ready_rows = np.concatenate(
                [np.asarray(o.ready_positions) for o in obs_list]
            ) + np.repeat(node_offsets[:-1], num_ready)
            pass_idx = np.array(
                [i for i, o in enumerate(obs_list) if o.allow_pass], dtype=np.int64
            )
            proc_stack = (
                np.stack([obs_list[i].proc_features for i in pass_idx])
                if pass_idx.size
                else None
            )
        graph_ids = np.repeat(np.arange(batch), sizes)

        # reorder [all task logits..., all pass logits...] to observation-major
        # [obs0 tasks, obs0 pass?, obs1 tasks, ...] with one gather.
        num_actions = num_ready.copy()
        num_actions[pass_idx] += 1
        action_offsets = np.concatenate(([0], np.cumsum(num_actions)))
        task_offsets = np.concatenate(([0], np.cumsum(num_ready)))
        total_tasks = int(task_offsets[-1])
        perm = np.empty(int(action_offsets[-1]), dtype=np.int64)
        # task entry k of obs i sits at output slot action_offsets[i] + k
        within = np.arange(total_tasks) - np.repeat(task_offsets[:-1], num_ready)
        perm[np.repeat(action_offsets[:-1], num_ready) + within] = (
            np.arange(total_tasks)
        )
        if pass_idx.size:
            # the ∅ entry of obs i follows its tasks
            perm[action_offsets[pass_idx] + num_ready[pass_idx]] = (
                total_tasks + np.arange(pass_idx.size)
            )
        return _BatchGlue(
            batch=batch,
            sizes=sizes.tolist(),
            feats=feats,
            graph_ids=graph_ids,
            adj=adj,
            num_ready=num_ready,
            ready_rows=ready_rows,
            pass_idx=pass_idx,
            proc_stack=proc_stack,
            num_actions=num_actions,
            action_offsets=action_offsets,
            perm=perm,
        )

    def _forward_batch_tensors(self, glue: _BatchGlue) -> Tuple[Tensor, Tensor]:
        """The tensor-op half of the batched forward (capture target)."""
        h = self.gcn(Tensor(glue.feats), glue.adj)  # (Σm, hidden)

        values = self.value_head(
            F.segment_mean_pool(h, glue.graph_ids, glue.batch)
        ).reshape(-1)

        task_logits = self.task_score(h[glue.ready_rows]).reshape(-1)  # (Σ Aᵢ,)

        if glue.pass_idx.size:
            pooled = F.segment_max_pool(h, glue.graph_ids, glue.batch)  # (B, hidden)
            ctx = Tensor.concatenate(
                [pooled[glue.pass_idx], Tensor(glue.proc_stack)], axis=1
            )
            pass_logits = self.pass_score(ctx).reshape(-1)  # (n_pass,)
            combined = Tensor.concatenate([task_logits, pass_logits])
        else:
            combined = task_logits
        logits = combined[glue.perm]
        return logits, values

    def forward_batch_flat(self, obs_list: Sequence[Observation]) -> BatchedForward:
        """One GCN pass over B observations stacked block-diagonally.

        Numerically equivalent to B calls of :meth:`forward` (same math; the
        only differences are floating-point summation orders).  The B == 1
        case routes through :meth:`forward` so a one-element batch is
        *bit-identical* to the single-observation path — this is what lets a
        K=1 vectorised trainer reproduce the legacy trainer exactly.
        """
        if len(obs_list) == 0:
            raise ValueError("forward_batch needs at least one observation")
        if len(obs_list) == 1:
            logits, value = self.forward(obs_list[0])
            n = logits.shape[0]
            return BatchedForward(
                logits=logits,
                values=value,
                action_segments=np.zeros(n, dtype=np.int64),
                action_offsets=np.array([0, n], dtype=np.int64),
            )

        glue = self._batch_glue(obs_list)
        logits, values = self._forward_batch_tensors(glue)
        return BatchedForward(
            logits=logits,
            values=values,
            action_segments=np.repeat(np.arange(glue.batch), glue.num_actions),
            action_offsets=glue.action_offsets,
        )

    def forward_batch(
        self, obs_list: Sequence[Observation]
    ) -> Tuple[List[Tensor], Tensor]:
        """Batched :meth:`forward`: per-observation logits plus a (B,) value tensor.

        ``forward_batch([o1, …, oB])`` matches ``[forward(o1), …, forward(oB)]``
        to numerical precision; all returned tensors share one autograd graph,
        so losses built from them backpropagate through a single batched pass.
        """
        bf = self.forward_batch_flat(obs_list)
        logits_list = [bf.logits_of(i) for i in range(bf.num_observations)]
        return logits_list, bf.values

    # ------------------------------------------------------------------ #
    # compiled no-grad paths
    # ------------------------------------------------------------------ #

    def _compiled_single(self, obs: Observation) -> Tuple[np.ndarray, np.ndarray]:
        """``(logits, value)`` arrays via the engine (borrowed buffers)."""
        if len(obs.ready_positions) == 0:
            raise ValueError("observation has no ready task — not a decision point")
        eng = self._compiled
        rp = np.asarray(obs.ready_positions)
        adj = obs.norm_adj
        dense = isinstance(adj, np.ndarray)
        # the key pins every shape-carrying fact of the plan: node count and
        # feature width, ready count, ∅ legality, adjacency storage format
        key = ("single", obs.features.shape, rp.size, bool(obs.allow_pass), dense)
        inputs = {"features": obs.features, "adj": adj, "ready": rp}
        if obs.allow_pass:
            inputs["proc"] = obs.proc_features
        return eng.run(
            key,
            lambda: self._forward_arrays(
                obs.features, adj, rp, obs.proc_features, obs.allow_pass
            ),
            inputs,
            memo_key=obs.embed_key,
        )

    def _compiled_batch(
        self, obs_list: Sequence[Observation]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(flat_logits, values, action_offsets)`` via the engine's
        structural batched plan (borrowed buffers)."""
        glue = self._batch_glue(obs_list)
        logits, values = self._compiled.run_batch(
            self, glue, lambda: self._forward_batch_tensors(glue)
        )
        return logits, values, glue.action_offsets

    @staticmethod
    def _softmax_np(logits: np.ndarray) -> np.ndarray:
        """Mirror of ``F.softmax`` (``log_softmax(x).exp()``) on a raw vector.

        The op sequence matches the tensor composition exactly, so on a
        bit-identical float64 logits replay the probabilities are bit-identical
        too.  float32 logits are promoted to float64 first — the distribution
        maths stays double so sampling normalisation cannot drift.
        """
        x = logits if logits.dtype == np.float64 else logits.astype(np.float64)
        shift = x.max(axis=-1, keepdims=True)
        z = np.exp(x - shift)
        lse = np.log(z.sum(axis=-1, keepdims=True)) + shift
        return np.exp(x - lse)

    # ------------------------------------------------------------------ #
    # policy helpers
    # ------------------------------------------------------------------ #

    def action_distribution(
        self, obs: Observation, compiled: bool = True
    ) -> np.ndarray:
        """π(a|s) as a plain probability vector (no grad).

        ``compiled=False`` forces the reference forward even when an engine
        is attached (escape hatch; also used by the parity tests).
        """
        tracer = _obs.TRACER
        if compiled and self._compiled is not None:
            handle = (
                tracer.begin("forward", batch=1, nodes=obs.num_nodes, compiled=True)
                if tracer.enabled
                else None
            )
            with no_grad():
                logits, _ = self._compiled_single(obs)
                probs = self._softmax_np(logits)
            if handle is not None:
                tracer.end(handle)
            return probs
        handle = (
            tracer.begin("forward", batch=1, nodes=obs.num_nodes)
            if tracer.enabled
            else None
        )
        with no_grad():
            logits, _ = self.forward(obs)
            probs = F.softmax(logits).data
        if handle is not None:
            tracer.end(handle)
        return probs

    def sample_action(
        self, obs: Observation, rng: np.random.Generator, compiled: bool = True
    ) -> int:
        """Draw an action from π(a|s)."""
        probs = self.action_distribution(obs, compiled=compiled)
        return int(rng.choice(len(probs), p=probs))

    def greedy_action(self, obs: Observation, compiled: bool = True) -> int:
        """The mode of π(a|s) — used for deterministic evaluation."""
        tracer = _obs.TRACER
        if compiled and self._compiled is not None:
            handle = (
                tracer.begin("forward", batch=1, nodes=obs.num_nodes, compiled=True)
                if tracer.enabled
                else None
            )
            with no_grad():
                logits, _ = self._compiled_single(obs)
                action = int(np.argmax(logits))
            if handle is not None:
                tracer.end(handle)
            return action
        handle = (
            tracer.begin("forward", batch=1, nodes=obs.num_nodes)
            if tracer.enabled
            else None
        )
        with no_grad():
            logits, _ = self.forward(obs)
            action = int(np.argmax(logits.data))
        if handle is not None:
            tracer.end(handle)
        return action

    def state_value(self, obs: Observation, compiled: bool = True) -> float:
        """V(s) as a float (no grad) — the bootstrap target for unrolls."""
        if compiled and self._compiled is not None:
            with no_grad():
                _, value = self._compiled_single(obs)
                return float(value[0])
        with no_grad():
            _, value = self.forward(obs)
            return float(value.data[0])

    # ------------------------------------------------------------------ #
    # batched policy helpers (one network pass for K environments)
    # ------------------------------------------------------------------ #

    def action_distributions(
        self, obs_list: Sequence[Observation], compiled: bool = True
    ) -> List[np.ndarray]:
        """π(a|s) for every observation via one batched pass (no grad)."""
        if len(obs_list) == 1:
            # single-observation route — bit-identical to action_distribution
            return [self.action_distribution(obs_list[0], compiled=compiled)]
        tracer = _obs.TRACER
        if compiled and self._compiled is not None:
            handle = (
                tracer.begin("forward", batch=len(obs_list), compiled=True)
                if tracer.enabled
                else None
            )
            with no_grad():
                flat, _, off = self._compiled_batch(obs_list)
                starts = off[:-1]
                counts = np.diff(off)
                p = np.exp(flat - np.repeat(np.maximum.reduceat(flat, starts), counts))
                p /= np.repeat(np.add.reduceat(p, starts), counts)
                result = np.split(p, off[1:-1])
            if handle is not None:
                tracer.end(handle)
            return result
        handle = (
            tracer.begin("forward", batch=len(obs_list))
            if tracer.enabled
            else None
        )
        with no_grad():
            bf = self.forward_batch_flat(obs_list)
            flat, off = bf.logits.data, bf.action_offsets
            # all B softmaxes in three segment ops over the flat logits
            starts = off[:-1]
            counts = np.diff(off)
            p = np.exp(flat - np.repeat(np.maximum.reduceat(flat, starts), counts))
            p /= np.repeat(np.add.reduceat(p, starts), counts)
            result = np.split(p, off[1:-1])
        if handle is not None:
            tracer.end(handle)
        return result

    def sample_actions(
        self,
        obs_list: Sequence[Observation],
        rng: np.random.Generator,
        compiled: bool = True,
    ) -> np.ndarray:
        """Draw one action per observation; one rng draw per env, in order.

        Bitwise ``[rng.choice(len(p), p=p) for p in probs]``:
        ``Generator.choice`` inverts the normalised cumulative distribution
        at one uniform draw, so B draws are one ``rng.random(B)`` against
        the row-wise cumulative sums of the zero-padded probabilities.
        """
        probs = self.action_distributions(obs_list, compiled=compiled)
        counts = np.fromiter(map(len, probs), dtype=np.int64, count=len(probs))
        flat = np.concatenate(probs)
        if not np.isfinite(flat).all():
            # let Generator.choice raise its own error on a broken policy
            return np.array(
                [int(rng.choice(len(p), p=p)) for p in probs], dtype=np.int64
            )
        rows = np.arange(counts.size)
        valid = np.arange(counts.max()) < counts[:, None]
        cdf = np.zeros(valid.shape)
        cdf[valid] = flat
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[rows, counts - 1][:, None]
        # padding repeats the row total, 1.0 after the division: never <= u
        return (cdf <= rng.random(counts.size)[:, None]).sum(axis=1)

    def greedy_actions(
        self, obs_list: Sequence[Observation], compiled: bool = True
    ) -> np.ndarray:
        """Batched :meth:`greedy_action` — deterministic evaluation at scale.

        One block-diagonal forward answers every observation; the batch may
        mix decision points from unrelated episodes.  This is the primitive
        behind ``repro.policy.AgentPolicy.decide_many`` and therefore behind
        the decision server's cross-episode micro-batching (DESIGN.md §13).
        """
        if len(obs_list) == 1:
            return np.array(
                [self.greedy_action(obs_list[0], compiled=compiled)], dtype=np.int64
            )
        tracer = _obs.TRACER
        if compiled and self._compiled is not None:
            handle = (
                tracer.begin("forward", batch=len(obs_list), compiled=True)
                if tracer.enabled
                else None
            )
            with no_grad():
                flat, _, off = self._compiled_batch(obs_list)
                actions = np.array(
                    [int(np.argmax(flat[off[i]: off[i + 1]]))
                     for i in range(len(obs_list))],
                    dtype=np.int64,
                )
            if handle is not None:
                tracer.end(handle)
            return actions
        handle = (
            tracer.begin("forward", batch=len(obs_list))
            if tracer.enabled
            else None
        )
        with no_grad():
            bf = self.forward_batch_flat(obs_list)
            flat, off = bf.logits.data, bf.action_offsets
            actions = np.array(
                [int(np.argmax(flat[off[i]: off[i + 1]]))
                 for i in range(bf.num_observations)],
                dtype=np.int64,
            )
        if handle is not None:
            tracer.end(handle)
        return actions

    def state_values(
        self, obs_list: Sequence[Observation], compiled: bool = True
    ) -> np.ndarray:
        """Batched :meth:`state_value` — bootstrap targets for K unrolls."""
        if len(obs_list) == 1:
            return np.array([self.state_value(obs_list[0], compiled=compiled)])
        if compiled and self._compiled is not None:
            with no_grad():
                _, values, _ = self._compiled_batch(obs_list)
                return values.copy()  # out of the plan's borrowed buffer
        with no_grad():
            return self.forward_batch_flat(obs_list).values.data.copy()
