"""Vectorised scheduling environment: K independent MDPs stepped in lockstep.

Synchronous A2C (and batched greedy evaluation) wants K observations per
network pass; :class:`VecSchedulingEnv` supplies them by holding K
independently-seeded :class:`~repro.sim.env.SchedulingEnv` instances and
stepping them together.  Members are ordinary single environments — they may
differ in graph source and noise draw but must share the platform/duration
structure so one agent's feature dimensions fit every member.

Semantics mirror the classic gym ``VecEnv`` contract:

* :meth:`reset` starts a fresh episode in every member and returns the K
  first observations;
* :meth:`step` applies one action per member and **auto-resets** any member
  whose episode ended, returning the post-reset observation in its slot (the
  terminal ``info`` dict carries the makespan *and* the member's
  ``terminal_observation`` — the gym convention — since the in-slot
  observation already belongs to the next episode).  A K=1 vectorised
  rollout therefore consumes exactly the same RNG stream as the legacy
  single-env loop, which is what makes the vectorised trainer reproduce it
  bit-for-bit.

Since the struct-of-arrays refactor (DESIGN.md §11), compatible members
share one :class:`~repro.sim.kernel.SimKernel`: their episode state lives in
``(K, ·)`` rows of common arrays, and :meth:`step` drives them through a
*fused* wave loop — all members waiting on an event advance in one
``SimKernel.advance_rows`` call, auto-reset is a masked re-init of the
finished rows, and the K next observations are built at the end of the
step in one vectorised pass over the kernel arrays
(:func:`repro.sim.state.build_observations`).  Every member keeps a private
RNG stream, so the fused loop consumes each stream in exactly the
per-member order and the results stay bit-identical to the sequential path
(the parity suite in ``tests/sim/test_vec_parity.py`` pins this).  Members that cannot share a
kernel (structurally different platforms/durations) transparently use the
member-by-member path instead.  Under tracing the fused step emits batched
spans: one ``decision`` span per step (``batch=K``) enclosing one
``state_build`` span per batched build (``batch=R``, ``nodes=Σm``).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.sim.env import SchedulingEnv
from repro.sim.kernel import SimKernel
from repro.sim.state import Observation, build_observations
from repro.utils.seeding import SeedLike, spawn_generators, spawn_seed_sequences


class VecResetResult(NamedTuple):
    """Typed result of :meth:`VecSchedulingEnv.reset` (the Gym 0.26 shape).

    Unpacks as the protocol's ``obs, infos = vec_env.reset(seed=...)``
    2-tuple; ``obs[k]``/``infos[k]`` belong to member ``k``.
    """

    obs: List[Observation]
    infos: List[dict]


class VecStepResult(NamedTuple):
    """Typed result of :meth:`VecSchedulingEnv.step`.

    A ``NamedTuple``, so the historical 4-tuple unpacking
    ``obs, rewards, dones, infos = vec_env.step(a)`` keeps working; new code
    should prefer field access.
    """

    obs: List[Observation]
    """next decision point per member (post-reset observation when done)"""
    rewards: np.ndarray
    dones: np.ndarray
    infos: List[dict]


def _same_platform(a, b) -> bool:
    return a is b or np.array_equal(a.resource_types, b.resource_types)


def _same_durations(a, b) -> bool:
    return a is b or (
        a.kernel_names == b.kernel_names and np.array_equal(a.table, b.table)
    )


class VecSchedulingEnv:
    """K scheduling environments advanced in lockstep with auto-reset."""

    def __init__(self, envs: Sequence[SchedulingEnv]) -> None:
        if not envs:
            raise ValueError("VecSchedulingEnv needs at least one environment")
        windows = {e.window for e in envs}
        if len(windows) > 1:
            raise ValueError(
                f"member environments disagree on window depth: {sorted(windows)}"
            )
        kernels = {e.durations.num_kernels for e in envs}
        if len(kernels) > 1:
            raise ValueError(
                "member environments disagree on duration-table kernel count "
                f"(observation feature widths would differ): {sorted(kernels)}"
            )
        self.envs: List[SchedulingEnv] = list(envs)
        # Structurally identical members share one struct-of-arrays kernel:
        # member resets become masked row re-inits and step() can advance
        # all waiting members per event in one fused array pass.
        self._kernel: Optional[SimKernel] = None
        first = self.envs[0]
        if all(
            _same_platform(e.platform, first.platform)
            and _same_durations(e.durations, first.durations)
            for e in self.envs[1:]
        ):
            self._kernel = SimKernel(
                first.platform, first.durations, len(self.envs)
            )
            for row, env in enumerate(self.envs):
                env.attach_kernel(self._kernel, row)

    @classmethod
    def from_factory(
        cls,
        factory: Callable[[np.random.Generator], SchedulingEnv],
        num_envs: int,
        seed: SeedLike = None,
    ) -> "VecSchedulingEnv":
        """Build K members from ``factory(rng)`` with independent seed streams."""
        if num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {num_envs}")
        return cls([factory(rng) for rng in spawn_generators(seed, num_envs)])

    # ------------------------------------------------------------------ #

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def window(self) -> int:
        return self.envs[0].window

    @property
    def durations(self):
        return self.envs[0].durations

    @property
    def platform(self):
        return self.envs[0].platform

    @property
    def kernel(self) -> Optional[SimKernel]:
        """The shared simulator kernel, or ``None`` when members are too
        heterogeneous to fuse (step() then falls back to per-member loops)."""
        return self._kernel

    # ------------------------------------------------------------------ #

    def reset(self, seed: SeedLike = None) -> VecResetResult:
        """Start a new episode in every member; returns ``(obs, infos)``.

        ``seed`` (optional) re-seeds every member before resetting: member
        streams are the K children spawned from the **single**
        :class:`~numpy.random.SeedSequence` built from ``seed`` — never
        ad-hoc per-member offsets — so no two members (or any other consumer
        spawned from the same root elsewhere) can collide on an RNG stream.
        With a shared kernel each member reset is a masked re-init of its
        row, so no episode state is allocated per reset.
        """
        if seed is not None:
            member_seeds = spawn_seed_sequences(seed, self.num_envs)
            results = [
                env.reset(seed=child)
                for env, child in zip(self.envs, member_seeds)
            ]
        else:
            results = [env.reset() for env in self.envs]
        return VecResetResult([r.obs for r in results], [r.info for r in results])

    def step(self, actions: Sequence[int]) -> VecStepResult:
        """Apply one action per member; auto-reset finished members.

        Returns a :class:`VecStepResult` (unpackable as the historical
        ``(observations, rewards, dones, infos)`` 4-tuple) where
        ``observations[k]`` is the *next decision point* of member k — the
        first observation of a fresh episode when ``dones[k]`` is true — and
        ``infos[k]`` is the member's info dict.  At episode end it carries
        ``"makespan"`` plus ``"terminal_observation"``, the degenerate
        final observation the auto-reset would otherwise drop.
        """
        if len(actions) != self.num_envs:
            raise ValueError(
                f"expected {self.num_envs} actions, got {len(actions)}"
            )
        kernel = self._kernel
        if (
            kernel is not None
            and all(e.fusable_steps for e in self.envs)
            and all(
                e.sim is not None and e.sim._kernel is kernel for e in self.envs
            )
        ):
            return self._step_fused(actions)
        return self._step_members(actions)

    def _step_members(self, actions: Sequence[int]) -> VecStepResult:
        """Member-by-member stepping (heterogeneous members, or tracing)."""
        observations: List[Observation] = []
        rewards = np.empty(self.num_envs, dtype=np.float64)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: List[dict] = []
        for k, (env, action) in enumerate(zip(self.envs, actions)):
            result = env.step(int(action))
            obs_k = result.obs
            info = result.info
            if result.done:
                info = dict(info)
                info["terminal_observation"] = env.state_builder.build_terminal(
                    env.sim
                )
                # auto-reset continues the member's own persistent RNG stream
                # (seeded once from the root SeedSequence at construction)
                obs_k = env.reset().obs
            observations.append(obs_k)
            rewards[k] = result.reward
            dones[k] = result.done
            infos.append(info)
        return VecStepResult(observations, rewards, dones, infos)

    def _step_fused(self, actions: Sequence[int]) -> VecStepResult:
        """Drive all members to their next decision through the shared kernel.

        Wave loop: every iteration partitions the unresolved members into
        (a) finished episodes — finalised, terminal observation stashed,
        row re-initialised in place, then treated as (b); (b) members at a
        decision point — the current processor is drawn from the *member's*
        RNG and the member leaves the loop; and (c) members waiting on an
        event — advanced together in one fused ``advance_rows`` call.
        Per-member RNG draws happen in exactly the order of the sequential
        loop (each member owns its stream), so the results are
        bit-identical to :meth:`_step_members`.

        Every observation is built after the loop, by one
        :func:`~repro.sim.state.build_observations` call over all K members
        in member order: a decided row's kernel state does not change in
        later waves, so deferring its build is exact.
        """
        k = self.num_envs
        kernel = self._kernel
        assert kernel is not None
        tracer = obs.TRACER
        handle = tracer.begin("decision", batch=k) if tracer.enabled else None
        rewards = np.empty(k, dtype=np.float64)
        dones = np.zeros(k, dtype=bool)
        infos: List[dict] = [{} for _ in range(k)]
        procs = [0] * k
        allow = [False] * k
        for env, action in zip(self.envs, actions):
            env._check_action(int(action))
        starts = []  # (row, task, proc) of every non-∅ action
        for env, action in zip(self.envs, actions):
            task = env._take_action(int(action))
            if task is not None:
                starts.append((env._row, task, env._current_obs.current_proc))
        if starts:
            kernel.start_many(*np.asarray(starts, dtype=np.int64).T)
        pending = list(range(k))
        while pending:
            waiting: List[int] = []
            for i in pending:
                env = self.envs[i]
                sim = env.sim
                if sim.done:
                    result = env._finish_step(None)
                    rewards[i] = result.reward
                    dones[i] = True
                    info = dict(result.info)
                    # stash the terminal observation before the masked
                    # re-init below overwrites the row (gym convention)
                    info["terminal_observation"] = (
                        env.state_builder.build_terminal(sim)
                    )
                    infos[i] = info
                    # auto-reset = masked re-init of this member's row; the
                    # fresh episode opens at a decision point immediately
                    # (roots ready, all processors idle), no advance needed
                    env._reset_episode()
                candidates = env._decision_candidates()
                if candidates is not None:
                    procs[i], allow[i] = env._draw_proc(candidates)
                    continue
                if not sim.running.any():
                    raise RuntimeError(
                        "environment deadlock: nothing running and no decision "
                        "available — the ∅-action mask should prevent this"
                    )
                waiting.append(i)
            if waiting:
                # one fused event step for every member still waiting
                kernel.advance_rows(
                    np.asarray([self.envs[i]._row for i in waiting], dtype=np.int64)
                )
                for i in waiting:
                    self.envs[i]._after_advance()
            pending = waiting
        observations = build_observations(
            [env.state_builder for env in self.envs],
            [env.sim for env in self.envs],
            procs,
            allow,
        )
        for i, (env, ob) in enumerate(zip(self.envs, observations)):
            env._attach_embed_key(ob, procs[i])
            if dones[i]:
                env._current_obs = ob  # the reset episode's first decision
                continue
            result = env._finish_step(ob)
            rewards[i] = result.reward
            infos[i] = result.info
        if handle is not None:
            tracer.end(handle, passed=k - len(starts), done=int(dones.sum()))
        return VecStepResult(observations, rewards, dones, infos)
