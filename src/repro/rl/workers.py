"""Multiprocess rollout workers: the step past the single-process ceiling.

PR 1's vectorised stack tops out at ~1.3× unroll+update throughput in one
process — batching shrinks the *network* cost but every simulator step still
runs on one core.  (The struct-of-arrays kernel has since fused the
simulator stepping itself — see DESIGN.md §11 and BENCH_sim.json — which
each worker's vec env now uses transparently; processes remain the lever
for the network-dominated remainder.)  READYS training is embarrassingly
parallel across episodes, so :class:`ParallelRolloutTrainer` fans rollouts
across N OS processes, Decima-style:

* each **worker process** owns a seeded :class:`~repro.sim.vec_env.VecSchedulingEnv`
  (K members) plus an agent replica, collects ``unroll_length`` transitions
  per member under the current policy, and ships the trajectories back over a
  pipe;
* the **parent** broadcasts parameters before every round as
  :func:`~repro.nn.serialization.state_dict_to_bytes` payloads (pure-array
  ``.npz``, no pickled code), gathers the N·K unrolls **rank-ordered**, and
  applies one batched A2C update.

Determinism: given ``(seed, num_workers)`` the run is reproducible.  Worker
rank r draws its streams from child r of the single root
:class:`~numpy.random.SeedSequence` (one sub-child per env member plus one
for action sampling), and aggregation is rank-ordered, so reordered message
arrival cannot reorder the update.

Fault tolerance: the parent watches each worker while waiting for its result
(liveness check every ``heartbeat_interval``, hang detection after
``rollout_timeout``); a crashed or hung worker is killed and respawned from
the last broadcast weights with a fresh seed-sequence generation, bounded by
``max_respawns`` per round with exponential backoff.  Training checkpoints
(:mod:`repro.rl.checkpoint`) freeze per-worker environment state over the
pipes, so ``--resume`` continues the learning curve exactly.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.nn.serialization import state_dict_from_bytes, state_dict_to_bytes
from repro.obs import clock as obs_clock
from repro.rl.a2c import A2CConfig, A2CUpdater, Transition
from repro.rl.agent import AgentConfig, ReadysAgent
from repro.rl.trainer import TrainResult, agent_config_for_spec, record_health
from repro.sim.state import Observation
from repro.sim.vec_env import VecSchedulingEnv
from repro.spec import ExperimentSpec
from repro.utils.seeding import as_generator

#: prefer fork where the OS offers it — workers inherit the imported library
#: instead of re-importing it, which keeps (re)spawn latency low
_DEFAULT_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class WorkerPoolConfig:
    """Knobs of the rollout pool's process management and fault tolerance."""

    rollout_timeout: float = 120.0
    """seconds to wait for a worker's rollout before declaring it hung"""
    heartbeat_interval: float = 0.2
    """liveness-check cadence (seconds) while waiting on a worker pipe"""
    max_respawns: int = 3
    """respawn attempts per worker per request before giving up"""
    respawn_backoff: float = 0.25
    """base backoff (seconds) before a respawn, doubled per consecutive retry"""
    start_method: str = _DEFAULT_START_METHOD
    """multiprocessing start method ('fork' where available, else 'spawn')"""

    def __post_init__(self) -> None:
        if self.rollout_timeout <= 0:
            raise ValueError("rollout_timeout must be > 0")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.respawn_backoff < 0:
            raise ValueError("respawn_backoff must be >= 0")
        if self.start_method not in mp.get_all_start_methods():
            raise ValueError(
                f"start_method {self.start_method!r} not available; "
                f"this platform offers {mp.get_all_start_methods()}"
            )


@dataclass
class RolloutPayload:
    """One worker's contribution to one training round."""

    rank: int
    unrolls: List[List[Transition]]
    """per-member transition lists, member-ordered within the worker"""
    bootstraps: List[float]
    episode_ends: List[Tuple[int, int, float, float]]
    """(step, member, makespan, reward) of episodes finishing this round"""
    seconds: float
    """worker-side unroll duration (via the obs clock shim)"""


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #


def _collect_unrolls(
    vec_env: VecSchedulingEnv,
    agent: ReadysAgent,
    rng: np.random.Generator,
    unroll_length: int,
    pending: Optional[List[Observation]],
):
    """The trainer's time-major collection loop, free of trainer state."""
    k = vec_env.num_envs
    unrolls: List[List[Transition]] = [[] for _ in range(k)]
    episode_ends: List[Tuple[int, int, float, float]] = []
    observations = pending if pending is not None else vec_env.reset().obs
    for t in range(unroll_length):
        actions = agent.sample_actions(observations, rng)
        step = vec_env.step(actions)
        for i in range(k):
            unrolls[i].append(
                Transition(
                    observations[i],
                    int(actions[i]),
                    float(step.rewards[i]),
                    bool(step.dones[i]),
                )
            )
            if step.dones[i]:
                episode_ends.append(
                    (t, i, step.infos[i]["makespan"], float(step.rewards[i]))
                )
        observations = step.obs
    bootstraps = [0.0] * k
    open_members = [i for i in range(k) if not unrolls[i][-1].done]
    if open_members:
        values = agent.state_values([observations[i] for i in open_members])
        for i, v in zip(open_members, values):
            bootstraps[i] = float(v)
    return unrolls, bootstraps, episode_ends, observations


def _worker_main(
    rank: int,
    conn,
    spec_dict: dict,
    agent_config_dict: dict,
    unroll_length: int,
    seed_seq: np.random.SeedSequence,
) -> None:
    """Entry point of one rollout worker process.

    Commands over ``conn`` (tag, payload):
    ``("rollout", weights_bytes|None)`` → collect one unroll per member and
    reply ``("rollout", RolloutPayload)``; ``("get_state", None)`` /
    ``("set_state", bytes)`` freeze/restore the worker's environments and
    RNG streams for checkpointing; ``("stop", None)`` exits.  Any exception
    is reported as ``("error", traceback)`` — the parent treats those as
    bugs, not infrastructure faults.
    """
    # a forked worker inherits the parent's observability state; this process
    # must never write to the parent's trace/metrics sinks
    obs.TRACER.enabled = False
    obs.METRICS.enabled = False
    try:
        spec = ExperimentSpec.from_dict(spec_dict)
        children = seed_seq.spawn(spec.num_envs + 1)
        vec_env = VecSchedulingEnv(
            [
                spec.make_env(rng=as_generator(child))
                for child in children[: spec.num_envs]
            ]
        )
        sample_rng = as_generator(children[-1])
        agent = ReadysAgent(AgentConfig(**agent_config_dict), rng=0)
        if spec.compiled:
            # workers only run no-grad rollouts — exactly the compiled
            # surface; float64 replays keep them bit-identical to reference
            agent.enable_compiled(dtype=spec.compiled_dtype)
        pending: Optional[List[Observation]] = None
        while True:
            try:
                tag, payload = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to report to
            if tag == "rollout":
                if payload is not None:
                    agent.load_state_dict(state_dict_from_bytes(payload))
                started = obs_clock.now()
                unrolls, bootstraps, episode_ends, pending = _collect_unrolls(
                    vec_env, agent, sample_rng, unroll_length, pending
                )
                conn.send(
                    (
                        "rollout",
                        RolloutPayload(
                            rank=rank,
                            unrolls=unrolls,
                            bootstraps=bootstraps,
                            episode_ends=episode_ends,
                            seconds=obs_clock.now() - started,
                        ),
                    )
                )
            elif tag == "get_state":
                blob = pickle.dumps(
                    (vec_env, pending, sample_rng),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                conn.send(("state", blob))
            elif tag == "set_state":
                vec_env, pending, sample_rng = pickle.loads(payload)
                conn.send(("ok", None))
            elif tag == "stop":
                return
            else:
                raise ValueError(f"unknown worker command {tag!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass


# ---------------------------------------------------------------------- #
# parent-side pool
# ---------------------------------------------------------------------- #


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    rank: int
    process: Any
    conn: Any
    generation: int
    """how many times this rank has been (re)spawned, 0 for the original"""


class WorkerCrashError(RuntimeError):
    """A worker could not be kept alive within the respawn budget."""


class ParallelRolloutTrainer:
    """A2C trainer whose rollouts run in N worker processes.

    Exposes the same ``train_updates`` / ``result`` / ``agent`` /
    ``completed_updates`` surface as :class:`~repro.rl.trainer.ReadysTrainer`;
    :meth:`~repro.rl.trainer.ReadysTrainer.from_spec` dispatches here when
    ``spec.workers > 1``.  Use as a context manager (or call :meth:`close`)
    to tear the pool down deterministically.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        config: Optional[A2CConfig] = None,
        pool_config: Optional[WorkerPoolConfig] = None,
    ) -> None:
        self.spec = spec
        self.pool_config = pool_config if pool_config is not None else WorkerPoolConfig()
        self.num_workers = spec.workers
        self.rng = as_generator(spec.seed)
        self.agent = ReadysAgent(agent_config_for_spec(spec), rng=self.rng)
        self.updater = A2CUpdater(self.agent, config)
        if spec.compiled_train:
            # the update runs in this parent process (workers only roll out),
            # so the training compiler attaches to the parent-side updater
            self.updater.enable_compiled_train()
        self.result = TrainResult()
        self.respawn_count = 0
        self.fault_injector: Optional[Callable[[int, "ParallelRolloutTrainer"], None]] = None
        """test hook: called with (round_index, trainer) before each round —
        fault-injection tests SIGKILL a worker here"""
        self._ctx = mp.get_context(self.pool_config.start_method)
        self._root_seq = np.random.SeedSequence(spec.seed)
        self._worker_seqs = self._root_seq.spawn(self.num_workers)
        self.workers: List[Optional[WorkerHandle]] = [None] * self.num_workers

    # ------------------------------------------------------------------ #
    # construction / lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def from_spec(
        cls,
        spec: ExperimentSpec,
        config: Optional[A2CConfig] = None,
        pool_config: Optional[WorkerPoolConfig] = None,
    ) -> "ParallelRolloutTrainer":
        """Spec-first construction (mirrors ``ReadysTrainer.from_spec``)."""
        return cls(spec, config=config, pool_config=pool_config)

    @property
    def num_envs(self) -> int:
        """Total environments stepped per round = workers × members."""
        return self.num_workers * self.spec.num_envs

    @property
    def completed_updates(self) -> int:
        """Unroll+update cycles applied so far (the checkpoint ``step``)."""
        return len(self.result.update_stats)

    @property
    def started(self) -> bool:
        return any(handle is not None for handle in self.workers)

    def start(self) -> None:
        """Spawn the worker pool (idempotent; ``train_updates`` calls it)."""
        for rank in range(self.num_workers):
            if self.workers[rank] is None:
                self._spawn_worker(rank)
        self._record_alive()

    def close(self) -> None:
        """Stop every worker and release pipes (idempotent)."""
        for rank, handle in enumerate(self.workers):
            if handle is None:
                continue
            try:
                handle.conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2.0)
            handle.conn.close()
            self.workers[rank] = None

    def __enter__(self) -> "ParallelRolloutTrainer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #

    def _spawn_worker(self, rank: int, state: Optional[bytes] = None) -> WorkerHandle:
        """Start (or restart) rank ``rank``; optionally restore frozen state.

        Each (re)spawn consumes the next child of the rank's own seed
        sequence, so generation g of rank r is deterministic given
        ``(seed, num_workers)`` and the crash history.
        """
        old = self.workers[rank]
        generation = 0 if old is None else old.generation + 1
        seed_seq = self._worker_seqs[rank].spawn(1)[0]
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                rank,
                child_conn,
                self.spec.to_dict(),
                asdict(self.agent.config),
                self.updater.config.unroll_length,
                seed_seq,
            ),
            daemon=True,
            name=f"repro-rollout-{rank}",
        )
        process.start()
        child_conn.close()
        handle = WorkerHandle(rank, process, parent_conn, generation)
        self.workers[rank] = handle
        if state is not None:
            handle.conn.send(("set_state", state))
            self._await(rank, "ok", respawn_with_state=state)
        return handle

    def _kill_worker(self, rank: int) -> None:
        handle = self.workers[rank]
        if handle is None:
            return
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=2.0)
        handle.conn.close()

    def _respawn(self, rank: int, attempt: int, state: Optional[bytes]) -> None:
        """Replace a crashed/hung worker, with bounded exponential backoff."""
        if attempt >= self.pool_config.max_respawns:
            raise WorkerCrashError(
                f"worker {rank} failed {attempt + 1} times in one request; "
                f"respawn budget ({self.pool_config.max_respawns}) exhausted"
            )
        self._kill_worker(rank)
        backoff = self.pool_config.respawn_backoff * (2**attempt)
        if backoff > 0:
            time.sleep(min(backoff, 5.0))
        self.respawn_count += 1
        registry = obs.METRICS
        if registry.enabled:
            registry.counter("workers/respawns").inc()
        tracer = obs.TRACER
        if tracer.enabled:
            tracer.event("worker_respawn", rank=rank, attempt=attempt)
        self._spawn_worker(rank, state=state)

    def _await(
        self,
        rank: int,
        expect: str,
        resend: Optional[Tuple[str, Any]] = None,
        respawn_with_state: Optional[bytes] = None,
    ):
        """Wait for rank's reply; detect crashes/hangs and respawn.

        ``resend`` is re-issued to a respawned worker (the rollout request);
        ``respawn_with_state`` restores frozen state into the replacement
        first.  Worker-reported exceptions raise — a traceback is a bug to
        surface, not an infrastructure fault to retry.
        """
        cfg = self.pool_config
        slices = max(1, int(np.ceil(cfg.rollout_timeout / cfg.heartbeat_interval)))
        attempt = 0
        while True:
            handle = self.workers[rank]
            assert handle is not None, "await on a stopped worker"
            failure = "hung"
            for _ in range(slices):
                if handle.conn.poll(cfg.heartbeat_interval):
                    try:
                        tag, payload = handle.conn.recv()
                    except (EOFError, OSError):
                        failure = "crashed"
                        break
                    if tag == "error":
                        raise RuntimeError(
                            f"worker {rank} raised:\n{payload}"
                        )
                    if tag != expect:
                        raise RuntimeError(
                            f"worker {rank} sent {tag!r}, expected {expect!r}"
                        )
                    return payload
                if not handle.process.is_alive():
                    failure = "crashed"
                    break
            tracer = obs.TRACER
            if tracer.enabled:
                tracer.event("worker_failure", rank=rank, kind=failure)
            if resend is None and respawn_with_state is None:
                # e.g. a get_state exchange: the state died with the worker,
                # so a replacement has nothing valid to answer with
                raise WorkerCrashError(
                    f"worker {rank} {failure} during a non-retryable "
                    f"{expect!r} exchange"
                )
            self._respawn(rank, attempt, respawn_with_state)
            attempt += 1
            if resend is not None:
                new_handle = self.workers[rank]
                assert new_handle is not None
                new_handle.conn.send(resend)
            else:
                # set_state path: _spawn_worker already replayed the state
                # into the replacement and confirmed its "ok"
                return None

    def _record_alive(self) -> None:
        registry = obs.METRICS
        if registry.enabled:
            alive = sum(
                1
                for handle in self.workers
                if handle is not None and handle.process.is_alive()
            )
            registry.gauge("workers/alive").set(alive)

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def _one_round(self) -> None:
        """Broadcast → parallel rollouts → rank-ordered gather → one update."""
        tracer = obs.TRACER
        registry = obs.METRICS
        round_index = self.completed_updates
        if self.fault_injector is not None:
            self.fault_injector(round_index, self)
        update_handle = (
            tracer.begin("update", update=round_index) if tracer.enabled else None
        )
        weights = state_dict_to_bytes(self.agent.state_dict())
        request = ("rollout", weights)
        for handle in self.workers:
            assert handle is not None
            try:
                handle.conn.send(request)
            except (BrokenPipeError, OSError):
                pass  # picked up as a crash when its result is awaited
        unroll_handle = (
            tracer.begin("unroll", update=round_index) if tracer.enabled else None
        )
        payloads: List[RolloutPayload] = []
        for rank in range(self.num_workers):
            payload = self._await(rank, "rollout", resend=request)
            payloads.append(payload)
            if registry.enabled:
                registry.timer("workers/rollout_seconds", rank=rank).record(
                    payload.seconds
                )
        if unroll_handle is not None:
            tracer.end(unroll_handle)

        # episode bookkeeping is (step, rank, member)-ordered: the same
        # time-major order the in-process trainer uses, extended by rank
        ends = [
            (t, rank, member, makespan, reward)
            for rank, payload in enumerate(payloads)
            for (t, member, makespan, reward) in payload.episode_ends
        ]
        ends.sort(key=lambda e: (e[0], e[1], e[2]))
        for t, rank, member, makespan, reward in ends:
            self.result.episode_rewards.append(reward)
            self.result.episode_makespans.append(makespan)
            if tracer.enabled:
                tracer.event(
                    "episode_end",
                    episode=len(self.result.episode_makespans) - 1,
                    worker=rank,
                    member=member,
                    makespan=makespan,
                    reward=reward,
                )

        unrolls = [u for payload in payloads for u in payload.unrolls]
        bootstraps = [b for payload in payloads for b in payload.bootstraps]
        stats = self.updater.update_batch(unrolls, bootstraps)
        self.result.update_stats.append(stats)
        if update_handle is not None:
            tracer.end(
                update_handle,
                policy_loss=stats.policy_loss,
                value_loss=stats.value_loss,
                entropy=stats.entropy,
                grad_norm=stats.grad_norm,
            )
        if registry.enabled:
            registry.record(
                "train/policy_loss", stats.policy_loss, step=round_index
            )
            registry.record("train/value_loss", stats.value_loss, step=round_index)
            registry.record("train/entropy", stats.entropy, step=round_index)
            registry.record("train/grad_norm", stats.grad_norm, step=round_index)
            registry.record(
                "train/mean_return", stats.mean_return, step=round_index
            )
            record_health(registry, round_index, self.agent, self.updater)
        self._record_alive()

    def train_updates(
        self,
        num_updates: int,
        *,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ) -> TrainResult:
        """Run ``num_updates`` broadcast/rollout/update rounds.

        Checkpoint semantics match
        :meth:`repro.rl.trainer.ReadysTrainer.train_updates`: every
        ``checkpoint_every`` rounds (and after the last), the parent freezes
        model + optimizer + history *and* each worker's environment state
        into ``checkpoint_path``.
        """
        if num_updates < 0:
            raise ValueError("num_updates must be >= 0")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and not checkpoint_path:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        self.start()
        for i in range(num_updates):
            self._one_round()
            if checkpoint_every and (
                (i + 1) % checkpoint_every == 0 or i + 1 == num_updates
            ):
                self.save_checkpoint(checkpoint_path)
        return self.result

    def train_episodes(self, num_episodes: int) -> TrainResult:
        """Train until ``num_episodes`` additional episodes have completed."""
        if num_episodes < 0:
            raise ValueError("num_episodes must be >= 0")
        self.start()
        target = self.result.num_episodes + num_episodes
        while self.result.num_episodes < target:
            self._one_round()
        return self.result

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def save_checkpoint(self, path: str) -> None:
        """Freeze the run — including per-worker env state — to ``path``."""
        from repro.rl.checkpoint import save_checkpoint

        save_checkpoint(self.make_checkpoint(), path)

    def make_checkpoint(self):
        from repro.rl.checkpoint import (
            TrainingCheckpoint,
            _result_to_state,
        )

        self.start()
        worker_states: List[bytes] = []
        for rank in range(self.num_workers):
            handle = self.workers[rank]
            assert handle is not None
            handle.conn.send(("get_state", None))
            worker_states.append(self._await(rank, "state"))
        return TrainingCheckpoint(
            step=self.completed_updates,
            agent_config=asdict(self.agent.config),
            model_state={k: v.copy() for k, v in self.agent.state_dict().items()},
            optimizer_state=self.updater.optimizer.state_dict(),
            a2c_config=asdict(self.updater.config),
            result_state=_result_to_state(self.result),
            spec=self.spec.to_dict(),
            env_bundle=None,
            worker_states=worker_states,
            num_workers=self.num_workers,
        )

    @classmethod
    def _restore(cls, checkpoint) -> "ParallelRolloutTrainer":
        """Revive a pool from a checkpoint (via ``trainer_from_checkpoint``)."""
        from repro.rl.checkpoint import _result_from_state

        if checkpoint.spec is None:
            raise ValueError("parallel checkpoint is missing its spec")
        if not checkpoint.worker_states:
            raise ValueError("parallel checkpoint is missing worker states")
        spec = ExperimentSpec.from_dict(checkpoint.spec)
        if spec.workers != len(checkpoint.worker_states):
            raise ValueError(
                f"checkpoint froze {len(checkpoint.worker_states)} workers "
                f"but its spec says workers={spec.workers}"
            )
        trainer = cls(spec, config=A2CConfig(**checkpoint.a2c_config))
        trainer.agent.load_state_dict(checkpoint.model_state)
        trainer.updater.optimizer.load_state_dict(checkpoint.optimizer_state)
        trainer.result = _result_from_state(checkpoint.result_state)
        for rank, state in enumerate(checkpoint.worker_states):
            trainer._spawn_worker(rank, state=state)
        trainer._record_alive()
        return trainer

    @classmethod
    def from_checkpoint(cls, path: str) -> "ParallelRolloutTrainer":
        """Revive a pool trainer frozen by :meth:`save_checkpoint`."""
        from repro.rl.checkpoint import load_checkpoint, trainer_from_checkpoint

        trainer = trainer_from_checkpoint(load_checkpoint(path))
        if not isinstance(trainer, cls):
            raise TypeError(
                f"checkpoint {path!r} holds a {type(trainer).__name__}, "
                "not a parallel trainer"
            )
        return trainer
