"""One round of a train or eval workload, run in a fresh interpreter.

``python3 perfbench/worker.py '<json config>'`` (with ``src`` on
``PYTHONPATH``).  The process prints ``SETUP`` as soon as set-up is over
(the first unroll+update cycle has finished, or the first decision has been
answered), so the parent can time set-up from process launch, interpreter
start and imports included.  Its last line is one JSON object with the
round's measurements, digests and output checks.

With ``"trace": true`` the layer spans of :mod:`spans` are installed before
the work starts, and the result carries their totals.

Between units of work (cycles, episodes), never inside one, the process
sets a host-speed mark (:mod:`hostspeed`).  ``samples_ms`` and ``steady_s``
are at reference speed, each unit scaled by the marks around it;
``first_mark`` is the mark right after set-up, and ``host_slowdown`` the
median mark, by which the parent scales the raw ``wall_s`` and span totals.
Probe time is left out of every duration.

``python3 perfbench/worker.py warm`` builds the C fusion core (untimed).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from typing import Any, Dict, List

from hostspeed import HostSpeed
from serve_load import peak_rss_mb

clock = time.perf_counter

#: A2C unroll of the ROADMAP baseline cell
UNROLL = 20
NUM_ENVS = 8


def train_spec(seed: int, compiled: bool):
    from repro.spec import ExperimentSpec

    data: Dict[str, Any] = {
        "workload": {
            "name": "single", "kernel": "cholesky", "tiles": 6,
            "noise": "gaussian", "sigma": 0.2,
        },
        "cpus": 2, "gpus": 2, "window": 2, "num_envs": NUM_ENVS, "seed": seed,
    }
    if compiled:
        data.update(compiled=True, compiled_train=True)
    return ExperimentSpec.from_dict(data)


def eval_spec(seed: int):
    from repro.spec import ExperimentSpec

    return ExperimentSpec.from_dict({
        "workload": {
            "name": "mixed-families", "families": ["cholesky", "lu", "qr"],
            "tile_choices": [4, 5, 6], "noise": "gaussian", "sigma": 0.2,
            "arrival": "poisson", "rate": 0.005, "num_jobs": 6,
        },
        "cpus": 2, "gpus": 2, "window": 2, "seed": seed,
    })


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def weight_digest(agent) -> str:
    digest = hashlib.sha256()
    for _name, param in agent.named_parameters():
        digest.update(param.data.tobytes())
    return digest.hexdigest()[:16]


def fusion_loaded() -> int:
    """1 if the C fusion core loads (building it on first use), else 0."""
    # the benchmark reports whether the C core loads, like benchmarks/
    from repro.nn import fusion  # repro-lint: disable=RPR008

    return int(fusion.load() is not None)


def signal_setup() -> None:
    print("SETUP", flush=True)


# --------------------------------------------------------------------- #
# train
# --------------------------------------------------------------------- #


def run_train(spec, cycles: int, compiled: bool, on_setup=None) -> Dict[str, Any]:
    from repro.rl.a2c import A2CConfig
    from repro.rl.trainer import ReadysTrainer

    started = clock()
    trainer = ReadysTrainer.from_spec(spec, config=A2CConfig(unroll_length=UNROLL))
    trainer.train_updates(1)
    if on_setup is not None:
        on_setup()
    speed = HostSpeed()
    speed.mark()
    cycle_s: List[float] = []
    rss = [rss_mb()]
    for _ in range(cycles - 1):
        t0 = clock()
        trainer.train_updates(1)
        cycle_s.append(clock() - t0)
        rss.append(rss_mb())
        speed.mark()
    ended = clock()
    result = trainer.result
    losses = [
        v for s in result.update_stats
        for v in (s.policy_loss, s.value_loss, s.entropy)
    ]
    heft = float(trainer.env.baseline_makespan)
    makespans = [float(m) for m in result.episode_makespans]
    infer_stats = trainer.agent.compile_stats()
    train_stats = trainer.updater.train_compile_stats()
    infer = infer_stats or {}
    train = train_stats or {}
    out = {
        "wall_s": ended - started - speed.spent,
        "steady_s": speed.steady_s(),
        "first_mark": speed.marks[0],
        "host_slowdown": speed.slowdown(),
        "attempted": cycles,
        "decisions": NUM_ENVS * UNROLL * (cycles - 1),
        "samples_ms": [1e3 * s / speed.between(i) for i, s in enumerate(cycle_s)],
        "rss_mb": rss,
        "digest": weight_digest(trainer.agent),
        "slowdowns": [m / heft for m in makespans],
        "checks": {
            "losses_finite": all(math.isfinite(v) for v in losses),
            "makespans_positive_finite": all(
                math.isfinite(m) and m > 0 for m in makespans
            ),
            "episodes_finished": len(makespans) > 0,
        },
        "compile": {
            "infer_hit_rate": float(infer.get("hit_rate", 0.0)),
            "infer_evictions": float(infer.get("plan_evictions", 0.0)),
            "infer_arena_mb": float(infer.get("arena_bytes", 0.0)) / 2**20,
            "train_hit_rate": float(train.get("hit_rate", 0.0)),
            "train_fallbacks": float(train.get("fallbacks", 0.0)),
            "train_arena_mb": float(train.get("arena_bytes", 0.0)) / 2**20,
        },
    }
    if compiled:
        # the workload exists to measure the capture/replay engines: both
        # must be on and the training step must have replayed
        out["checks"]["compiled_engines_ran"] = (
            infer_stats is not None and train_stats is not None
            and float(train.get("hit_rate", 0.0)) > 0.0
        )
    return out


# --------------------------------------------------------------------- #
# eval
# --------------------------------------------------------------------- #


class TimedPolicy:
    """Times each ``decide`` of the wrapped policy; signals after the first.

    A host-speed mark follows the first decision and opens every later
    episode (between the environment's reset and its first decision); the
    caller closes the last episode with one more mark.  Each sample keeps
    the index of the mark before it.
    """

    def __init__(self, policy, on_first=None) -> None:
        self.policy = policy
        self.on_first = on_first
        self.samples: List[float] = []
        self.windows: List[int] = []
        self.speed = HostSpeed()

    def reset(self) -> None:
        if self.samples:
            self.speed.mark()
        inner = getattr(self.policy, "reset", None)
        if callable(inner):
            inner()

    def decide(self, obs) -> int:
        t0 = clock()
        action = self.policy.decide(obs)
        self.samples.append(clock() - t0)
        self.windows.append(len(self.speed.marks) - 1)
        if len(self.samples) == 1:
            if self.on_first is not None:
                self.on_first()
            self.speed.mark()
        return action


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def check_streaming_record(rec, num_jobs: int) -> Dict[str, bool]:
    jcts, slows, arrivals = rec.jcts, rec.slowdowns, rec.arrivals
    n = len(jcts)
    ideals = [j / s for j, s in zip(jcts, slows)] if n else []
    return {
        "all_jobs_finish": (
            rec.num_jobs == num_jobs and n == num_jobs
            and len(slows) == n and len(arrivals) == n
        ),
        "jct_positive_finite": all(math.isfinite(j) and j > 0 for j in jcts),
        "slowdown_positive_finite": all(
            math.isfinite(s) and s > 0 for s in slows
        ),
        "mean_jct_identity": n > 0 and _close(rec.mean_jct, sum(jcts) / n),
        "mean_slowdown_identity": n > 0 and _close(
            rec.mean_slowdown, sum(slows) / n
        ),
        # slowdown_j = jct_j / ideal_j and the record's heft_makespan is the
        # sum of the per-job ideals
        "ideal_sum_identity": _close(sum(ideals), rec.heft_makespan),
        "makespan_identity": n > 0 and _close(
            max(a + j for a, j in zip(arrivals, jcts)), rec.makespan
        ),
    }


def run_eval(spec, agent_path: str, episodes: int, episode_seed: int,
             num_jobs: int, on_setup=None) -> Dict[str, Any]:
    from repro.policy import AgentPolicy, evaluate_streaming
    from repro.rl.transfer import load_agent

    started = clock()
    env = spec.make_env()
    policy = TimedPolicy(AgentPolicy(load_agent(agent_path)), on_setup)
    records = evaluate_streaming(env, policy, episodes=episodes, seed=episode_seed)
    speed = policy.speed
    speed.mark()
    ended = clock()
    checks: Dict[str, bool] = {}
    failed = 0
    for rec in records:
        rec_checks = check_streaming_record(rec, num_jobs)
        failed += not all(rec_checks.values())
        for name, ok in rec_checks.items():
            checks[name] = checks.get(name, True) and ok
    digest = hashlib.sha256()
    for rec in records:
        digest.update(json.dumps(rec.actions).encode())
    out = {
        "wall_s": ended - started - speed.spent,
        "steady_s": speed.steady_s(),
        "first_mark": speed.marks[0],
        "host_slowdown": speed.slowdown(),
        "decisions": len(policy.samples) - 1,
        "samples_ms": [
            1e3 * s / speed.between(w)
            for s, w in zip(policy.samples[1:], policy.windows[1:])
        ],
        "digest": digest.hexdigest()[:16],
        "slowdowns": [s for rec in records for s in rec.slowdowns],
        "attempted": len(records),
        "failed": failed,
        "checks": checks,
    }
    return out


# --------------------------------------------------------------------- #
# layer spans of the traced phase
# --------------------------------------------------------------------- #


def _one(args, kwargs, result) -> float:
    return 1.0


def _batch(args, kwargs, result) -> float:
    return float(len(args[1]))


def _built(args, kwargs, result) -> float:
    return float(len(result))


class Traffic:
    """Observation sizes seen by the agent (node count, jobs in window)."""

    def __init__(self) -> None:
        self.observations = 0
        self.nodes = 0
        self.jobs = 0

    def add(self, obs) -> None:
        self.observations += 1
        self.nodes += obs.features.shape[0]
        extra = getattr(obs, "extra_node_features", 0)
        if extra and obs.features.shape[0]:
            self.jobs += len(set(obs.features[:, -extra].tolist()))
        else:
            self.jobs += 1

    def single(self, args, kwargs, result) -> None:
        self.add(args[1])

    def batch(self, args, kwargs, result) -> None:
        for obs in args[1]:
            self.add(obs)


def install_spans(recorder, traffic: Traffic) -> None:
    """Wrap the public functions of every timed layer (see README)."""
    import repro.nn.layers as nn_layers
    import repro.nn.sparse as nn_sparse
    import repro.rl.agent as rl_agent
    import repro.sim.env as sim_env
    import repro.sim.state as sim_state
    import repro.sim.streaming as sim_streaming
    import repro.sim.vec_env as sim_vec_env
    from repro.nn.optim import Adam
    from repro.rl.a2c import A2CUpdater
    from repro.rl.agent import ReadysAgent
    from repro.rl.trainer import ReadysTrainer

    wrap = recorder.wrap
    wrap(sim_vec_env.VecSchedulingEnv, "step", "sim.step")
    wrap(sim_env.SchedulingEnv, "step", "sim.step")
    wrap(sim_vec_env.VecSchedulingEnv, "reset", "sim.reset")
    wrap(sim_env.SchedulingEnv, "reset", "sim.reset")
    wrap(sim_streaming.StreamingSchedulingEnv, "reset", "sim.reset")
    wrap(sim_state.StateBuilder, "build", "sim.state", count=_one)
    wrap(sim_state.StateBuilder, "build_many", "sim.state", count=_built)
    wrap(sim_state.StateBuilder, "build_terminal", "sim.state")
    wrap(sim_state, "build_observations", "sim.state", count=_built)
    wrap(sim_vec_env, "build_observations", "sim.state", count=_built)
    wrap(sim_streaming.JobStateBuilder, "build", "sim.state", count=_one)
    wrap(sim_streaming.JobStateBuilder, "build_terminal", "sim.state")
    wrap(rl_agent, "block_diag_adjacency_sparse", "nn.sparse.block_diag")
    wrap(sim_state, "gcn_normalize_adjacency", "nn.gcn_normalize")
    wrap(nn_layers, "gcn_normalize_adjacency", "nn.gcn_normalize")
    # state.py imports the sparse variant lazily from its module
    wrap(nn_sparse, "gcn_normalize_adjacency_sparse", "nn.gcn_normalize")
    wrap(Adam, "step", "nn.optim.step")
    wrap(Adam, "step_flat", "nn.optim.step")
    wrap(ReadysTrainer, "_collect_unrolls", "rl.unroll")
    wrap(ReadysAgent, "sample_actions", "rl.agent.forward", count=_batch,
         observe=traffic.batch)
    wrap(ReadysAgent, "state_values", "rl.agent.forward", count=_batch)
    wrap(ReadysAgent, "greedy_actions", "rl.agent.forward", count=_batch,
         observe=traffic.batch)
    wrap(ReadysAgent, "greedy_action", "rl.agent.forward", count=_one,
         observe=traffic.single)
    wrap(A2CUpdater, "update_batch", "rl.a2c.update")
    wrap(sim_env, "heft_makespan", "schedulers.heft")
    wrap(sim_streaming, "heft_makespan", "schedulers.heft")


# --------------------------------------------------------------------- #


def install(run, *args) -> Dict[str, Any]:
    """Run ``run(*args)`` with layer spans installed; adds their totals."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    traffic = Traffic()
    install_spans(recorder, traffic)
    result = run(*args)
    result["spans"] = recorder.to_dict()
    result["covered_s"] = recorder.covered()
    result["traffic"] = vars(traffic)
    return result


def main(argv: List[str]) -> int:
    if argv == ["warm"]:
        fusion_loaded()
        print(json.dumps({}), flush=True)
        return 0
    cfg = json.loads(argv[0])
    if cfg["kind"] == "train":
        spec = train_spec(cfg["seed"], cfg["compiled"])
        run, args = run_train, (spec, cfg["cycles"], cfg["compiled"])
    else:
        spec = eval_spec(cfg["seed"])
        run, args = run_eval, (
            spec, cfg["agent"], cfg["episodes"], cfg["episode_seed"],
            spec.workload.num_jobs,
        )
    if cfg["trace"]:
        out = install(run, *args, signal_setup)
    else:
        out = run(*args, signal_setup)
    out["peak_rss_mb"] = peak_rss_mb("self")
    out["fusion_loaded"] = fusion_loaded()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
