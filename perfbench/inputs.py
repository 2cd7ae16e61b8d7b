"""Seeded inputs of the eval and serve workloads, generated before timing.

``python3 perfbench/inputs.py eval <seed> <out_dir> <agent index>...`` and
``python3 perfbench/inputs.py serve <seed> <out_dir>`` (with ``src`` on
``PYTHONPATH``) write, from the workload seed alone, the inputs of one
workload (the eval agents can be split over processes by index):

* eval: ``eval-agent-<i>.npz`` — ``EVAL_AGENTS`` agents behaviour-cloned to
  the ``mct_expert`` heuristic on the eval workload's streaming environment;
* serve: ``serve-agent.npz`` — one agent cloned the same way on Cholesky T=6;
* ``serve-stream.json`` — the decision points of greedy Cholesky T=6
  episodes under that agent, each as the encoded body of a ``decide``
  request, with the in-process ``AgentPolicy`` answer and the slowdown
  (makespan / HEFT) of the recorded episodes.

Untrained agents are unusable as inputs: the decision count and quality of
an episode then swing by an order of magnitude between seeds.  Cloning a
heuristic for a few hundred supervised steps gives every seed an agent of
similar quality in about two seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

from worker import eval_spec

EVAL_AGENTS = 6
EXPERT_STEPS = 768
EXPERT_EPOCHS = 3
SERVE_EPISODES = 4


def serve_spec(seed: int):
    from repro.spec import ExperimentSpec

    return ExperimentSpec.from_dict({
        "workload": {
            "name": "single", "kernel": "cholesky", "tiles": 6,
            "noise": "gaussian", "sigma": 0.2,
        },
        "cpus": 2, "gpus": 2, "window": 2, "seed": seed,
    })


def expert(obs) -> int:
    """``mct_expert`` on the base feature layout.

    The expert reads its columns from the end of the base layout, so the
    job-attribution columns a streaming observation appends are cut first.
    """
    from repro.rl.imitation import mct_expert

    extra = obs.extra_node_features
    if extra:
        obs = dataclasses.replace(obs, features=obs.features[:, :-extra])
    return mct_expert(obs)


def cloned_agent(spec, seed: int):
    from repro.rl.imitation import behaviour_clone, collect_expert_decisions
    from repro.rl.trainer import default_agent

    env = spec.make_env()
    agent = default_agent(env, rng=seed)
    dataset = collect_expert_decisions(env, expert, EXPERT_STEPS)
    behaviour_clone(agent, dataset, epochs=EXPERT_EPOCHS, rng=seed)
    return agent


class Recorder:
    """``AgentPolicy`` that records each decision point it answers."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.bodies = []
        self.actions = []

    def decide(self, obs) -> int:
        from repro.policy.codec import DecisionRequest, encode_request

        action = self.policy.decide(obs)
        payload = encode_request(DecisionRequest(session="-", seq=0, obs=obs))
        del payload["session"], payload["seq"]
        # the body of a decide frame without its opening brace; the load
        # generator prefixes op, session and seq
        self.bodies.append(json.dumps(payload, separators=(",", ":"))[1:])
        self.actions.append(int(action))
        return action


def generate_eval(seed: int, out_dir: str, indices) -> None:
    from repro.rl.transfer import save_agent

    for i in indices:
        agent_seed = seed * 1000 + 500 + i
        agent = cloned_agent(eval_spec(agent_seed), agent_seed)
        save_agent(agent, os.path.join(out_dir, f"eval-agent-{i}.npz"))


def generate_serve(seed: int, out_dir: str, indices=()) -> None:
    from repro.policy import AgentPolicy, evaluate_policy
    from repro.rl.transfer import save_agent

    spec = serve_spec(seed * 1000 + 900)
    agent = cloned_agent(spec, seed * 1000 + 900)
    save_agent(agent, os.path.join(out_dir, "serve-agent.npz"))
    recorder = Recorder(AgentPolicy(agent))
    records = evaluate_policy(
        spec.make_env(), recorder, episodes=SERVE_EPISODES, seed=seed * 1000 + 901
    )
    slowdowns = [r.makespan / r.heft_makespan for r in records]
    with open(os.path.join(out_dir, "serve-stream.json"), "w") as fh:
        json.dump({
            "bodies": recorder.bodies,
            "actions": recorder.actions,
            "slowdown_mean": sum(slowdowns) / len(slowdowns),
        }, fh)


if __name__ == "__main__":
    part, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    os.makedirs(out_dir, exist_ok=True)
    indices = [int(i) for i in sys.argv[4:]]
    {"eval": generate_eval, "serve": generate_serve}[part](seed, out_dir, indices)
