"""Structural batched inference plans (``InferenceCompiler.run_batch``).

Batched no-grad forwards run the fused forward program the compiled
training step uses.  Plans are keyed on structure alone — batch size,
feature width, whether any member may pass — so batches whose members
differ in node and ready counts share one plan, and each key's first result
is checked bitwise against the reference forward before it is trusted.
"""

import numpy as np
import pytest

from repro.nn import no_grad
from repro.rl.agent import ReadysAgent
from repro.rl.trainer import agent_config_for_spec
from repro.sim.engine import Simulation
from repro.sim.state import StateBuilder
from repro.spec import ExperimentSpec

# counter assertions assume captures are not refused under anomaly mode
pytestmark = pytest.mark.no_auto_anomaly

SPEC = ExperimentSpec(kernel="cholesky", tiles=5, seed=3)


def make_agent(seed=0):
    return ReadysAgent(agent_config_for_spec(SPEC), rng=seed)


def observations(allow_pass=None, limit=24):
    """Decision points of one random episode (their window sizes vary)."""
    graph, platform, durations, noise = SPEC.make_instance()
    sim = Simulation(graph, platform, durations, noise, rng=5)
    builder = StateBuilder(durations, 2)
    rng = np.random.default_rng(9)
    out = []
    while not sim.done and len(out) < limit:
        ready, idle = sim.ready_tasks(), sim.idle_processors()
        if ready.size and idle.size:
            obs = builder.build(sim, int(idle[0]), allow_pass=allow_pass)
            if len(obs.ready_positions):
                out.append(obs)
            sim.start(int(rng.choice(ready)), int(idle[0]))
        else:
            sim.advance()
    return out


def batches(obs, size):
    return [obs[i:i + size] for i in range(0, len(obs) - size + 1, size)]


class TestStructuralKeys:
    def test_varying_node_counts_share_one_plan(self):
        agent = make_agent()
        groups = batches(observations(), 3)
        assert len({tuple(o.num_nodes for o in g) for g in groups}) > 1
        ref = [agent.action_distributions(g, compiled=False) for g in groups]
        ref_values = [agent.state_values(g, compiled=False) for g in groups]
        agent.enable_compiled()
        for g, want, want_v in zip(groups, ref, ref_values):
            for got, expected in zip(agent.action_distributions(g), want):
                np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(agent.state_values(g), want_v)
        stats = agent.compile_stats()
        assert stats["plan_misses"] == 1  # one key: (3, width, may pass)
        assert stats["plan_hits"] == 2 * len(groups) - 1
        assert stats["validation_failures"] == 0 and stats["fallbacks"] == 0

    def test_pass_legality_is_part_of_the_key(self):
        agent = make_agent()
        with_pass = batches(observations(), 2)[:3]
        without = batches(observations(allow_pass=False), 2)[:3]
        ref = [agent.greedy_actions(g, compiled=False) for g in with_pass + without]
        agent.enable_compiled()
        got = [agent.greedy_actions(g) for g in with_pass + without]
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
        assert agent.compile_stats()["plan_misses"] == 2

    def test_float32_engine_keeps_batches_float64(self):
        agent = make_agent()
        group = batches(observations(), 4)[0]
        ref = agent.state_values(group, compiled=False)
        agent.enable_compiled(dtype="float32")
        for _ in range(2):  # first use, then replay
            values = agent.state_values(group)
            assert values.dtype == np.float64
            np.testing.assert_array_equal(values, ref)


class TestDemotion:
    def test_mismatch_demotes_key_to_reference(self):
        agent = make_agent()
        engine = agent.enable_compiled()
        group = batches(observations(), 2)[0]
        glue = agent._batch_glue(group)

        def skewed():
            logits, values = agent._forward_batch_tensors(glue)
            return logits + 1.0, values

        with no_grad():
            logits, _ = engine.run_batch(agent, glue, skewed)
            expected = skewed()[0].data
            np.testing.assert_array_equal(logits, expected)
            # demoted for good: the reference answers every later call
            again, _ = engine.run_batch(agent, glue, skewed)
            np.testing.assert_array_equal(again, expected)
        stats = engine.stats_dict()
        assert list(engine._demoted.values()) == [
            "logits differ from the reference forward"
        ]
        assert stats["validation_failures"] == 1
        assert stats["fallbacks"] == 1 and stats["plan_hits"] == 0

    def test_grad_mode_falls_back(self):
        agent = make_agent()
        engine = agent.enable_compiled()
        group = batches(observations(), 2)[0]
        glue = agent._batch_glue(group)
        logits, values = engine.run_batch(
            agent, glue, lambda: agent._forward_batch_tensors(glue)
        )
        assert engine.stats.fallbacks == 1 and engine.stats.plan_misses == 0
        assert logits.shape == (int(glue.action_offsets[-1]),)
        assert values.shape == (2,)
