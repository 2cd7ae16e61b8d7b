"""Compiled training keeps bounded memory (a leak the value suites miss).

The bitwise parity suites compare values only, so an engine that allocates
fresh buffers whenever a batch's node count changes passes them while its
arena grows by megabytes per update.  This test runs 200 compiled A2C
updates at K=8 on Cholesky T=6 windows with both engines on and checks that
their plan memory has levelled off over the second 100 updates and that the
batched inference plans are actually reused.
"""

import pytest

from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.spec import ExperimentSpec

# counter assertions assume captures are not refused under anomaly mode
pytestmark = pytest.mark.no_auto_anomaly

SPEC = ExperimentSpec(
    kernel="cholesky", tiles=6, seed=0, num_envs=8,
    compiled=True, compiled_train=True,
)

#: growth allowed over the second 100 updates: a rare new high-water node
#: count may still enlarge a slab by one capacity class; the leak this
#: guards against doubled the arenas over the same span
PLATEAU_TOLERANCE = 0.05


def test_arenas_plateau_over_200_compiled_updates():
    trainer = ReadysTrainer.from_spec(SPEC, config=A2CConfig(unroll_length=4))
    trainer.train_updates(100)
    level = {
        "infer": trainer.agent.compile_stats()["arena_bytes"],
        "train": trainer.updater.train_compile_stats()["arena_bytes"],
    }
    peak = dict(level)
    for _ in range(100):
        trainer.train_updates(1)
        peak["infer"] = max(peak["infer"], trainer.agent.compile_stats()["arena_bytes"])
        peak["train"] = max(
            peak["train"], trainer.updater.train_compile_stats()["arena_bytes"]
        )
    for engine in ("infer", "train"):
        assert level[engine] > 0
        assert peak[engine] <= level[engine] * (1 + PLATEAU_TOLERANCE), (
            f"{engine} arena grew from {level[engine]} to {peak[engine]} bytes "
            "over the second 100 updates"
        )
    infer = trainer.agent.compile_stats()
    assert infer["hit_rate"] >= 0.9, infer
    assert infer["validation_failures"] == 0
    train = trainer.updater.train_compile_stats()
    assert train["fallbacks"] == 0 and train["validation_failures"] == 0
