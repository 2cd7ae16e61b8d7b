"""Differential tests of the batched observation builder.

``build_observations`` builds the members of one struct-of-arrays kernel in
one vectorised pass (``repro.sim.state._build_batch``); the contract is that
every member observation is bitwise what ``StateBuilder.build`` returns for
that member alone.  Hypothesis drives random mixes of graphs (several sizes
in one kernel, distinct graph objects of one structure), windows, adjacency
modes, noise, platforms and ∅ legality, and compares every field.  The
agent's batched glue is checked the same way: its batch fast path and its
block-slice path against the generic path over plain observations.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.graphs.random_dag import erdos_dag
from repro.graphs.taskgraph import TaskGraph
from repro.platforms import GaussianNoise, NoNoise, Platform
from repro.rl.agent import ReadysAgent
from repro.sim.engine import VecSimulation
from repro.sim.kernel import IDLE
from repro.sim.state import (
    BatchObservation,
    Observation,
    StateBuilder,
    build_observations,
)

SHARED = cholesky_dag(4)

#: member graph kinds: one shared object, a distinct object of the same
#: structure, smaller and random graphs (the kernel pads to the largest)
GRAPH_KINDS = ("shared", "twin", "small", "random")


def _graph(kind, rng):
    if kind == "shared":
        return SHARED
    if kind == "twin":
        return cholesky_dag(4)
    if kind == "small":
        return cholesky_dag(3)
    return erdos_dag(int(rng.integers(4, 30)), p=0.25, rng=rng)


def _drive(vec, rng, steps):
    """Random legal starts and fused advances, leaving members mid-episode."""
    kernel = vec.kernel
    for _ in range(steps):
        for row, sim in enumerate(vec.members):
            if sim.done:
                continue
            ready = np.flatnonzero(sim.ready)
            idle = np.flatnonzero(kernel.proc_task[row] == IDLE)
            for task, proc in zip(rng.permutation(ready), rng.permutation(idle)):
                if rng.random() < 0.6:
                    sim.start(int(task), int(proc))
        movable = [
            row for row, sim in enumerate(vec.members)
            if not sim.done and sim.running.any() and rng.random() < 0.7
        ]
        if movable:
            vec.advance(np.asarray(movable))


def _plant_outside_task(vec, rng):
    """Put a finished task on an idle processor: a busy processor whose task
    lies outside every window (both builders must skip its remaining time)."""
    kernel = vec.kernel
    for row, sim in enumerate(vec.members):
        finished = np.flatnonzero(sim.finished)
        idle = np.flatnonzero(kernel.proc_task[row] == IDLE)
        if finished.size and idle.size > 1 and rng.random() < 0.5:
            proc = int(idle[-1])
            kernel.proc_task[row, proc] = int(finished[0])
            kernel.proc_finish[row, proc] = kernel.time[row] + 1.0


def _adjacency_parts(adj):
    if isinstance(adj, np.ndarray):
        return ("dense", adj)
    return ("csr", adj.data, adj.indices, adj.indptr, adj.shape)


def _assert_same(a, b):
    for x, y in zip(_adjacency_parts(a.norm_adj), _adjacency_parts(b.norm_adj)):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)
        else:
            assert x == y
    for name in ("features", "ready_positions", "ready_tasks", "proc_features"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert a.current_proc == b.current_proc
    assert a.allow_pass == b.allow_pass
    assert a.window_fingerprint == b.window_fingerprint


def _scenario(seed, kinds, window, sparse, noisy, platform, plant):
    rng = np.random.default_rng(seed)
    graphs = [_graph(kind, rng) for kind in kinds]
    noise = GaussianNoise(0.3) if noisy else NoNoise()
    vec = VecSimulation(graphs, platform, CHOLESKY_DURATIONS, noise, rng=seed)
    _drive(vec, rng, int(rng.integers(0, 12)))
    if plant:
        _plant_outside_task(vec, rng)
    live = [
        row for row, sim in enumerate(vec.members)
        if sim.ready.any() or sim.running.any()
    ]
    builders = [StateBuilder(CHOLESKY_DURATIONS, window, sparse=sparse)] * len(live)
    sims = [vec.members[row] for row in live]
    procs = [int(rng.integers(platform.num_processors)) for _ in live]
    allow = [(True, False, None)[int(rng.integers(3))] for _ in live]
    return rng, builders, sims, procs, allow


scenarios = st.fixed_dictionaries({
    "seed": st.integers(0, 100_000),
    "kinds": st.lists(st.sampled_from(GRAPH_KINDS), min_size=2, max_size=6),
    "window": st.integers(0, 3),
    "sparse": st.booleans(),
    "noisy": st.booleans(),
    # more than 7 processors takes the pairwise-sum mean path
    "platform": st.sampled_from([Platform(2, 2), Platform(1, 1), Platform(5, 4)]),
    "plant": st.booleans(),
})


@given(params=scenarios)
@settings(max_examples=120, deadline=None)
def test_batched_build_matches_per_member_build(params):
    _rng, builders, sims, procs, allow = _scenario(**params)
    built = build_observations(builders, sims, procs, allow)
    if len(sims) >= 2:
        assert all(type(ob) is BatchObservation for ob in built)
    for builder, sim, proc, allow_pass, ob in zip(builders, sims, procs, allow, built):
        _assert_same(ob, builder.build(sim, proc, allow_pass=allow_pass))


def _plain(ob):
    return pickle.loads(pickle.dumps(ob))


def _assert_glue_equal(got, want):
    assert got.batch == want.batch
    assert got.sizes == want.sizes
    for name in (
        "feats", "graph_ids", "num_ready", "ready_rows", "pass_idx",
        "num_actions", "action_offsets", "perm",
    ):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    if want.proc_stack is None:
        assert got.proc_stack is None
    else:
        assert np.array_equal(got.proc_stack, want.proc_stack)
    for name in ("data", "indices", "indptr"):
        x, y = getattr(got.adj, name), getattr(want.adj, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert got.adj.shape == want.adj.shape


def _decision_batch(params):
    """A batch of decision points (every member has a ready task)."""
    rng, builders, sims, procs, allow = _scenario(**params)
    keep = [i for i, sim in enumerate(sims) if sim.ready.any()]
    built = build_observations(
        [builders[i] for i in keep], [sims[i] for i in keep],
        [procs[i] for i in keep], [allow[i] for i in keep],
    )
    return rng, built


@given(params=scenarios)
@settings(max_examples=60, deadline=None)
def test_batch_glue_paths_match_generic_path(params):
    rng, built = _decision_batch(params)
    if len(built) < 2:
        return
    generic = ReadysAgent._batch_glue([_plain(ob) for ob in built])
    # fast path: the batch's members in order reuse the batch arrays
    fast = ReadysAgent._batch_glue(built)
    assert fast.feats is built[0]._batch.features
    _assert_glue_equal(fast, generic)
    # slice path: a reordered subset (and a repeat) concatenates block slices
    picks = list(rng.permutation(len(built))[: max(2, len(built) - 1)]) + [0]
    subset = [built[int(i)] for i in picks]
    _assert_glue_equal(
        ReadysAgent._batch_glue(subset),
        ReadysAgent._batch_glue([_plain(ob) for ob in subset]),
    )


def test_glue_slice_path_across_batches():
    """Member-major lists mixing several batches (an update's unrolls)."""
    params = dict(
        seed=7, kinds=["shared", "twin", "small"], window=2, sparse=False,
        noisy=True, platform=Platform(2, 2), plant=False,
    )
    batches = [_decision_batch(dict(params, seed=s))[1] for s in range(7, 30)]
    batches = [b for b in batches if len(b) >= 2][:3]
    mixed = [ob for members in zip(*batches) for ob in members]
    assert len({id(ob._batch) for ob in mixed}) == 3
    _assert_glue_equal(
        ReadysAgent._batch_glue(mixed),
        ReadysAgent._batch_glue([_plain(ob) for ob in mixed]),
    )


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_pickle_round_trip_of_batch_observation(sparse):
    params = dict(
        seed=3, kinds=["shared", "twin", "random"], window=2, sparse=sparse,
        noisy=False, platform=Platform(2, 2), plant=False,
    )
    _rng, builders, sims, procs, allow = _scenario(**params)
    built = build_observations(builders, sims, procs, allow)
    ob = built[1]
    assert type(ob) is BatchObservation
    restored = pickle.loads(pickle.dumps(ob))
    # a plain observation: the batch does not ride along
    assert type(restored) is Observation
    assert not hasattr(restored, "_batch")
    _assert_same(restored, ob)
    _assert_same(restored, builders[1].build(sims[1], procs[1], allow_pass=allow[1]))


def test_lone_member_and_large_graphs_use_per_member_build(monkeypatch):
    params = dict(
        seed=11, kinds=["shared", "twin"], window=1, sparse=False,
        noisy=False, platform=Platform(2, 2), plant=False,
    )
    _rng, builders, sims, procs, allow = _scenario(**params)
    (lone,) = build_observations(builders[:1], sims[:1], procs[:1], allow[:1])
    assert type(lone) is Observation
    monkeypatch.setattr(StateBuilder, "_REACH_CACHE_MAX_NODES", 8)
    built = build_observations(builders, sims, procs, allow)
    assert all(type(ob) is Observation for ob in built)


def test_rows_of_different_feature_widths_use_per_member_build():
    """A graph with fewer task types has narrower features: no shared batch."""
    narrow = TaskGraph(4, [(0, 1), (0, 2), (2, 3)], [0, 1, 1, 0], ["a", "b"])
    vec = VecSimulation([SHARED, narrow], Platform(2, 2), CHOLESKY_DURATIONS, rng=0)
    builder = StateBuilder(CHOLESKY_DURATIONS, 2)
    built = build_observations([builder] * 2, vec.members, [0, 1], [True, None])
    assert built[0].features.shape[1] != built[1].features.shape[1]
    for sim, proc, allow_pass, ob in zip(vec.members, [0, 1], [True, None], built):
        assert type(ob) is Observation
        _assert_same(ob, builder.build(sim, proc, allow_pass=allow_pass))


@pytest.mark.parametrize("seed", range(6))
def test_descriptor_mean_over_eight_or_more_busy_processors(seed):
    """Eight or more busy processors: NumPy's sum turns pairwise there, and
    the batched descriptor mean must follow it bitwise."""
    rng = np.random.default_rng(seed)
    graphs = [erdos_dag(48, p=0.04, rng=rng) for _ in range(3)]
    platform = Platform(6, 6)
    vec = VecSimulation(graphs, platform, CHOLESKY_DURATIONS, GaussianNoise(0.4), rng=seed)
    widest = 0
    for _ in range(3):
        for row, sim in enumerate(vec.members):
            ready = np.flatnonzero(sim.ready)
            idle = np.flatnonzero(vec.kernel.proc_task[row] == IDLE)
            for task, proc in zip(ready, idle):
                sim.start(int(task), int(proc))
        widest = max(widest, int((vec.kernel.proc_task != IDLE).sum(axis=1).max()))
        vec.advance(np.asarray([0]))
    assert widest >= 8
    sims = [sim for sim in vec.members if sim.ready.any() or sim.running.any()]
    builder = StateBuilder(CHOLESKY_DURATIONS, 2)
    procs = [0] * len(sims)
    built = build_observations([builder] * len(sims), sims, procs, [True] * len(sims))
    for sim, ob in zip(sims, built):
        _assert_same(ob, builder.build(sim, 0, allow_pass=True))
