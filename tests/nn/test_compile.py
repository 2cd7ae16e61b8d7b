"""Tests for the capture/replay inference engine (repro.nn.compile).

The engine's contract is strict: float64 replays must be **bit-identical**
to the reference autograd forward, float32 replays within a documented
tolerance, and every refusal path (grad enabled, anomaly mode, nested
capture, untraceable op) must fall back to the reference result exactly.

The whole module opts out of the CI anomaly sweep (``no_auto_anomaly``):
capture correctly refuses to run under anomaly mode, so the replay paths
under test would silently never execute.  The refusal itself is covered by
an explicit test below.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.nn import (
    BufferArena,
    InferenceCompiler,
    Tensor,
    detect_anomaly,
    functional as F,
    no_grad,
)
from repro.nn.compile import _Slabs
from repro.nn.layers import GCNStack, Linear, Parameter, gcn_normalize_adjacency
from repro.nn.sparse import gcn_normalize_adjacency_sparse

pytestmark = pytest.mark.no_auto_anomaly


def small_head(rng):
    """A Linear head plus its reference forward — enough ops to be a plan."""
    lin = Linear(4, 3, rng=rng)

    def run(x):
        return (lin(Tensor(x)).relu().sum(axis=0) * 2.0).exp()

    return lin, run


def fresh_inputs(rng, n=5):
    return rng.normal(size=(n, 4))


class TestBitIdentity:
    def test_float64_replay_bit_identical(self, rng):
        lin, run = small_head(rng)
        eng = InferenceCompiler()
        for trial in range(4):
            x = fresh_inputs(rng)
            with no_grad():
                ref = run(x).data.copy()
                (out,) = eng.run(("k", x.shape), lambda: (run(x),), {"x": x})
            np.testing.assert_array_equal(out, ref)
        assert eng.stats.plan_misses == 1
        assert eng.stats.plan_hits == 3
        assert eng.stats.replays == 3

    def test_inputs_rebind_not_baked(self, rng):
        # the input slot must be re-read per replay — two different arrays
        # through the same plan give two different (each exact) results
        lin, run = small_head(rng)
        eng = InferenceCompiler()
        a, b = fresh_inputs(rng), fresh_inputs(rng)
        with no_grad():
            eng.run(("k",), lambda: (run(a),), {"x": a})
            (out_b,) = eng.run(("k",), lambda: (run(b),), {"x": b})
            ref_b = run(b).data
        np.testing.assert_array_equal(out_b, ref_b)
        assert not np.array_equal(ref_b, run(a).data)

    def test_parameters_are_live_references(self, rng):
        # load_state_dict rebinds Parameter.data; replays must see the new
        # weights without recapturing
        lin, run = small_head(rng)
        eng = InferenceCompiler()
        x = fresh_inputs(rng)
        with no_grad():
            eng.run(("k",), lambda: (run(x),), {"x": x})
        state = {k: v * 0.5 for k, v in lin.state_dict().items()}
        lin.load_state_dict(state)
        with no_grad():
            (out,) = eng.run(("k",), lambda: (run(x),), {"x": x})
            ref = run(x).data
        np.testing.assert_array_equal(out, ref)
        assert eng.stats.plan_misses == 1  # no recapture happened

    def test_gcn_dense_and_sparse_paths(self, rng):
        gcn = GCNStack(4, 8, 2, rng=rng)
        adj01 = (rng.random((6, 6)) < 0.3).astype(np.float64)
        dense = gcn_normalize_adjacency(adj01)
        csr = gcn_normalize_adjacency_sparse(adj01)
        x = rng.normal(size=(6, 4))
        eng = InferenceCompiler()
        for name, adj in (("dense", dense), ("sparse", csr)):
            with no_grad():
                ref = gcn(Tensor(x), adj).data.copy()
                for _ in range(2):  # capture then replay
                    (out,) = eng.run(
                        (name,), lambda: (gcn(Tensor(x), adj),),
                        {"x": x, "adj": adj},
                    )
                    np.testing.assert_array_equal(out, ref)

    def test_outputs_are_borrowed_buffers(self, rng):
        # the same plan's next replay overwrites the previously returned
        # array — callers must copy, and the test pins that contract
        lin, run = small_head(rng)
        eng = InferenceCompiler()
        a, b = fresh_inputs(rng), fresh_inputs(rng)
        with no_grad():
            eng.run(("k",), lambda: (run(a),), {"x": a})
            (out1,) = eng.run(("k",), lambda: (run(a),), {"x": a})
            first = out1.copy()
            (out2,) = eng.run(("k",), lambda: (run(b),), {"x": b})
        assert out1 is out2
        assert not np.array_equal(first, out2)


class TestFloat32Mode:
    def test_float32_within_tolerance(self, rng):
        lin, run = small_head(rng)
        eng = InferenceCompiler(dtype="float32")
        x = fresh_inputs(rng)
        with no_grad():
            ref = run(x).data.copy()
            eng.run(("k",), lambda: (run(x),), {"x": x})  # capture
            (out,) = eng.run(("k",), lambda: (run(x),), {"x": x})
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_weight_cast_invalidated_by_state_dict_load(self, rng):
        lin, run = small_head(rng)
        eng = InferenceCompiler(dtype="float32")
        x = fresh_inputs(rng)
        with no_grad():
            eng.run(("k",), lambda: (run(x),), {"x": x})
            eng.run(("k",), lambda: (run(x),), {"x": x})  # warm the cast cache
        lin.load_state_dict({k: v * 2.0 for k, v in lin.state_dict().items()})
        with no_grad():
            (out,) = eng.run(("k",), lambda: (run(x),), {"x": x})
            ref = run(x).data
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError):
            InferenceCompiler(dtype="float16")


class TestRefusal:
    def test_grad_enabled_falls_back(self, rng):
        lin, run = small_head(rng)
        eng = InferenceCompiler()
        x = fresh_inputs(rng)
        out = eng.run(("k",), lambda: (run(x),), {"x": x})  # grad is on
        np.testing.assert_array_equal(out[0], run(x).data)
        assert eng.stats.fallbacks == 1
        assert eng.stats.plan_misses == 0  # no capture was attempted

    def test_anomaly_mode_falls_back(self, rng):
        lin, run = small_head(rng)
        eng = InferenceCompiler()
        x = fresh_inputs(rng)
        with no_grad(), detect_anomaly():
            (out,) = eng.run(("k",), lambda: (run(x),), {"x": x})
            np.testing.assert_array_equal(out, run(x).data)
        assert eng.stats.fallbacks == 1
        # and with anomaly off again, capture proceeds normally
        with no_grad():
            eng.run(("k",), lambda: (run(x),), {"x": x})
        assert eng.stats.plan_misses == 1

    def test_untraceable_op_marks_key_uncompilable(self, rng):
        # logsumexp bakes data-dependent constants — capture must refuse
        # and remember the key so later calls skip straight to fallback
        eng = InferenceCompiler()
        x = np.abs(fresh_inputs(rng)) + 0.5

        def run():
            return (F.logsumexp(Tensor(x) * 2.0),)

        with no_grad():
            ref = run()[0].data.copy()
            for _ in range(2):
                (out,) = eng.run(("k",), run, {"x": x})
                np.testing.assert_array_equal(out, ref)
        assert eng.stats.fallbacks == 2
        assert eng.stats.plan_misses == 1  # only the first call tried
        assert eng.stats.replays == 0

    def test_detach_taints_capture(self, rng):
        eng = InferenceCompiler()
        x = fresh_inputs(rng)

        def run():
            t = Tensor(x) * 3.0
            return (t.detach() + 1.0,)

        with no_grad():
            (out,) = eng.run(("k",), run, {"x": x})
            np.testing.assert_array_equal(out, run()[0].data)
        assert eng.stats.fallbacks == 1
        assert eng.stats.replays == 0

    def test_nested_capture_falls_back(self, rng):
        lin, run = small_head(rng)
        eng_outer, eng_inner = InferenceCompiler(), InferenceCompiler()
        x = fresh_inputs(rng)

        def nested():
            (inner,) = eng_inner.run(("i",), lambda: (run(x),), {"x": x})
            return (Tensor(inner.copy()) + 0.0,)

        with no_grad():
            eng_outer.run(("o",), nested, {"x": x})
        assert eng_inner.stats.fallbacks == 1  # refused inside outer capture


class TestPlanCacheAndArena:
    def test_lru_eviction_keeps_hot_plan(self, rng):
        lin, run = small_head(rng)
        eng = InferenceCompiler(max_plans=2)
        x = fresh_inputs(rng)
        with no_grad():
            eng.run(("a",), lambda: (run(x),), {"x": x})
            eng.run(("b",), lambda: (run(x),), {"x": x})
            eng.run(("a",), lambda: (run(x),), {"x": x})  # refresh a
            eng.run(("c",), lambda: (run(x),), {"x": x})  # evicts b, not a
        assert eng.stats.plan_evictions == 1
        assert ("a",) in eng._plans and ("c",) in eng._plans
        assert ("b",) not in eng._plans

    def test_evicted_buffers_return_to_arena(self, rng):
        # eviction returns a plan's slabs to the arena pool *after* the
        # incoming capture took its own, so held memory peaks at two plans'
        # worth — and every further capture of the same capacity classes
        # reuses the pooled slabs instead of allocating
        lin, run = small_head(rng)
        eng = InferenceCompiler(max_plans=1)
        x = fresh_inputs(rng)
        with no_grad():
            eng.run(("a",), lambda: (run(x),), {"x": x})
            eng.run(("b",), lambda: (run(x),), {"x": x})  # evicts a
            steady = eng.arena.held_bytes
            assert eng.arena.num_free > 0
            eng.run(("c",), lambda: (run(x),), {"x": x})  # reuses a's slabs
            # a different row count lands in the same capacity classes
            y = fresh_inputs(rng, n=6)
            eng.run(("d",), lambda: (run(y),), {"x": y})
        assert eng.arena.held_bytes == steady
        assert eng.stats.plan_evictions == 3

    def test_arena_acquire_release_roundtrip(self):
        # capacity reuse: a released slab serves any later request of its
        # capacity class, whatever shape or dtype is viewed through it
        arena = BufferArena()
        a = arena.acquire(3 * 4 * 8)
        assert a.nbytes == BufferArena.MIN_CLASS
        assert arena.held_bytes == a.nbytes
        arena.release(a)
        assert arena.num_free == 1
        b = arena.acquire(5 * 4 * 4)  # other size, same class: no allocation
        assert b is a
        assert arena.held_bytes == a.nbytes
        c = arena.acquire(5000)  # a larger class: a new slab
        assert c.nbytes == BufferArena.capacity(5000) >= 5000
        assert arena.held_bytes == a.nbytes + c.nbytes

    def test_capacity_classes_bound_slack(self):
        for nbytes in (1, 256, 257, 1000, 4096, 4097, 12345, 10**6 + 1):
            cap = BufferArena.capacity(nbytes)
            assert cap >= nbytes
            assert cap <= max(BufferArena.MIN_CLASS, nbytes * 1.125)

    def test_pool_byte_cap_drops_overflow(self):
        arena = BufferArena()
        arena.max_free_bytes = 300
        a, b = arena.acquire(100), arena.acquire(100)
        assert arena.held_bytes == 2 * BufferArena.MIN_CLASS
        arena.release(a)
        arena.release(b)  # the pool is full: b is dropped, not pooled
        assert arena.num_free == 1
        assert arena.held_bytes == BufferArena.MIN_CLASS == arena.free_bytes

    def test_plan_slabs_grow_only_and_reuse_capacity(self, rng):
        arena = BufferArena()
        mem = _Slabs(arena)
        big = mem.buf("h", (10, 4))
        held = arena.held_bytes
        small = mem.buf("h", (5, 4), np.float32)  # fits: a view of the same slab
        assert small.shape == (5, 4) and small.dtype == np.float32
        assert small.flags.c_contiguous and np.shares_memory(small, big)
        assert arena.held_bytes == held
        assert mem.buf("h", (5, 4), np.float32) is small  # cached view
        grown = mem.buf("h", (200, 4))  # outgrown: one larger slab replaces it
        assert not np.shares_memory(grown, big)
        assert arena.held_bytes == BufferArena.capacity(200 * 4 * 8)
        mem.release()
        assert arena.num_free == 1 and arena.free_bytes == arena.held_bytes

    def test_plan_buffers_match_writing_steps(self, rng):
        # view steps (reshape/transpose) and allocating steps (spmm) write
        # no buffer, so the plan must hold none for them
        gcn = GCNStack(4, 8, 2, rng=rng)
        csr = gcn_normalize_adjacency_sparse(
            (rng.random((6, 6)) < 0.3).astype(np.float64)
        )
        x = rng.normal(size=(6, 4))

        def run():
            h = gcn(Tensor(x), csr)
            return (h.reshape(-1).reshape(6, 8).T.sum(axis=1),)

        eng = InferenceCompiler()
        with no_grad():
            eng.run(("k",), run, {"x": x})
        (plan,) = eng._plans.values()
        writing = sum(step.out is not None for step in plan.steps)
        assert writing < len(plan.steps)
        assert len(plan.mem.slabs) == writing

    def test_stats_dict_and_hit_rate(self, rng):
        lin, run = small_head(rng)
        eng = InferenceCompiler()
        x = fresh_inputs(rng)
        with no_grad():
            for _ in range(4):
                eng.run(("k",), lambda: (run(x),), {"x": x})
        d = eng.stats_dict()
        assert d["plan_hits"] == 3 and d["plan_misses"] == 1
        assert d["hit_rate"] == pytest.approx(0.75)
        assert d["plans"] == 1
        assert d["arena_bytes"] > 0


class TestMemo:
    @staticmethod
    def _gcn_head(rng):
        gcn = GCNStack(4, 8, 2, rng=rng)
        head = Linear(8, 1, rng=rng)

        def run(x, adj):
            h = gcn(Tensor(x), adj)
            return (head(F.mean_pool(h)),)

        return gcn, head, run

    def test_memo_hit_after_capture_is_bit_identical(self, rng):
        # regression: the value memoised *at capture time* must be the
        # captured embedding, not the plan's (unwritten) replay buffer
        gcn, head, run = self._gcn_head(rng)
        adj = gcn_normalize_adjacency(np.eye(5))
        x = rng.normal(size=(5, 4))
        eng = InferenceCompiler()
        with no_grad():
            ref = run(x, adj)[0].data.copy()
            (o1,) = eng.run(
                ("k",), lambda: (run(x, adj)[0],), {"x": x}, memo_key="m1"
            )
            np.testing.assert_array_equal(o1, ref)
            (o2,) = eng.run(  # first replay resumes from the capture's memo
                ("k",), lambda: (run(x, adj)[0],), {"x": x}, memo_key="m1"
            )
            np.testing.assert_array_equal(o2, ref)
        assert eng.stats.memo_hits == 1

    def test_memo_miss_recomputes(self, rng):
        gcn, head, run = self._gcn_head(rng)
        adj = gcn_normalize_adjacency(np.eye(5))
        eng = InferenceCompiler()
        x1, x2 = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        with no_grad():
            eng.run(("k",), lambda: (run(x1, adj)[0],), {"x": x1}, memo_key="a")
            # new memo key + new features: full replay, fresh (exact) result
            ref2 = run(x2, adj)[0].data.copy()
            (out,) = eng.run(
                ("k",), lambda: (run(x2, adj)[0],), {"x": x2}, memo_key="b"
            )
            np.testing.assert_array_equal(out, ref2)
        assert eng.stats.memo_hits == 0
        assert eng.stats.memo_misses == 1

    def test_memo_lru_bound(self, rng):
        gcn, head, run = self._gcn_head(rng)
        adj = gcn_normalize_adjacency(np.eye(5))
        eng = InferenceCompiler(memo_size=2)
        with no_grad():
            for i in range(4):
                x = rng.normal(size=(5, 4))
                eng.run(
                    ("k",), lambda: (run(x, adj)[0],), {"x": x}, memo_key=i
                )
        assert len(eng._memo) == 2

    def test_memo_disabled_when_size_zero(self, rng):
        gcn, head, run = self._gcn_head(rng)
        adj = gcn_normalize_adjacency(np.eye(5))
        eng = InferenceCompiler(memo_size=0)
        x = rng.normal(size=(5, 4))
        with no_grad():
            for _ in range(3):
                eng.run(
                    ("k",), lambda: (run(x, adj)[0],), {"x": x}, memo_key="m"
                )
        assert eng.stats.memo_hits == 0
        assert len(eng._memo) == 0
