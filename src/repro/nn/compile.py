"""Capture/replay engines: compiled no-grad forwards and training steps.

The training stack pays, on every op, for machinery that inference never
uses: ``Tensor`` wrappers, backward-closure construction, version-counter
snapshots, anomaly scans, and a fresh allocation per intermediate.  Paper
Fig. 7 measures exactly this path (per-decision forward latency), so
:class:`InferenceCompiler` removes it along two routes:

* **single-observation forwards** (dense or sparse adjacency, with the
  within-instant embedding memo) are captured generically: the first call
  for a given shape signature runs the normal ``Module.forward`` under a
  capture hook (:data:`repro.nn.tensor._CAPTURE`) that records the flat op
  sequence — op kind, operand slots, baked parameters, output shape — and
  replays execute that plan as raw NumPy, each step one ufunc/BLAS call
  writing into a buffer the plan holds.  Plans are keyed by the
  caller-supplied shape signature and evicted LRU;
* **batched forwards** run the fused forward program shared with the
  compiled training step (:func:`_fused_forward`).  Its plans are keyed on
  structure alone — batch size, feature width and whether any member may
  pass (∅) — so member node and ready counts never cause a recapture, and
  each key's first result is checked bitwise against the reference
  forward before the plan is admitted.

Plan memory lives in grow-only byte slabs drawn from a capacity-classed
:class:`BufferArena`; a plan hands out reshaped views of its slabs, so a
new node count reuses the slab it already holds.  Evicted plans return
their slabs to the arena's pool, which is capped in bytes — held memory
levels off at the plans' high-water marks.

Correctness contract
--------------------
* Replay kernels mirror the exact NumPy expression of the reference op
  (e.g. ``mean`` stays a ``sum`` step followed by a ``truediv`` step), so a
  float64 replay is **bit-identical** to the reference forward.  Values
  never depend on which slab holds them.
* Operand arrays listed in ``inputs`` are *dynamic* (re-read every replay);
  :class:`~repro.nn.layers.Parameter` leaves are *live references* (their
  ``data`` is read per replay, so ``load_state_dict``/optimizer writes are
  picked up); every other leaf is baked into the plan as a constant — sound
  because the plan key must determine all shape-carrying structure.
* Capture **refuses** (falls back to the reference forward, returning its
  exact outputs) when grad or anomaly mode is active, when a capture is
  already running, or when the traced function produced tensors through an
  unhooked op (detected by comparing the op count against the recorded step
  count).  Structurally untraceable functions, and batched keys whose first
  fused result differed from the reference, are remembered per key so later
  calls skip straight to the reference path.
* Version counters are bypassed *by construction*: a replay performs no
  tensor writes at all — it only reads parameter buffers and writes plan
  buffers the autograd tape has never seen — which is exactly the situation
  the PR 2 sanitizers exist to police on the training path.  No-grad
  execution has no backward closures that could capture a stale buffer, so
  skipping the counters loses nothing.

``dtype="float32"`` runs single-observation replays in single precision:
parameters are cast once per :attr:`~repro.nn.tensor.Tensor.version` (so a
``state_dict`` load invalidates the cast), frozen (read-only) input arrays
are cast once per object, and writable inputs are staged through per-plan
buffers.  Replay outputs then differ from the reference by normal fp32
rounding (see the parity tests for the documented tolerance).  Batched
forwards always run the float64 structural plan.

Replay outputs are **borrowed**: they live in plan-owned buffers overwritten
by the next replay of the same plan.  Copy before storing.

The engines are single-threaded by design — one per agent per process
(worker processes each build their own).
"""

from __future__ import annotations

from collections import OrderedDict
from math import prod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as sp

from repro.nn import tensor as tensor_mod
from repro.nn.tensor import Tensor

__all__ = [
    "InferenceCompiler",
    "CompileStats",
    "BufferArena",
    "annotate",
    "TrainingCompiler",
    "TrainStats",
]

#: operand-source kinds (first element of a source tuple)
_STEP, _INPUT, _PARAM, _CONST = 0, 1, 2, 3


def annotate(name: str, t: Tensor) -> None:
    """Mark ``t`` as a named intermediate of the capture in progress (no-op
    otherwise).  Engines use annotations to split plans — e.g. the GCN stack
    annotates its output so replays can resume after a memoised embedding.
    """
    cap = tensor_mod._CAPTURE
    if cap is not None:
        cap.annotate(name, t)


class CompileStats:
    """Counters of one :class:`InferenceCompiler` (plain ints, no overhead)."""

    __slots__ = (
        "plan_hits", "plan_misses", "plan_evictions", "fallbacks",
        "replays", "memo_hits", "memo_misses", "validation_failures",
    )

    def __init__(self) -> None:
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0
        self.fallbacks = 0
        self.replays = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.validation_failures = 0

    def as_dict(self) -> Dict[str, int]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @property
    def hit_rate(self) -> float:
        """Plan-cache hit rate over all compiled-path calls."""
        total = self.plan_hits + self.plan_misses + self.fallbacks
        return self.plan_hits / total if total else 0.0

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"CompileStats({inner})"


class BufferArena:
    """Capacity-classed pool of byte slabs.

    ``acquire(nbytes)`` hands out a flat ``uint8`` slab whose capacity is
    ``nbytes`` rounded up to its class (eight classes per power of two, so
    at most 12.5 % slack), popping a pooled slab of that class when one is
    free.  ``release`` returns a slab to the pool; once the pooled bytes
    would exceed ``max_free_bytes`` the slab is dropped instead, so the pool
    never grows without bound.  :attr:`held_bytes` counts every slab handed
    out and neither dropped nor discarded, plus the pool — the engine's
    resident plan memory.

    Plans never use a slab directly: :class:`_Slabs` views a prefix of it
    as an array of any shape and dtype.
    """

    #: smallest capacity class, in bytes
    MIN_CLASS = 256
    #: cap on the pooled (free) bytes
    max_free_bytes = 16 << 20

    def __init__(self) -> None:
        self._free: Dict[int, List[np.ndarray]] = {}
        self.held_bytes = 0
        self.free_bytes = 0

    @classmethod
    def capacity(cls, nbytes: int) -> int:
        """The capacity class a request of ``nbytes`` is served from."""
        if nbytes <= cls.MIN_CLASS:
            return cls.MIN_CLASS
        step = (1 << (nbytes.bit_length() - 1)) >> 3
        return -(-nbytes // step) * step

    def acquire(self, nbytes: int) -> np.ndarray:
        size = self.capacity(nbytes)
        bucket = self._free.get(size)
        if bucket:
            self.free_bytes -= size
            return bucket.pop()
        self.held_bytes += size
        return np.empty(size, dtype=np.uint8)

    def release(self, slab: np.ndarray) -> None:
        """Pool ``slab`` for reuse, or drop it when the pool is full."""
        size = slab.nbytes
        if self.free_bytes + size > self.max_free_bytes:
            self.discard(slab)
            return
        self._free.setdefault(size, []).append(slab)
        self.free_bytes += size

    def discard(self, slab: np.ndarray) -> None:
        """Stop holding ``slab``; the allocator takes it back once unused."""
        self.held_bytes -= slab.nbytes

    @property
    def num_free(self) -> int:
        return sum(len(bucket) for bucket in self._free.values())


class _Slabs:
    """Named grow-only slabs of one plan, handed out as reshaped views.

    ``buf(name, shape, dtype)`` returns a view of the slab called ``name``,
    trading the slab for a larger one from the arena only when the request
    outgrows it.  Node counts change from call to call; capacity reuse means
    a plan's memory settles at its high-water mark instead of growing.
    """

    __slots__ = ("arena", "slabs", "views")

    def __init__(self, arena: BufferArena) -> None:
        self.arena = arena
        self.slabs: Dict[str, np.ndarray] = {}
        self.views: Dict[str, np.ndarray] = {}

    def buf(
        self, name: str, shape: Tuple[int, ...], dtype: Any = np.float64
    ) -> np.ndarray:
        view = self.views.get(name)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        dt = np.dtype(dtype)
        nbytes = int(prod(shape)) * dt.itemsize
        slab = self.slabs.get(name)
        if slab is None or slab.nbytes < nbytes:
            if slab is not None:
                # outgrown: a smaller class is no use to this plan, and rarely
                # to any other, so it is not pooled
                self.arena.discard(slab)
            slab = self.arena.acquire(nbytes)
            self.slabs[name] = slab
        # a C-contiguous (shape, dtype) array over the front of the slab
        view = slab[:nbytes].view(dt).reshape(shape)
        self.views[name] = view
        return view

    def release(self) -> None:
        """Return every slab to the arena (the plan is being dropped)."""
        for slab in self.slabs.values():
            self.arena.release(slab)
        self.slabs.clear()
        self.views.clear()


class _Step:
    """One replay instruction: ``out = kernel(resolved_args, out)``."""

    __slots__ = ("kernel", "args", "out")

    def __init__(
        self,
        kernel: Callable[[Tuple[Any, ...], Optional[np.ndarray]], np.ndarray],
        args: Tuple[Tuple[int, Any], ...],
        out: Optional[np.ndarray],
    ) -> None:
        self.kernel = kernel
        self.args = args
        self.out = out


class _Plan:
    """A captured op sequence plus the slabs behind its step buffers."""

    __slots__ = ("steps", "outputs", "mem", "scratch", "memo_step")

    def __init__(
        self,
        steps: List[_Step],
        outputs: Tuple[Tuple[int, Any], ...],
        mem: _Slabs,
        memo_step: Optional[int],
    ) -> None:
        self.steps = steps
        self.outputs = outputs
        #: one slab per writing step, plus float32 staging slabs of inputs
        self.mem = mem
        self.scratch: List[Any] = [None] * len(steps)
        self.memo_step = memo_step


class CaptureError(RuntimeError):
    """Internal: the traced function cannot be compiled (triggers fallback)."""


# --------------------------------------------------------------------------- #
# kernels — each mirrors the reference op's exact NumPy expression
# --------------------------------------------------------------------------- #


def _k_binary(ufunc):
    def kernel(args, out):
        return ufunc(args[0], args[1], out=out)

    return kernel


def _k_unary(ufunc):
    def kernel(args, out):
        return ufunc(args[0], out=out)

    return kernel


def _k_sigmoid(args, out):
    # mirrors 1.0 / (1.0 + np.exp(-x)), fused in place
    np.negative(args[0], out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.true_divide(1.0, out, out=out)


def _k_relu(args, out):
    # np.fmax(x, 0.0) is bit-identical to the reference's
    # np.where(x > 0, x, 0.0) for every input class — finite, ±0, ±inf, and
    # NaN (fmax drops NaN in favour of the 0.0 operand) — in one fused pass
    return np.fmax(args[0], 0.0, out=out)


def _k_pow(exponent: float):
    def kernel(args, out):
        return np.power(args[0], exponent, out=out)

    return kernel


def _k_sum(axis, keepdims: bool):
    def kernel(args, out):
        return np.sum(args[0], axis=axis, keepdims=keepdims, out=out)

    return kernel


def _k_max(axis, keepdims: bool):
    def kernel(args, out):
        return np.amax(args[0], axis=axis, keepdims=keepdims, out=out)

    return kernel


def _k_reshape(shape: Tuple[int, ...]):
    def kernel(args, out):
        return args[0].reshape(shape)

    return kernel


def _k_transpose(args, out):
    return args[0].T


def _k_take(args, out):
    return np.take(args[0], args[1], axis=0, out=out)


def _k_getitem(index):
    def kernel(args, out):
        np.copyto(out, args[0][index])
        return out

    return kernel


def _k_concat(axis: int):
    def kernel(args, out):
        return np.concatenate(args, axis=axis, out=out)

    return kernel


def _k_stack(axis: int):
    def kernel(args, out):
        return np.stack(args, axis=axis, out=out)

    return kernel


def _k_spmm(args, out):
    # scipy has no out= for CSR @ dense — this is the one allocating step
    return np.asarray(args[1] @ args[0])


def _k_reduceat(ufunc, starts: np.ndarray):
    def kernel(args, out):
        return ufunc.reduceat(args[0], starts, axis=0, out=out)

    return kernel


class _Capture:
    """Recorder installed as :data:`repro.nn.tensor._CAPTURE` during capture.

    ``record`` is invoked by the hooked tensor ops; ``made`` counts *every*
    tensor produced through ``Tensor._make`` so an op without a hook (or a
    hook that declined to record) is detected as ``made != len(steps)`` and
    the whole capture is discarded.
    """

    def __init__(self, engine: "InferenceCompiler", inputs: Dict[str, Any]) -> None:
        self.engine = engine
        #: id(array-like) -> input slot name
        self.input_ids = {id(arr): name for name, arr in inputs.items()}
        #: id(Tensor) -> source tuple
        self.sources: Dict[int, Tuple[int, Any]] = {}
        #: keep every sourced tensor alive so ids cannot be reused mid-capture
        self.keepalive: List[Tensor] = []
        self.steps: List[_Step] = []
        self.mem = _Slabs(engine.arena)
        self.made = 0
        self.annotations: Dict[str, Tuple[int, Any]] = {}
        self.annotation_values: Dict[str, np.ndarray] = {}
        self.taint_reason: Optional[str] = None

    # -- sources -------------------------------------------------------- #

    def taint(self, reason: str) -> None:
        """Mark the capture unusable; finalize will fall back to reference."""
        if self.taint_reason is None:
            self.taint_reason = reason

    def source_of(self, t: Tensor) -> Tuple[int, Any]:
        src = self.sources.get(id(t))
        if src is not None:
            return src
        # an unseen tensor is a leaf: input slot, live parameter, or constant
        name = self.input_ids.get(id(t._data))
        if name is not None:
            src = (_INPUT, name)
        elif t.requires_grad and not t._parents:
            src = (_PARAM, t)  # live reference — survives load_state_dict
        else:
            src = (_CONST, t._data)
        self.sources[id(t)] = src
        self.keepalive.append(t)
        return src

    def array_source(self, arr: Any) -> Tuple[int, Any]:
        """Source of a non-Tensor operand (index arrays, sparse matrices)."""
        name = self.input_ids.get(id(arr))
        return (_INPUT, name) if name is not None else (_CONST, arr)

    def annotate(self, name: str, t: Tensor) -> None:
        self.annotations[name] = self.source_of(t)
        # the captured value itself: during capture the plan buffers are
        # never written (the reference forward computes into its own
        # tensors), so memoisation must read the tensor, not the buffer
        self.annotation_values[name] = t._data

    # -- recording ------------------------------------------------------ #

    def record(
        self,
        out: Tensor,
        op: str,
        operands: Sequence[Tensor],
        params: Optional[dict] = None,
    ) -> None:
        if self.taint_reason is not None:
            return
        try:
            self._record(out, op, operands, params or {})
        except CaptureError as exc:
            self.taint(str(exc))

    _BINARY = {
        "add": np.add, "sub": np.subtract, "mul": np.multiply,
        "truediv": np.true_divide, "matmul": np.matmul,
    }
    _UNARY = {
        "neg": np.negative, "exp": np.exp, "log": np.log,
        "tanh": np.tanh, "abs": np.absolute,
    }

    def _record(
        self, out: Tensor, op: str, operands: Sequence[Tensor], params: dict
    ) -> None:
        args = tuple(self.source_of(t) for t in operands)
        shape = out._data.shape
        writes = True  # False for views and for steps that allocate their own

        if op in self._BINARY:
            kernel = _k_binary(self._BINARY[op])
        elif op in self._UNARY:
            kernel = _k_unary(self._UNARY[op])
        elif op == "sigmoid":
            kernel = _k_sigmoid
        elif op == "relu":
            kernel = _k_relu
        elif op == "pow":
            kernel = _k_pow(params["exponent"])
        elif op == "sum":
            kernel = _k_sum(params["axis"], params["keepdims"])
        elif op == "max":
            kernel = _k_max(params["axis"], params["keepdims"])
        elif op == "reshape":
            kernel, writes = _k_reshape(shape), False  # view
        elif op == "transpose":
            kernel, writes = _k_transpose, False  # view
        elif op == "getitem":
            index = params["index"]
            if isinstance(index, np.ndarray):
                if index.ndim != 1 or index.dtype.kind not in "iu":
                    raise CaptureError(
                        f"getitem with a non-1-D-integer array index "
                        f"(dtype {index.dtype}, ndim {index.ndim})"
                    )
                kernel = _k_take
                args = args + (self.array_source(index),)
            else:
                kernel = _k_getitem(index)
        elif op == "concat":
            kernel = _k_concat(params["axis"])
        elif op == "stack":
            kernel = _k_stack(params["axis"])
        elif op == "spmm":
            kernel, writes = _k_spmm, False  # scipy allocates
            args = args + (self.array_source(params["matrix"]),)
        elif op == "segment_reduceat":
            kernel = _k_reduceat(params["ufunc"], params["starts"])
        else:
            raise CaptureError(f"op {op!r} has no replay kernel")

        index = len(self.steps)
        buf = (
            self.mem.buf(f"s{index}", shape, self.engine.dtype) if writes else None
        )
        self.steps.append(_Step(kernel, args, buf))
        self.sources[id(out)] = (_STEP, index)
        self.keepalive.append(out)


class InferenceCompiler:
    """Capture/replay executor for no-grad forwards (see module docstring).

    Parameters
    ----------
    dtype:
        ``"float64"`` (default; replays are bit-identical to the reference)
        or ``"float32"`` (single-precision single-observation replays;
        weights cast once per ``state_dict`` version).  Batched forwards
        (:meth:`run_batch`) always replay the float64 structural plan.
    max_plans:
        LRU bound on cached single-observation plans; an evicted plan's
        slabs return to the arena's pool.  Batched keys are structural (a
        handful per run) and share one set of slabs, so they are not bounded.
    memo_size:
        LRU bound on memoised annotated intermediates (the within-instant
        GCN-embedding memo).
    """

    #: bound on the float32 cast cache of frozen inputs (id-keyed)
    _CAST_CACHE_MAX = 1024

    def __init__(
        self, dtype: Any = "float64", max_plans: int = 64, memo_size: int = 16
    ) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be float64 or float32, got {self.dtype}"
            )
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        if memo_size < 0:
            raise ValueError(f"memo_size must be >= 0, got {memo_size}")
        self.max_plans = max_plans
        self.memo_size = memo_size
        self.arena = BufferArena()
        self.stats = CompileStats()
        self._f32 = self.dtype != np.float64
        self._plans: "OrderedDict[Any, _Plan]" = OrderedDict()
        self._uncompilable: set = set()  # keys only ever membership-tested
        #: structural batched keys: validated ones replay the fused forward
        #: into the shared batch slabs, demoted ones run the reference
        self._batch_keys: set = set()
        self._demoted: Dict[Any, str] = {}
        self._batch_mem = _Slabs(self.arena)
        self._net: Optional[_FusedNet] = None
        self._memo: "OrderedDict[Any, np.ndarray]" = OrderedDict()
        #: id(Parameter) -> (param, version, cast array) for float32 mode
        self._param_cache: Dict[int, Tuple[Tensor, int, np.ndarray]] = {}
        #: id(frozen array / csr) -> (obj, cast) for float32 mode
        self._cast_cache: "OrderedDict[int, Tuple[Any, Any]]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #

    def run(
        self,
        key: Any,
        fn: Callable[[], Tuple[Tensor, ...]],
        inputs: Dict[str, Any],
        memo_key: Optional[Any] = None,
    ) -> Tuple[np.ndarray, ...]:
        """Execute ``fn`` compiled: replay a cached plan for ``key`` or
        capture one, falling back to the plain forward when capture is not
        possible.  Returns the output payload arrays (borrowed — see module
        docstring).

        ``key`` must determine every shape and every baked constant of the
        forward; ``inputs`` maps slot names to the arrays that vary between
        calls of the same key.  ``memo_key`` (optional) memoises the
        annotated ``"gcn_embedding"`` intermediate across calls.
        """
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.stats.plan_hits += 1
            return self._replay(plan, inputs, memo_key)
        if (
            key in self._uncompilable
            or tensor_mod.is_grad_enabled()
            or tensor_mod.is_anomaly_enabled()
            or tensor_mod._CAPTURE is not None
        ):
            self.stats.fallbacks += 1
            return tuple(t.data for t in fn())
        return self._capture(key, fn, inputs, memo_key)

    def run_batch(
        self,
        model: Any,
        glue: Any,
        reference: Callable[[], Tuple[Tensor, Tensor]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched no-grad forward of ``model`` over prebuilt batch ``glue``.

        Runs the fused forward program shared with the compiled training
        step, on a plan keyed by structure alone: ``(batch size, feature
        width, any ∅ member)``.  The first call for a key also runs
        ``reference`` (the tensor forward over the same glue) and admits the
        key only if logits and values agree bitwise; otherwise the key is
        demoted to the reference for good and counted in
        ``validation_failures``.  Every batched key writes into one shared
        set of slabs, so returned arrays are borrowed until the next batched
        call.  Returns ``(flat logits, values)``.
        """
        if (
            tensor_mod.is_grad_enabled()
            or tensor_mod.is_anomaly_enabled()
            or tensor_mod._CAPTURE is not None
            or not sp.isspmatrix_csr(glue.adj)
            # the C core reads raw float64 pointers
            or glue.adj.dtype != np.float64
            or glue.feats.dtype != np.float64
        ):
            self.stats.fallbacks += 1
            return _arrays(reference())
        key = (glue.batch, glue.feats.shape[1], bool(glue.pass_idx.size))
        net = self._net
        if net is None or net.model is not model:
            net = self._net = _FusedNet(model)
        if key in self._batch_keys:
            self.stats.plan_hits += 1
            self.stats.replays += 1
            fwd = _fused_forward(net, self._batch_mem, glue)
            return fwd.logits, fwd.values
        if key in self._demoted:
            self.stats.fallbacks += 1
            return _arrays(reference())
        self.stats.plan_misses += 1
        logits, values = _arrays(reference())
        try:
            fwd = _fused_forward(net, self._batch_mem, glue)
        except Exception as exc:  # demote rather than ever break a forward
            reason: Optional[str] = f"fused kernel failed: {exc!r}"
        else:
            reason = None
            if not _bitwise_equal(fwd.logits, logits):
                reason = "logits differ from the reference forward"
            elif not _bitwise_equal(fwd.values, values):
                reason = "values differ from the reference forward"
        if reason is None:
            self._batch_keys.add(key)
        else:
            self._demoted[key] = reason
            self.stats.validation_failures += 1
        return logits, values

    def stats_dict(self) -> Dict[str, float]:
        """Counters plus arena gauges, as a flat dict (for logs/benchmarks).

        ``arena_bytes`` is the plan memory the engine holds: the slabs of
        every live single-observation plan, the batched forward's slabs and
        the arena's free pool.
        """
        out: Dict[str, float] = dict(self.stats.as_dict())
        out["plans"] = len(self._plans) + len(self._batch_keys)
        out["arena_bytes"] = self.arena.held_bytes
        out["hit_rate"] = self.stats.hit_rate
        return out

    def publish_metrics(self, registry, prefix: str = "compile") -> None:
        """Export the counters into a :class:`repro.obs` metrics registry."""
        if not registry.enabled:
            return
        for name, value in self.stats_dict().items():
            registry.gauge(f"{prefix}/{name}").set(float(value))

    # ------------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------------ #

    def _capture(
        self,
        key: Any,
        fn: Callable[[], Tuple[Tensor, ...]],
        inputs: Dict[str, Any],
        memo_key: Optional[Any],
    ) -> Tuple[np.ndarray, ...]:
        self.stats.plan_misses += 1
        cap = _Capture(self, inputs)
        tensor_mod._CAPTURE = cap
        try:
            result = fn()
        finally:
            tensor_mod._CAPTURE = None
        outputs = tuple(cap.source_of(t) for t in result)
        if cap.taint_reason is None and cap.made != len(cap.steps):
            cap.taint(
                f"{cap.made - len(cap.steps)} tensor op(s) escaped the "
                f"capture hooks"
            )
        if cap.taint_reason is not None:
            cap.mem.release()
            self._uncompilable.add(key)
            self.stats.fallbacks += 1
            return tuple(t.data for t in result)

        memo_step = self._memo_split(cap, outputs)
        steps = [
            _Step(st.kernel, tuple(self._prepare(s) for s in st.args), st.out)
            for st in cap.steps
        ]
        plan = _Plan(
            steps, tuple(self._prepare(s) for s in outputs), cap.mem, memo_step
        )
        self._plans[key] = plan
        if len(self._plans) > self.max_plans:
            _evicted_key, evicted = self._plans.popitem(last=False)
            self.stats.plan_evictions += 1
            evicted.mem.release()
        if memo_key is not None and memo_step is not None and self.memo_size:
            h = cap.annotation_values["gcn_embedding"]
            self._memo_put(memo_key, np.array(h, dtype=self.dtype))
        return tuple(t.data for t in result)

    def _memo_split(
        self, cap: _Capture, outputs: Tuple[Tuple[int, Any], ...]
    ) -> Optional[int]:
        """Index of the annotated embedding step, if replay may resume there.

        Resuming at step ``i`` skips steps ``< i`` entirely, which is only
        sound when no later step (and no output) reads an earlier value.
        """
        src = cap.annotations.get("gcn_embedding")
        if src is None or src[0] != _STEP:
            return None
        split = src[1]
        if cap.steps[split].out is None:
            return None  # a view — resuming would alias a skipped buffer
        later_args = [
            s for st in cap.steps[split + 1:] for s in st.args
        ] + list(outputs)
        for kind, payload in later_args:
            if kind == _STEP and payload < split:
                return None
        return split

    def _prepare(self, source: Tuple[int, Any]) -> Tuple[int, Any]:
        """Bake a source for replay: cast/copy constants as the dtype needs."""
        kind, payload = source
        if kind != _CONST:
            return source
        if sp.issparse(payload):
            if self._f32 and payload.dtype == np.float64:
                payload = payload.astype(np.float32)
            return (_CONST, payload)
        arr = np.asarray(payload)
        if self._f32 and arr.dtype == np.float64:
            arr = arr.astype(self.dtype)
        elif arr.flags.writeable:
            # defensive copy: the caller may reuse/mutate its scratch arrays
            arr = arr.copy()
        return (_CONST, arr)

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #

    def _replay(
        self, plan: _Plan, inputs: Dict[str, Any], memo_key: Optional[Any]
    ) -> Tuple[np.ndarray, ...]:
        bound = self._bind(plan, inputs)
        vals = plan.scratch
        steps = plan.steps
        start = 0
        memo_step = plan.memo_step
        resumed = False
        if memo_key is not None and memo_step is not None and self.memo_size:
            h = self._memo.get(memo_key)
            if h is not None:
                self._memo.move_to_end(memo_key)
                self.stats.memo_hits += 1
                vals[memo_step] = h
                start = memo_step + 1
                resumed = True
            else:
                self.stats.memo_misses += 1
        for i in range(start, len(steps)):
            st = steps[i]
            vals[i] = st.kernel(self._resolve(st.args, vals, bound), st.out)
        if memo_key is not None and memo_step is not None and not resumed \
                and self.memo_size:
            self._memo_put(memo_key, vals[memo_step].copy())
        self.stats.replays += 1
        return self._resolve(plan.outputs, vals, bound)

    def _resolve(
        self,
        sources: Tuple[Tuple[int, Any], ...],
        vals: List[Any],
        bound: Dict[str, Any],
    ) -> Tuple[Any, ...]:
        out = []
        for kind, payload in sources:
            if kind == _STEP:
                out.append(vals[payload])
            elif kind == _INPUT:
                out.append(bound[payload])
            elif kind == _PARAM:
                out.append(self._param_value(payload))
            else:
                out.append(payload)
        return tuple(out)

    def _bind(self, plan: _Plan, inputs: Dict[str, Any]) -> Dict[str, Any]:
        if not self._f32:
            return inputs  # float64: bind by reference, zero copies
        bound: Dict[str, Any] = {}
        for name, arr in inputs.items():
            if sp.issparse(arr):
                bound[name] = self._frozen_cast(arr)
            elif isinstance(arr, np.ndarray) and arr.dtype == np.float64:
                if not arr.flags.writeable:
                    bound[name] = self._frozen_cast(arr)
                else:
                    buf = plan.mem.buf(f"stage:{name}", arr.shape, self.dtype)
                    np.copyto(buf, arr)
                    bound[name] = buf
            else:
                bound[name] = arr
        return bound

    def _param_value(self, p: Tensor) -> np.ndarray:
        if not self._f32:
            return p._data
        entry = self._param_cache.get(id(p))
        if entry is not None and entry[0] is p and entry[1] == p._version[0]:
            return entry[2]
        cast = p._data.astype(self.dtype)
        self._param_cache[id(p)] = (p, p._version[0], cast)
        return cast

    def _frozen_cast(self, obj: Any) -> Any:
        """Cast-once cache for immutable inputs (frozen ndarrays, CSR).

        Keys are object ids; the cached strong reference keeps the id stable,
        and the stored object is compared by identity on lookup so a reused
        id after eviction can never alias a different array.
        """
        entry = self._cast_cache.get(id(obj))
        if entry is not None and entry[0] is obj:
            self._cast_cache.move_to_end(id(obj))
            return entry[1]
        if sp.issparse(obj):
            cast = obj.astype(np.float32) if obj.dtype == np.float64 else obj
        else:
            cast = obj.astype(self.dtype)
        self._cast_cache[id(obj)] = (obj, cast)
        if len(self._cast_cache) > self._CAST_CACHE_MAX:
            self._cast_cache.popitem(last=False)
        return cast

    def _memo_put(self, memo_key: Any, value: np.ndarray) -> None:
        self._memo[memo_key] = value
        if len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)


# ====================================================================== #
# the fused forward program: batched inference and the training step
# ====================================================================== #

try:  # scipy's C kernel behind ``csr @ dense``, with a caller-owned output
    from scipy.sparse import _sparsetools
except ImportError:  # pragma: no cover - exotic scipy builds
    _sparsetools = None


def _csr_matmul_out(csr: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = csr @ x`` without allocating — bitwise equal to ``csr @ x``
    (``csr_matvecs`` walks rows in the same order; it accumulates, so the
    output is zeroed first)."""
    if _sparsetools is None or not (x.flags.c_contiguous and out.flags.c_contiguous):
        out[...] = csr @ x  # pragma: no cover - fallback for odd layouts
        return out
    out.fill(0.0)
    m, n = csr.shape
    _sparsetools.csr_matvecs(
        m, n, x.shape[1], csr.indptr, csr.indices, csr.data, x.ravel(), out.ravel()
    )
    return out


def _transpose_csr(csr: sp.csr_matrix) -> sp.csr_matrix:
    """Aᵀ as CSR, cached on the matrix — the same cache (and the same
    construction, so the same float summation order) the tape's spmm backward
    uses in :func:`repro.nn.sparse.sparse_matmul`."""
    transpose = getattr(csr, "_cached_transpose_csr", None)
    if transpose is None:
        transpose = csr.T.tocsr()
        csr._cached_transpose_csr = transpose
    return transpose


def _arrays(tensors: Sequence[Tensor]) -> Tuple[np.ndarray, ...]:
    return tuple(t.data for t in tensors)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes (NaN payloads and signed zeros included)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class _FusedNet:
    """The agent's fixed module layout, bound once for the fused program.

    The fused kernels read ``weight.data``/``bias.data`` at call time, so the
    binding survives optimizer steps and ``load_state_dict``.  ``fusion`` is
    the C fusion core, or None (no compiler, ``REPRO_NO_FUSION``, hidden
    wider than its stack accumulators) for the pure-NumPy kernels; either
    backend faces the same bitwise checks.
    """

    __slots__ = ("model", "convs", "task", "pass_", "value", "hidden", "fusion")

    def __init__(self, model: Any) -> None:
        from repro.nn import fusion

        self.model = model
        self.convs = list(model.gcn.convs)
        self.task = model.task_score
        self.pass_ = model.pass_score
        self.value = model.value_head
        self.hidden = self.convs[0].weight.data.shape[1] if self.convs else 0
        self.fusion = (
            fusion.load() if 0 < self.hidden <= fusion.MAX_WIDTH else None
        )


class _Forward:
    """Intermediates of one fused forward, as views of the plan's slabs."""

    __slots__ = (
        "node_starts", "counts_col", "layer_out", "layer_mask", "mp",
        "pooled", "pmask", "pcounts", "ready_h", "ctx", "values", "logits",
    )


def _fused_forward(net: _FusedNet, plan: _Slabs, glue: Any) -> _Forward:
    """The batched forward as straight-line NumPy (plus the C core).

    Mirrors :meth:`repro.rl.agent.ReadysAgent._forward_batch_tensors` op for
    op — GCN stack, mean-pool value head, ready-row task scores, max-pool ‖
    processor pass scores, batch-order permutation — writing every
    intermediate into ``plan``'s slabs.  Returns the flat ``logits`` and
    ``values`` plus what the training step's backward reads.  Both callers
    check the result bitwise against the tape before trusting a plan.
    """
    fu = net.fusion
    feats = glue.feats
    adj = glue.adj
    n = glue.batch
    m = feats.shape[0]
    hidden = net.hidden
    fwd = _Forward()

    # ---- GCN stack (matmul → spmm → +bias → relu) ---- #
    node_counts = np.bincount(glue.graph_ids, minlength=n)
    node_starts = np.concatenate(([0], np.cumsum(node_counts[:-1])))
    hw = plan.buf("hw", (m, hidden))
    h: np.ndarray = feats
    layer_out: List[np.ndarray] = []
    layer_mask: List[np.ndarray] = []
    for i, conv in enumerate(net.convs):
        np.matmul(h, conv.weight.data, out=hw)
        h_i = plan.buf(f"h{i}", (m, hidden))
        mask = plan.buf(f"mask{i}", (m, hidden), np.bool_)
        if fu is not None:
            fu.spmm_bias_relu(
                adj.indptr, adj.indices, adj.data, conv.bias.data, hw, h_i, mask
            )
        else:
            _csr_matmul_out(adj, hw, h_i)
            np.add(h_i, conv.bias.data, out=h_i)
            np.greater(h_i, 0.0, out=mask)
            np.fmax(h_i, 0.0, out=h_i)  # in place; bit-equal to np.where
        layer_out.append(h_i)
        layer_mask.append(mask)
        h = h_i

    # ---- value head over the mean-pooled embedding ---- #
    counts_col = node_counts.astype(np.float64).reshape(n, 1)
    mp = plan.buf("mp", (n, hidden))
    pooled = pmask = pcounts = None
    if fu is not None:
        # one segment-cached sweep of h computes the mean-pool sums, the
        # max pool, the tie mask and the tie counts (pass head backward
        # inputs); tie counts are sums of exact small integers, so any
        # association yields the reduceat bits
        pooled = plan.buf("pooled", (n, hidden))
        pmask = plan.buf("pmask", (m, hidden), np.bool_)
        pcounts = plan.buf("pcounts", (n, hidden))
        fu.pool_fwd(node_starts, h, mp, pooled, pmask, pcounts)
    else:
        np.add.reduceat(h, node_starts, axis=0, out=mp)
    np.divide(mp, counts_col, out=mp)
    vh = plan.buf("vh", (n, 1))
    np.matmul(mp, net.value.weight.data, out=vh)
    np.add(vh, net.value.bias.data, out=vh)

    # ---- task scores over the ready rows ---- #
    r = glue.ready_rows.size
    ready_h = plan.buf("ready_h", (r, hidden))
    np.take(h, glue.ready_rows, axis=0, out=ready_h)
    task_s = plan.buf("task_s", (r, 1))
    np.matmul(ready_h, net.task.weight.data, out=task_s)
    np.add(task_s, net.task.bias.data, out=task_s)
    s_total = int(glue.action_offsets[-1])
    comb = plan.buf("comb", (s_total,))
    comb[:r] = task_s.ravel()

    # ---- pass scores over max-pool ‖ processor features ---- #
    p_count = glue.pass_idx.size
    ctx = None
    if p_count:
        if fu is None:
            pooled = plan.buf("pooled", (n, hidden))
            np.maximum.reduceat(h, node_starts, axis=0, out=pooled)
        ctx = plan.buf("ctx", (p_count, hidden + glue.proc_stack.shape[1]))
        ctx[:, :hidden] = pooled[glue.pass_idx]
        ctx[:, hidden:] = glue.proc_stack
        pass_s = plan.buf("pass_s", (p_count, 1))
        np.matmul(ctx, net.pass_.weight.data, out=pass_s)
        np.add(pass_s, net.pass_.bias.data, out=pass_s)
        comb[r:] = pass_s.ravel()

    # ---- logits: concat(task, pass) then batch-order permutation ---- #
    logits = plan.buf("logits", (s_total,))
    np.take(comb, glue.perm, out=logits)

    fwd.node_starts = node_starts
    fwd.counts_col = counts_col
    fwd.layer_out = layer_out
    fwd.layer_mask = layer_mask
    fwd.mp = mp
    fwd.pooled = pooled
    fwd.pmask = pmask
    fwd.pcounts = pcounts
    fwd.ready_h = ready_h
    fwd.ctx = ctx
    fwd.values = vh.ravel()
    fwd.logits = logits
    return fwd


# ====================================================================== #
# grad-mode capture/replay: the compiled training step
# ====================================================================== #

#: functional ops whose capture taint only says "I baked a data-dependent
#: constant" — the fused kernels re-derive those constants per call (max
#: shifts, clip masks), so the taint is a note, not a structural refusal.
_DATA_CONSTANT_OPS = ("segment_log_softmax", "clipped_surrogate")


class TrainStats:
    """Counters describing a :class:`TrainingCompiler`'s behaviour."""

    __slots__ = (
        "plan_hits",
        "plan_misses",
        "plan_evictions",
        "fallbacks",
        "replays",
        "captures",
        "validation_failures",
    )

    def __init__(self) -> None:
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0
        self.fallbacks = 0
        self.replays = 0
        self.captures = 0
        self.validation_failures = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def hit_rate(self) -> float:
        """Fraction of update calls served by a fused replay."""
        total = self.plan_hits + self.plan_misses + self.fallbacks
        return self.plan_hits / total if total else 0.0


class _TrainCapture:
    """Forward-op recorder installed while the reference loss graph builds.

    Unlike the inference :class:`_Capture` it does not build a replay program
    from the trace — the hand-fused kernels are validated bitwise against the
    tape at capture time — so it only records the op sequence (kept on the
    plan for introspection), counts made tensors (to detect unhooked ops) and
    carries the taint channel.  Taints from ops in
    :data:`_DATA_CONSTANT_OPS` are demoted to notes; everything else
    (``detach``, scatter-path segment ops, unhooked tensors) is structural
    and refuses the capture.
    """

    __slots__ = ("made", "ops", "notes", "taint_reason", "annotations")

    def __init__(self) -> None:
        self.made = 0
        self.ops: List[str] = []
        self.notes: List[str] = []
        self.taint_reason: Optional[str] = None
        self.annotations: Dict[str, Tuple[int, ...]] = {}

    def record(
        self,
        out: Tensor,
        op: str,
        operands: Sequence[Tensor],
        params: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.ops.append(op)

    def taint(self, reason: str) -> None:
        if reason.split(" bakes ")[0] in _DATA_CONSTANT_OPS:
            self.notes.append(reason)
            return
        if self.taint_reason is None:
            self.taint_reason = reason

    def annotate(self, name: str, t: Tensor) -> None:
        self.annotations[name] = t.shape


class _TrainPlan(_Slabs):
    """A validated fused training program plus its working slabs."""

    __slots__ = ("key", "kind", "forward_ops", "backward_ops", "notes")

    def __init__(self, arena: BufferArena, key: Any, kind: str) -> None:
        super().__init__(arena)
        self.key = key
        self.kind = kind
        self.forward_ops: List[str] = []
        self.backward_ops: List[str] = []
        self.notes: List[str] = []


class TrainingCompiler:
    """Capture/replay engine for the full A2C/PPO training step.

    On the first update for a plan key — ``(loss kind, batch size, feature
    width, advantage normalisation, stack depth)`` — the engine runs the
    *reference* loss construction on the autograd tape under a forward-op
    recorder and a backward trace (:func:`repro.nn.tensor.trace_backward`),
    then executes its hand-fused NumPy mirror of that program (the forward
    :func:`_fused_forward` that batched inference also runs, then the loss
    and a backward into a preallocated flat gradient arena, dead-branch
    gradients elided) on the same inputs and the same live weights, and
    compares the loss, the per-term stats and **every parameter gradient
    bitwise**.  Only a bit-identical plan is kept; any mismatch marks the
    key permanently uncompilable and every later call transparently runs
    the reference tape.

    Replays never build tensors: one pass of raw ufunc/BLAS/``reduceat``
    kernels writes gradients straight into per-parameter views of one flat
    vector, then ``clip_flat_grads`` + :meth:`Adam.step_flat` finish the
    update with a single norm reduction and a single fused moment update.
    The clipped flat vector the reference path concatenates inside
    :func:`clip_grad_norm` is the same parameter-order concatenation, so the
    weight trajectories stay bitwise identical.

    Guarantees shared with the inference engine:

    * **live parameters** — fused kernels read ``p.data`` at call time, so
      checkpoint restores and optimizer writes need no invalidation;
    * **structural refusal** — grad-disabled/anomaly mode, a capture or a
      backward trace already running, batches of one (they route through the
      single-observation forward), batches without a pass head, and
      non-CSR adjacency all fall back to the reference implementation;
    * **bounded memory** — each plan keeps one grow-only slab per working
      buffer and hands out reshaped views, so the changing node counts of
      successive batches reuse capacity instead of allocating; plans are
      LRU-bounded and an evicted plan's slabs return to the
      :class:`BufferArena` pool.

    After a fused step each ``p.grad`` is rebound to its (clipped) arena
    view — **borrowed** memory, overwritten by the next replay.
    """

    def __init__(self, agent: Any, optimizer: Any, *, max_plans: int = 8) -> None:
        from repro.nn.optim import Adam

        if not isinstance(optimizer, Adam):
            raise TypeError(
                f"compiled training fuses the Adam update; got "
                f"{type(optimizer).__name__}"
            )
        if optimizer.weight_decay != 0.0:
            raise ValueError(
                "compiled training requires weight_decay == 0 (the fused "
                f"step has no decay term); got {optimizer.weight_decay}"
            )
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        self.agent = agent
        self.optimizer = optimizer
        self.max_plans = max_plans
        self.arena = BufferArena()
        self.stats = TrainStats()
        self.tracer: Any = None  # duck-typed obs tracer, set by the updater
        self._plans: "OrderedDict[Any, _TrainPlan]" = OrderedDict()
        self._uncompilable: Dict[Any, str] = {}

        # the fused program mirrors the agent's fixed module layout; bind the
        # layers once and validate that the optimizer flattens parameters in
        # exactly that order, so gradient-arena offsets line up with the Adam
        # slot offsets
        net = self._net = _FusedNet(agent)
        expected: List[Any] = []
        for conv in net.convs:
            expected.extend([conv.weight, conv.bias])
        for head in (net.task, net.pass_, net.value):
            expected.extend([head.weight, head.bias])
        if [id(p) for p in optimizer.params] != [id(p) for p in expected]:
            raise ValueError(
                "optimizer parameter order does not match the agent's "
                "gcn/task/pass/value layout; compiled training requires the "
                "canonical Adam(agent.parameters()) construction"
            )
        offsets = optimizer._offsets
        self._flat_grad = np.zeros(offsets[-1])
        self._grad_views = [
            self._flat_grad[a:b].reshape(p.data.shape)
            for p, a, b in zip(optimizer.params, offsets[:-1], offsets[1:])
        ]
        base = 2 * len(net.convs)
        self._iWt, self._ibt = base, base + 1
        self._iWp, self._ibp = base + 2, base + 3
        self._iWv, self._ibv = base + 4, base + 5

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def update(
        self,
        kind: str,
        glue: Any,
        actions: np.ndarray,
        consts: Dict[str, Any],
        reference: Callable[[], Tuple[Tensor, Dict[str, float]]],
    ) -> Optional[Dict[str, float]]:
        """Run one full training step (gradients + clip + Adam) if possible.

        ``kind`` is ``"a2c"`` or ``"ppo"``; ``glue`` is the prebuilt batch
        glue (:class:`repro.rl.agent._BatchGlue`-shaped); ``consts`` carries
        the per-call numeric inputs (returns/advantages/coefficients and
        ``max_grad_norm``).  ``reference`` builds the reference loss graph on
        the tape and returns ``(loss, stats_dict)`` — it is only invoked at
        capture time.

        Returns the update's stats dict (including ``grad_norm``) when the
        engine performed the step — fused replay, or reference execution
        during a capture — and ``None`` when the caller must run the
        reference update itself (structural refusal or uncompilable key).
        """
        if kind not in ("a2c", "ppo"):
            raise ValueError(f"unknown training-step kind {kind!r}")
        if (
            not tensor_mod.is_grad_enabled()
            or tensor_mod._ANOMALY_ENABLED
            or tensor_mod._CAPTURE is not None
            or tensor_mod._BACKWARD_TRACE is not None
            or glue.batch < 2
            or glue.pass_idx.size == 0
            or not sp.isspmatrix_csr(glue.adj)
        ):
            self.stats.fallbacks += 1
            return None
        key = (
            kind,
            glue.batch,
            glue.feats.shape[1],
            bool(consts.get("normalize_advantage", False)),
            len(self._net.convs),
        )
        if key in self._uncompilable:
            self.stats.fallbacks += 1
            return None
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.stats.plan_hits += 1
            stats = self._run_fused(plan, glue, actions, consts)
            self.stats.replays += 1
            return self._apply_flat_step(stats, consts["max_grad_norm"])
        self.stats.plan_misses += 1
        return self._capture(key, kind, glue, actions, consts, reference)

    def plan_descriptions(self) -> Dict[Any, Dict[str, Any]]:
        """Recorded op sequences per live plan (introspection/tests)."""
        return {
            key: {
                "forward_ops": list(plan.forward_ops),
                "backward_ops": list(plan.backward_ops),
                "notes": list(plan.notes),
            }
            for key, plan in self._plans.items()
        }

    def uncompilable_reasons(self) -> Dict[Any, str]:
        """Keys that permanently fall back, with the refusal reason."""
        return dict(self._uncompilable)

    def stats_dict(self) -> Dict[str, float]:
        """Counters plus arena gauges, as a flat dict (for logs/benchmarks)."""
        out: Dict[str, float] = dict(self.stats.as_dict())
        out["plans"] = len(self._plans)
        out["uncompilable"] = len(self._uncompilable)
        out["arena_bytes"] = self.arena.held_bytes
        out["hit_rate"] = self.stats.hit_rate
        return out

    # ------------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------------ #

    def _capture(
        self,
        key: Any,
        kind: str,
        glue: Any,
        actions: np.ndarray,
        consts: Dict[str, Any],
        reference: Callable[[], Tuple[Tensor, Dict[str, float]]],
    ) -> Dict[str, float]:
        cap = _TrainCapture()
        tensor_mod._CAPTURE = cap
        try:
            loss, aux = reference()
        finally:
            tensor_mod._CAPTURE = None
        if cap.taint_reason is None and cap.made != len(cap.ops):
            cap.taint(
                f"{cap.made - len(cap.ops)} tensor(s) created by ops "
                "without capture hooks"
            )
        self.optimizer.zero_grad()
        with tensor_mod.trace_backward() as btrace:
            loss.backward()
        max_norm = consts["max_grad_norm"]
        if cap.taint_reason is not None:
            self._refuse(key, cap.taint_reason)
            return self._finish_reference(aux, max_norm)
        plan = _TrainPlan(self.arena, key, kind)
        plan.forward_ops = list(cap.ops)
        plan.backward_ops = [op for op, _shape in btrace]
        plan.notes = list(cap.notes)
        try:
            fused = self._run_fused(plan, glue, actions, consts)
        except Exception as exc:  # refuse rather than ever corrupt training
            plan.release()
            self._refuse(key, f"fused kernel failed: {exc!r}")
            return self._finish_reference(aux, max_norm)
        mismatch = self._validate(loss, aux, fused)
        if mismatch is not None:
            self.stats.validation_failures += 1
            plan.release()
            self._refuse(key, f"capture validation failed: {mismatch}")
            return self._finish_reference(aux, max_norm)
        self._plans[key] = plan
        self.stats.captures += 1
        if len(self._plans) > self.max_plans:
            _evicted_key, evicted = self._plans.popitem(last=False)
            evicted.release()
            self.stats.plan_evictions += 1
        # finish through the reference arrays: the arena holds bitwise-equal
        # gradients and clip+Adam both run the flat path, so the step is
        # identical either way — but the tape's own grads are already bound
        return self._finish_reference(aux, max_norm)

    def _validate(
        self, loss: Tensor, aux: Dict[str, float], fused: Dict[str, float]
    ) -> Optional[str]:
        ref_loss = float(loss.data)
        if not self._floats_equal(ref_loss, fused["loss"]):
            return f"loss {ref_loss!r} != fused {fused['loss']!r}"
        for name, value in aux.items():
            got = fused.get(name)
            if got is not None and not self._floats_equal(float(value), got):
                return f"{name} {value!r} != fused {got!r}"
        for i, (p, view) in enumerate(zip(self.optimizer.params, self._grad_views)):
            if p.grad is None:
                return f"parameter {i} received no gradient from the tape"
            if not np.array_equal(np.asarray(p.grad), view):
                return f"gradient mismatch on parameter {i}"
        return None

    @staticmethod
    def _floats_equal(a: float, b: float) -> bool:
        return a == b or (np.isnan(a) and np.isnan(b))

    def _finish_reference(self, aux: Dict[str, float], max_norm: float) -> Dict[str, float]:
        from repro.nn.optim import clip_grad_norm

        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        handle = tracer.begin("update/optimizer") if traced else None
        grad_norm = clip_grad_norm(self.optimizer.params, max_norm)
        self.optimizer.step()
        if traced:
            tracer.end(handle)
        out = {name: float(value) for name, value in aux.items()}
        out["grad_norm"] = grad_norm
        return out

    def _apply_flat_step(
        self, stats: Dict[str, float], max_norm: float
    ) -> Dict[str, float]:
        from repro.nn.optim import clip_flat_grads

        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        handle = tracer.begin("update/optimizer") if traced else None
        grad_norm = clip_flat_grads(self._flat_grad, max_norm)
        self.optimizer.step_flat(self._flat_grad)
        # borrowed gradients: diagnostics can read them until the next replay
        for p, view in zip(self.optimizer.params, self._grad_views):
            p.grad = view
            p._grad_owned = False
        if traced:
            tracer.end(handle)
        stats["grad_norm"] = grad_norm
        return stats

    def _refuse(self, key: Any, reason: str) -> None:
        self._uncompilable[key] = reason
        self.stats.fallbacks += 1

    # ------------------------------------------------------------------ #
    # the fused program
    # ------------------------------------------------------------------ #

    def _run_fused(
        self,
        plan: _TrainPlan,
        glue: Any,
        actions: np.ndarray,
        consts: Dict[str, Any],
    ) -> Dict[str, float]:
        """Forward + backward as straight-line NumPy, gradients into the arena.

        Every kernel mirrors the exact expression (and, for shared-operand
        accumulations, the exact tape execution order) the reference autograd
        run performs, minus dead branches — gradients of constants the tape
        computes and then discards (input features, return targets, the
        mean-pool divisor, softmax shifts) are simply not computed.  Bitwise
        equality with the tape is asserted at capture before any replay runs.
        """
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        handle = tracer.begin("update/forward") if traced else None

        net = self._net
        fu = net.fusion
        feats = glue.feats
        adj = glue.adj
        gids = glue.graph_ids
        n = glue.batch
        n_f = float(n)
        m = feats.shape[0]
        hidden = net.hidden
        num_layers = len(net.convs)

        fwd = _fused_forward(net, plan, glue)
        layer_out, layer_mask = fwd.layer_out, fwd.layer_mask
        h = layer_out[-1]
        mp, counts_col, values = fwd.mp, fwd.counts_col, fwd.values
        ready_h, ctx, pooled = fwd.ready_h, fwd.ctx, fwd.pooled
        pmask, pcounts = fwd.pmask, fwd.pcounts
        logits = fwd.logits
        r = glue.ready_rows.size
        p_count = glue.pass_idx.size
        s_total = logits.shape[0]
        proc_dim = glue.proc_stack.shape[1]

        # ---- segment log-softmax over the per-graph action segments ---- #
        segs = np.repeat(np.arange(n), glue.num_actions)
        act_starts = glue.action_offsets[:-1]
        shift = plan.buf("shift", (n,))
        np.maximum.reduceat(logits, act_starts, out=shift)
        sg = plan.buf("sg", (s_total,))
        np.take(shift, segs, out=sg)
        z = plan.buf("z", (s_total,))
        np.subtract(logits, sg, out=z)
        np.exp(z, out=z)
        zs = plan.buf("zs", (n,))
        np.add.reduceat(z, act_starts, out=zs)
        lse = plan.buf("lse", (n,))
        np.log(zs, out=lse)
        np.add(lse, shift, out=lse)
        logp = plan.buf("logp", (s_total,))
        np.take(lse, segs, out=sg)
        np.subtract(logits, sg, out=logp)
        action_rows = act_starts + actions
        logp_a = plan.buf("logp_a", (n,))
        np.take(logp, action_rows, out=logp_a)

        # ---- loss terms ---- #
        returns = np.asarray(consts["returns"], dtype=np.float64)
        vc = consts["value_coef"]
        ec = consts["entropy_coef"]
        pl = plan.buf("pl", (n,))
        if plan.kind == "a2c":
            advantages = returns - values
            if consts["normalize_advantage"]:
                advantages = (advantages - advantages.mean()) / (
                    advantages.std() + 1e-8
                )
            neg_adv = -advantages
            np.multiply(logp_a, neg_adv, out=pl)
        else:  # ppo
            old = np.asarray(consts["old_log_probs"], dtype=np.float64)
            advantages = np.asarray(consts["advantages"], dtype=np.float64)
            eps = consts["clip_epsilon"]
            tdiff = plan.buf("tdiff", (n,))
            np.subtract(logp_a, old, out=tdiff)
            ratio = plan.buf("ratio", (n,))
            np.exp(tdiff, out=ratio)
            lo, hi = 1.0 - eps, 1.0 + eps
            clipped = ((advantages >= 0.0) & (ratio > hi)) | (
                (advantages < 0.0) & (ratio < lo)
            )
            neg_adv = np.where(clipped, 0.0, -advantages)
            np.multiply(ratio, neg_adv, out=pl)
        policy_loss = np.sum(pl) / n_f
        diff = plan.buf("diff", (n,))
        np.subtract(values, returns, out=diff)
        sq = plan.buf("sq", (n,))
        np.multiply(diff, diff, out=sq)
        value_loss = np.sum(sq) / n_f
        pe = plan.buf("pe", (s_total,))
        np.exp(logp, out=pe)
        em = plan.buf("em", (s_total,))
        np.multiply(pe, logp, out=em)
        entropy = (-np.sum(em)) / n_f
        loss = (policy_loss + value_loss * vc) - entropy * ec

        if traced:
            tracer.end(handle)
            handle = tracer.begin("update/backward")

        # ---- backward: the tape's execution order, dead branches elided ---- #
        views = self._grad_views
        # scalar seeds, chained exactly as the tape's closures compute them
        g_ent_sum = -((-1.0 * ec) / n_f)  # loss → ·ec → /n → neg → ent-sum
        g_sq_sum = (1.0 * vc) / n_f  # loss → ·vc → /n → sq-sum
        g_pl_sum = 1.0 / n_f  # loss → /n → policy-sum

        # entropy → logp: contribution (1) through the p·logp product, then
        # (2) through exp, in the tape's accumulation order
        glogp = plan.buf("glogp", (s_total,))
        np.multiply(pe, g_ent_sum, out=glogp)
        np.multiply(logp, g_ent_sum, out=em)  # em is dead; reuse as scratch
        np.multiply(em, pe, out=em)
        np.add(glogp, em, out=glogp)

        # value head (the tape runs this branch before the policy chain)
        gdiff = plan.buf("gdiff", (n,))
        np.multiply(diff, g_sq_sum, out=gdiff)
        np.add(gdiff, gdiff, out=gdiff)  # diff feeds both mul operands
        gvb = gdiff.reshape(n, 1)
        np.matmul(mp.T, gvb, out=views[self._iWv])
        np.sum(gvb, axis=0, out=views[self._ibv])
        gmp = plan.buf("gmp", (n, hidden))
        np.matmul(gvb, net.value.weight.data.T, out=gmp)
        np.divide(gmp, counts_col, out=gmp)
        gh = plan.buf("gh", (m, hidden))
        if fu is None:
            np.take(gmp, gids, axis=0, out=gh)  # h contribution (1): mean pool

        # policy seed → logp contribution (3): a zeros-scatter added in full,
        # mirroring the tape's whole-array `+=`
        gseed = plan.buf("gseed", (n,))
        np.multiply(neg_adv, g_pl_sum, out=gseed)
        if plan.kind == "ppo":
            np.multiply(gseed, ratio, out=gseed)  # through exp(logp - old)
        scat_a = plan.buf("scat_a", (s_total,))
        scat_a.fill(0.0)
        scat_a[action_rows] = gseed
        np.add(glogp, scat_a, out=glogp)

        # log-softmax backward (reduceat mirror of the lse chain)
        gneg = plan.buf("gneg", (s_total,))
        np.negative(glogp, out=gneg)
        glse = plan.buf("glse", (n,))
        glse.fill(0.0)
        np.add.at(glse, segs, gneg)  # lse[ids] gathers with duplicates
        np.divide(glse, zs, out=glse)
        gz = plan.buf("gz", (s_total,))
        np.take(glse, segs, out=gz)
        np.multiply(gz, z, out=gz)
        glogits = plan.buf("glogits", (s_total,))
        np.add(glogp, gz, out=glogits)

        # undo the batch-order permutation; split into task/pass halves
        gcomb = plan.buf("gcomb", (s_total,))
        gcomb[glue.perm] = glogits
        gtask = gcomb[:r].reshape(r, 1)
        gpass = gcomb[r:].reshape(p_count, 1)

        # pass head backward → h contribution (2) through the max pool
        np.sum(gpass, axis=0, out=views[self._ibp])
        gctx = plan.buf("gctx", (p_count, hidden + proc_dim))
        np.matmul(gpass, net.pass_.weight.data.T, out=gctx)
        np.matmul(ctx.T, gpass, out=views[self._iWp])
        gpooled = plan.buf("gpooled", (n, hidden))
        gpooled.fill(0.0)
        gpooled[glue.pass_idx] = gctx[:, :hidden]
        if fu is None:
            # the max pool's tie mask and tie counts (the C core's pool_fwd
            # produced them in the forward sweep)
            pmask = plan.buf("pmask", (m, hidden), np.bool_)
            pcounts = plan.buf("pcounts", (n, hidden))
            gather_a = plan.buf("gather_a", (m, hidden))
            np.take(pooled, gids, axis=0, out=gather_a)
            np.equal(h, gather_a, out=pmask)
            gather_b = plan.buf("gather_b", (m, hidden))
            np.copyto(gather_b, pmask, casting="unsafe")
            np.add.reduceat(gather_b, fwd.node_starts, axis=0, out=pcounts)
            np.take(gpooled, gids, axis=0, out=gather_a)
            np.take(pcounts, gids, axis=0, out=gather_b)
            np.divide(gather_a, gather_b, out=gather_a)
            notm = plan.buf("notm", (m, hidden), np.bool_)
            np.logical_not(pmask, out=notm)
            np.copyto(gather_a, 0.0, where=notm)
            np.add(gh, gather_a, out=gh)

        # task head backward → h contribution (3), a zeros-scatter in full
        np.sum(gtask, axis=0, out=views[self._ibt])
        gready = plan.buf("gready", (r, hidden))
        np.matmul(gtask, net.task.weight.data.T, out=gready)
        np.matmul(ready_h.T, gtask, out=views[self._iWt])
        if fu is None:
            scat_h = plan.buf("scat_h", (m, hidden))
            scat_h.fill(0.0)
            scat_h[glue.ready_rows] = gready
            np.add(gh, scat_h, out=gh)
        else:
            # one pass over gh: gather(gmp) + masked gather(gpooled/pcounts)
            # + ready-row scatter, in the tape's left-to-right accumulation
            # order (divide-before-gather is per-element IEEE-identical)
            np.divide(gpooled, pcounts, out=gpooled)
            ready_inv = plan.buf("ready_inv", (m,), np.int64)
            ready_inv.fill(-1)
            ready_inv[glue.ready_rows] = np.arange(r)
            fu.gh_accum(gids, ready_inv, gmp, gpooled, pmask, gready, gh)

        # GCN stack backward, deepest layer first; the input-feature gradient
        # the tape computes and discards is simply never formed
        adj_t = _transpose_csr(adj)
        ga = plan.buf("ga", (m, hidden))
        ghw = plan.buf("ghw", (m, hidden))
        gcur = gh
        for i in range(num_layers - 1, -1, -1):
            if fu is not None:
                fu.relu_bwd(gcur, layer_mask[i], ga, views[2 * i + 1])
                fu.spmm(adj_t.indptr, adj_t.indices, adj_t.data, ga, ghw)
            else:
                np.multiply(gcur, layer_mask[i], out=ga)  # relu backward
                np.sum(ga, axis=0, out=views[2 * i + 1])
                _csr_matmul_out(adj_t, ga, ghw)
            h_in = feats if i == 0 else layer_out[i - 1]
            np.matmul(h_in.T, ghw, out=views[2 * i])
            if i > 0:
                np.matmul(ghw, net.convs[i].weight.data.T, out=gh)
                gcur = gh

        if traced:
            tracer.end(handle)

        out = {
            "loss": float(loss),
            "policy_loss": float(policy_loss),
            "value_loss": float(value_loss),
            "entropy": float(entropy),
        }
        if plan.kind == "ppo":
            out["clip_fraction"] = float(np.count_nonzero(clipped)) / n_f
            out["approx_kl"] = float(np.mean(old - logp_a))
        return out
