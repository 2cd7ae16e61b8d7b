"""The repository's end-to-end benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-k8 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (``src/repro`` must be there).  The run
drives the real entrypoints in fresh processes (``ReadysTrainer.from_spec``
-> ``train_updates``, ``evaluate_streaming`` over ``AgentPolicy``, the
``python -m repro serve`` daemon), checks their outputs and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Digests and check results are printed on the
lines before it.  Any failed check prints ``"correct": false`` and exits 1.

The work of a run is a function of ``--seed`` and ``--seconds`` alone: a
fixed list of rounds, each a fresh process doing a fixed number of
unroll+update cycles, episodes or requests (``--seconds`` scales those
counts; the run is never cut by a clock).  Two runs of one seed therefore do
identical work and differ only in time.  Every timing is scaled to the
reference host speed by host-speed marks set around the timed work (see
``hostspeed.py``); the median mark of each round is printed on the line
before the result.  Everything the run builds — the C
fusion core and the seeded inputs, keyed by seed and a hash of ``src/`` —
goes under ``.bench_build/perfbench`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

# one BLAS thread, as in every child (see child_env), set before the
# host-speed probe loads NumPy in this process
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import serve_load  # noqa: E402  (standard library only)
from hostspeed import HostSpeed  # noqa: E402
from inputs import EVAL_AGENTS  # noqa: E402

#: fresh processes per run; set-up is the median over them, and the train
#: and eval rounds each draw their own seed-derived trainer or agent
ROUNDS = {"train-k8": 6, "train-k8-compiled": 6, "eval-stream": 6, "serve-closed": 4}
#: nominal work per second of --seconds, split evenly over the rounds
TRAIN_CYCLES_PER_S = 10.0
EVAL_EPISODES_PER_S = 3.2
SERVE_REQUESTS_PER_S = 1600.0
#: host-speed marks split each serve round's load into this many segments
SERVE_SEGMENTS = 12
#: a round takes seconds; a hung one fails the run well inside its limit
ROUND_TIMEOUT_S = 60.0
BUILD_DIR = os.path.join(".bench_build", "perfbench")

E2E_UNITS = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "slowdown_mean": "ratio",
}

LAYER_UNITS = {
    "sim.step.share": "ratio",
    "sim.step.us_per_call": "us",
    "sim.state.share": "ratio",
    "sim.state.us_per_obs": "us",
    "sim.reset.share": "ratio",
    "sim.obs_nodes_mean": "count",
    "sim.live_jobs_mean": "count",
    "nn.sparse.block_diag.share": "ratio",
    "nn.gcn_normalize.share": "ratio",
    "nn.compile.infer.hit_rate": "ratio",
    "nn.compile.infer.evictions": "count",
    "nn.compile.infer.arena_mb": "MB",
    "nn.compile.train.hit_rate": "ratio",
    "nn.compile.train.fallbacks": "count",
    "nn.compile.train.arena_mb": "MB",
    "nn.fusion.loaded": "bool",
    "nn.optim.step.share": "ratio",
    "proc.rss_mb_per_100_updates": "MB/100updates",
    "rl.unroll.share": "ratio",
    "rl.agent.forward.share": "ratio",
    "rl.agent.forward.us_per_call": "us",
    "rl.agent.batch_mean": "count",
    "rl.a2c.update.share": "ratio",
    "rl.a2c.update.ms_per_call": "ms",
    "schedulers.heft.share": "ratio",
    "policy.codec.decode_us_per_req": "us",
    "policy.codec.encode_us_per_reply": "us",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p90": "ms",
    "serve.forward_ms_per_batch": "ms",
    "serve.batch_size_mean": "count",
    "serve.retry_after": "count",
    "serve.timeouts": "count",
    "serve.errors": "count",
    "bench.trace_overhead": "ratio",
    "bench.unattributed.share": "ratio",
    "bench.host_slowdown": "ratio",
}

#: spans whose share is their inclusive time (the phases of a training
#: cycle); every other share is self time
INCLUSIVE_SHARES = ("rl.unroll", "rl.a2c.update")

clock = time.perf_counter


class BenchError(RuntimeError):
    """A round failed to run (as opposed to producing wrong outputs)."""


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def source_key(root: str) -> str:
    """Hash of ``src/`` and of the benchmark code that generates inputs."""
    digest = hashlib.sha256()
    files = []
    for base, dirs, names in os.walk(os.path.join(root, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        files += [os.path.join(base, n) for n in names if not n.endswith(".pyc")]
    files += [os.path.join(HERE, n) for n in ("inputs.py", "worker.py")]
    for path in sorted(files):
        digest.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # pin the fusion core's build cache inside the checkout: a read-only
    # ~/.cache would otherwise silently drop the compiled workload to NumPy
    env["REPRO_FUSION_CACHE"] = os.path.join(root, BUILD_DIR, "fusion")
    env.pop("REPRO_NO_FUSION", None)
    # one BLAS thread per process: the serve load generator shares the two
    # cores with the server, and a spinning BLAS helper thread competes with it
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(command: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    """Run a worker; returns its JSON result plus ``setup_s`` from launch."""
    started = clock()
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    setup_s = None
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=ROUND_TIMEOUT_S):
                raise BenchError(f"round silent for {ROUND_TIMEOUT_S:.0f} s")
        first = proc.stdout.readline()
        if first == "SETUP\n":
            setup_s = clock() - started
            first = ""
        rest, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{command[1]} exited with {proc.returncode}")
    result = json.loads((first + rest).strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def prepare(root: str, env: Dict[str, str], workload: str, seed: int) -> str:
    """Build the fusion core and the seed's inputs (untimed, cached).

    Returns the inputs directory.
    """
    key = source_key(root)
    build = os.path.join(root, BUILD_DIR)
    os.makedirs(build, exist_ok=True)
    warm_marker = os.path.join(build, f"warm-{key}")
    if not os.path.exists(warm_marker):
        run_child([sys.executable, os.path.join(HERE, "worker.py"), "warm"], env)
        open(warm_marker, "w").close()
    part = workload.split("-")[0]
    inputs = os.path.join(build, "inputs", f"{key}-s{seed}-{part}")
    if part in ("eval", "serve") and not os.path.isdir(inputs):
        tmp = inputs + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        command = [sys.executable, os.path.join(HERE, "inputs.py"), part, str(seed), tmp]
        # the eval agents are cloned in two processes, one per core
        shards = [
            [str(i) for i in range(k, EVAL_AGENTS, 2)] for k in range(2)
        ] if part == "eval" else [[]]
        procs = [
            subprocess.Popen(command + shard, env=env, stdout=subprocess.DEVNULL)
            for shard in shards
        ]
        try:
            codes = [proc.wait(timeout=ROUND_TIMEOUT_S) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if any(codes):
            raise BenchError(f"input generation exited with {codes}")
        os.rename(tmp, inputs)
    return inputs


# --------------------------------------------------------------------- #
# train / eval
# --------------------------------------------------------------------- #


def worker_rounds(workload: str, seed: int, seconds: int, trace: bool,
                  inputs: str, env: Dict[str, str]) -> List[Dict[str, Any]]:
    rounds = []
    n = ROUNDS[workload]
    for r in range(n):
        if workload.startswith("train"):
            cfg = {
                "kind": "train", "seed": seed * 1000 + r,
                "compiled": workload == "train-k8-compiled",
                # a Cholesky T=6 episode takes ~70 decisions: 6 cycles of
                # unroll 20 finish at least one per env
                "cycles": max(6, round(seconds * TRAIN_CYCLES_PER_S / n)),
            }
        else:
            cfg = {
                "kind": "eval", "seed": seed * 1000 + r,
                "agent": os.path.join(inputs, f"eval-agent-{r % EVAL_AGENTS}.npz"),
                "episodes": max(1, round(seconds * EVAL_EPISODES_PER_S / n)),
                "episode_seed": seed * 1000 + 100 + r,
            }
        cfg["trace"] = trace
        command = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)]
        speed = HostSpeed()
        speed.mark()
        out = run_child(command, env)
        if out["setup_s"] is not None:
            # set-up lies between this mark and the child's first
            out["setup_s"] /= (speed.marks[0] + out["first_mark"]) / 2.0
        rounds.append(out)
    return rounds


def worker_e2e(rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    samples = [s for r in rounds for s in r["samples_ms"]]
    slowdowns = [s for r in rounds for s in r["slowdowns"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "decisions_per_s": sum(r["decisions"] for r in rounds)
        / sum(r["steady_s"] for r in rounds),
        "latency_ms_p50": percentile(samples, 0.5),
        "latency_ms_p90": percentile(samples, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "slowdown_mean": sum(slowdowns) / len(slowdowns),
    }


def at_reference(spans: Dict[str, Dict[str, float]], slowdown: float) -> Dict[str, Dict[str, float]]:
    """One round's span totals scaled to the reference host speed."""
    return {
        name: {f: v / slowdown if f in ("total", "self") else v for f, v in stat.items()}
        for name, stat in spans.items()
    }


def _span(spans: List[Dict[str, Any]], name: str) -> Dict[str, float]:
    total = {"calls": 0.0, "total": 0.0, "self": 0.0, "items": 0.0}
    for sp in spans:
        for field, value in sp.get(name, {}).items():
            total[field] += value
    return total


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: List[Dict[str, Any]], traffic: List[Dict[str, int]],
                  wall: float, covered: float, overhead: float,
                  host_slowdown: float) -> Dict[str, float]:
    """Shares and per-call costs common to every workload."""
    out = {name: 0.0 for name in LAYER_UNITS}
    for name in sorted({n for sp in spans for n in sp}):
        stat = _span(spans, name)
        key = "total" if name in INCLUSIVE_SHARES else "self"
        out[f"{name}.share"] = stat[key] / wall
    step = _span(spans, "sim.step")
    state = _span(spans, "sim.state")
    fwd = _span(spans, "rl.agent.forward")
    upd = _span(spans, "rl.a2c.update")
    seen = sum(t["observations"] for t in traffic)
    out.update({
        "sim.step.us_per_call": _per(step["self"], step["calls"], 1e6),
        "sim.state.us_per_obs": _per(state["self"], state["items"], 1e6),
        "sim.obs_nodes_mean": _per(sum(t["nodes"] for t in traffic), seen),
        "sim.live_jobs_mean": _per(sum(t["jobs"] for t in traffic), seen),
        "rl.agent.forward.us_per_call": _per(fwd["total"], fwd["calls"], 1e6),
        "rl.agent.batch_mean": _per(fwd["items"], fwd["calls"]),
        "rl.a2c.update.ms_per_call": _per(upd["total"], upd["calls"], 1e3),
        "bench.trace_overhead": overhead,
        "bench.unattributed.share": 1.0 - covered / wall,
        "bench.host_slowdown": host_slowdown,
    })
    return {name: out[name] for name in LAYER_UNITS}


def worker_layers(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, float]:
    out = layer_metrics(
        [at_reference(t["spans"], t["host_slowdown"]) for t in traced],
        [t["traffic"] for t in traced],
        wall=sum(t["wall_s"] / t["host_slowdown"] for t in traced),
        covered=sum(t["covered_s"] / t["host_slowdown"] for t in traced),
        overhead=sum(t["steady_s"] for t in traced) / sum(r["steady_s"] for r in plain),
        host_slowdown=statistics.median(r["host_slowdown"] for r in plain + traced),
    )
    out["nn.fusion.loaded"] = float(min(r["fusion_loaded"] for r in plain + traced))
    if "compile" in plain[0]:
        for field in plain[0]["compile"]:
            group, stat = field.split("_", 1)
            out[f"nn.compile.{group}.{stat}"] = statistics.fmean(
                r["compile"][field] for r in plain
            )
        # the second half of each round: past warm-up, growth is retention
        out["proc.rss_mb_per_100_updates"] = statistics.fmean([
            slope(r["rss_mb"][len(r["rss_mb"]) // 2:]) for r in plain
        ])
    return out


def slope(values: List[float]) -> float:
    """Least-squares slope of ``values`` over their index, times 100."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    num = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return 100.0 * num / den


def worker_checks(workload: str, plain: List[Dict[str, Any]],
                  traced: List[Dict[str, Any]]) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}
    for r in plain + traced:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
        if r["setup_s"] is None:
            checks["setup_signalled"] = False
    if traced:
        checks["digests_equal_traced"] = all(
            p["digest"] == t["digest"] for p, t in zip(plain, traced)
        )
    if workload == "train-k8-compiled":
        # the compiled workload exists to measure the fused kernels
        checks["fusion_core_loaded"] = all(r["fusion_loaded"] for r in plain + traced)
    return checks


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #


def serve_rounds(seconds: int, inputs: str, env: Dict[str, str],
                 spans_out: List[str] = ()) -> List[Dict[str, Any]]:
    with open(os.path.join(inputs, "serve-stream.json")) as fh:
        stream = json.load(fh)
    n = ROUNDS["serve-closed"]
    per_session = max(2, round(seconds * SERVE_REQUESTS_PER_S / (n * serve_load.SESSIONS)))
    sock = os.path.join(BUILD_DIR, "serve.sock")  # relative: short AF_UNIX path
    serve_args = [
        "--checkpoint", os.path.join(inputs, "serve-agent.npz"),
        "--unix-socket", sock,
    ]
    rounds = []
    for r in range(n):
        # host-speed marks: before the launch, after set-up and after each
        # load segment (the server is idle at each)
        speed = HostSpeed()
        speed.mark()
        if spans_out:
            command = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                       spans_out[r], *serve_args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        out = serve_load.run_round(
            command, env, sock, stream["bodies"], stream["actions"], per_session,
            SERVE_SEGMENTS, speed.mark,
        )
        out["setup_s"] /= speed.between(0)
        # segment i lies between marks i + 1 and i + 2
        raw_load_s = sum(out["load_s"])
        out["load_s"] = sum(t / speed.between(i + 1) for i, t in enumerate(out["load_s"]))
        out["latencies_ms"] = [
            x / speed.between(i + 1)
            for i, seg in enumerate(out["latencies_ms"]) for x in seg
        ]
        # the load's mean slowdown, by which the server's span totals scale
        out["host_slowdown"] = raw_load_s / out["load_s"]
        out["digest"] = hashlib.sha256(json.dumps(out.pop("actions")).encode()).hexdigest()[:16]
        if spans_out:
            with open(spans_out[r]) as fh:
                out["traced"] = json.load(fh)
        rounds.append(out)
    return rounds


def serve_e2e(rounds: List[Dict[str, Any]], slowdown_mean: float) -> Dict[str, float]:
    samples = [s for r in rounds for s in r["latencies_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "decisions_per_s": sum(r["ok_load"] for r in rounds)
        / sum(r["load_s"] for r in rounds),
        "latency_ms_p50": percentile(samples, 0.5),
        "latency_ms_p90": percentile(samples, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        # a constant of the seed's inputs: the slowdown of the recorded
        # episodes, whose decisions every served reply must equal
        # (replies_equal_recorded), not a figure the served rounds measure
        "slowdown_mean": slowdown_mean,
    }


def serve_layers(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, float]:
    spans = [at_reference(r["traced"]["spans"], r["host_slowdown"]) for r in traced]
    out = layer_metrics(
        spans, [r["traced"]["traffic"] for r in traced],
        wall=sum(r["load_s"] for r in traced),
        covered=sum(r["traced"]["covered_s"] / r["host_slowdown"] for r in traced),
        overhead=sum(r["load_s"] for r in traced) / sum(r["load_s"] for r in plain),
        host_slowdown=statistics.median(r["host_slowdown"] for r in plain + traced),
    )
    decode = _span(spans, "policy.codec.decode")
    encode = _span(spans, "policy.codec.encode")
    forward = _span(spans, "serve.forward")
    waits = [
        w / r["host_slowdown"] for r in traced for w in r["traced"]["queue_wait_ms"]
    ]
    stats = [r["stats"] for r in traced]
    out.update({
        "policy.codec.decode_us_per_req": _per(decode["total"], decode["calls"], 1e6),
        "policy.codec.encode_us_per_reply": _per(encode["total"], encode["calls"], 1e6),
        "serve.queue_wait_ms_p50": percentile(waits, 0.5) if waits else 0.0,
        "serve.queue_wait_ms_p90": percentile(waits, 0.9) if waits else 0.0,
        "serve.forward_ms_per_batch": _per(forward["total"], forward["calls"], 1e3),
        "serve.batch_size_mean": _per(
            sum(s["batched_requests_total"] for s in stats),
            sum(s["batches_total"] for s in stats),
        ),
        "serve.retry_after": float(sum(s["retry_after_total"] for s in stats)),
        "serve.timeouts": float(sum(s["timeout_total"] for s in stats)),
        "serve.errors": float(sum(s["error_total"] for s in stats)),
        # only the compiled training step loads the C core; serving never does
        "nn.fusion.loaded": 0.0,
    })
    return out


def serve_checks(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, bool]:
    every = plain + traced
    checks = {
        "replies_ok": all(set(r["statuses"]) == {"ok"} for r in every),
        "replies_equal_recorded": all(r["mismatches"] == 0 for r in every),
    }
    if traced:
        checks["digests_equal_traced"] = all(
            p["digest"] == t["digest"] for p, t in zip(plain, traced)
        )
    return checks


# --------------------------------------------------------------------- #


def run(workload: str, seed: int, seconds: int, trace: bool, root: str) -> Dict[str, Any]:
    env = child_env(root)
    inputs = prepare(root, env, workload, seed)
    if workload == "serve-closed":
        plain = serve_rounds(seconds, inputs, env)
        traced: List[Dict[str, Any]] = []
        if trace:
            spans_dir = os.path.join(root, BUILD_DIR, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            files = [
                os.path.join(spans_dir, f"serve-{r}.json")
                for r in range(ROUNDS["serve-closed"])
            ]
            traced = serve_rounds(seconds, inputs, env, files)
        checks = serve_checks(plain, traced)
        if trace:
            metrics = serve_layers(plain, traced)
        else:
            with open(os.path.join(inputs, "serve-stream.json")) as fh:
                metrics = serve_e2e(plain, json.load(fh)["slowdown_mean"])
        attempted = sum(sum(r["statuses"].values()) for r in plain + traced)
        failed = sum(
            n for r in plain + traced for s, n in r["statuses"].items() if s != "ok"
        )
        digests = [r["digest"] for r in plain]
    else:
        plain = worker_rounds(workload, seed, seconds, False, inputs, env)
        traced = worker_rounds(workload, seed, seconds, True, inputs, env) if trace else []
        checks = worker_checks(workload, plain, traced)
        metrics = worker_layers(plain, traced) if trace else worker_e2e(plain)
        attempted = sum(r["attempted"] for r in plain + traced)
        failed = sum(r.get("failed", 0) for r in plain + traced)
        digests = [r["digest"] for r in plain]
    host = [round(r["host_slowdown"], 3) for r in plain + traced]
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "checks": checks,
        "digests": digests,
        "host": host,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchError, serve_load.LoadError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    correct = all(result["checks"].values()) and result["failed"] == 0
    for name, ok in sorted(result["checks"].items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print("digest " + " ".join(result["digests"]))
    print("host_slowdown " + " ".join(map(str, result["host"])))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
