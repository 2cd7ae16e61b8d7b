"""``repro serve`` with layer spans, for the traced serve phase.

``python3 perfbench/serve_launcher.py <spans_out.json> <serve args...>``
wraps the codec functions at their import sites in ``repro.serve.server``
and the ``AgentPolicy``/agent forwards, runs the CLI entrypoint of
``python -m repro serve <serve args...>``, and after the drain writes
the span totals and the per-request queue waits to ``spans_out.json``.

Queue wait runs from the end of a request's decode span to the start of the
``decide_many`` span that answers it; the decoded observation object links
the two.
"""

from __future__ import annotations

import json
import sys
import time

from spans import SpanRecorder
from worker import Traffic


def main(argv) -> int:
    out_path = argv[0]
    import repro.serve.server as server_mod
    from repro.cli import main as cli_main
    from repro.policy.api import AgentPolicy
    from repro.rl.agent import ReadysAgent

    recorder = SpanRecorder()
    traffic = Traffic()
    decoded_at = {}
    waits_ms = []
    clock = time.perf_counter

    def mark_decoded(args, kwargs, request) -> None:
        decoded_at[id(request.obs)] = clock()

    recorder.wrap(server_mod, "decode_request", "policy.codec.decode",
                  count=lambda a, k, r: 1.0, observe=mark_decoded)
    recorder.wrap(server_mod, "encode_reply", "policy.codec.encode",
                  count=lambda a, k, r: 1.0)
    recorder.wrap(ReadysAgent, "greedy_actions", "rl.agent.forward",
                  count=lambda a, k, r: float(len(a[1])), observe=traffic.batch)
    recorder.wrap(ReadysAgent, "greedy_action", "rl.agent.forward",
                  count=lambda a, k, r: 1.0, observe=traffic.single)

    # the queue wait ends where decide_many starts, so it is taken before
    # the span of decide_many opens
    inner_decide_many = AgentPolicy.decide_many

    def decide_many(self, obs_list):
        now = clock()
        for obs in obs_list:
            started = decoded_at.pop(id(obs), None)
            if started is not None:
                waits_ms.append(1e3 * (now - started))
        return inner_decide_many(self, obs_list)

    AgentPolicy.decide_many = decide_many
    recorder.wrap(AgentPolicy, "decide_many", "serve.forward",
                  count=lambda a, k, r: float(len(a[1])))

    code = cli_main(["serve", *argv[1:]])
    with open(out_path, "w") as fh:
        json.dump({
            "spans": recorder.to_dict(),
            "covered_s": recorder.covered(),
            "queue_wait_ms": waits_ms,
            "traffic": vars(traffic),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
