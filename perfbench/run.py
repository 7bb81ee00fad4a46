"""End-to-end benchmark of the vids pipeline (see README.md).

    python3 perfbench/run.py --workload supervised-pcap --seed 1 --seconds 30 --trace 0

Each run is one fresh interpreter.  It makes its input, then replays
that same input in a fixed number of whole rounds, set by ``--seconds``
alone, timing set-up in child interpreters between rounds.  A round builds a pipeline with
``repro.live.frontend.build_pipeline`` and feeds it closed-loop in 50 ms
windows of capture time, one ``process_batch`` call per window, then
drains it the way the replay path does.  Every round is
checked against the generator's own records.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of :mod:`layers` with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mixed-pcap", "sip-churn", "supervised-pcap")
#: Capture time per ``process_batch`` call: the live tap's default
#: ``flush_interval``.
WINDOW_S = 0.05
MIN_WINDOWS = 1000
#: Shards of the supervised topology.
SHARDS = 4
#: Set-up is timed this many times, each in a fresh interpreter, spread
#: evenly between the rounds of the run.
SETUP_PROBES = 9
#: Seconds budgeted for one untraced round; every input is sized so a
#: round takes about this long.  A run does ``--seconds / ROUND_S``
#: rounds (at least MIN_ROUNDS), so the number of rounds depends on the
#: arguments only, never on how fast the program under test happens to
#: be.
ROUND_S = 2.0
MIN_ROUNDS = 2


def round_count(seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S))


def topology(workload: str) -> dict:
    if workload == "supervised-pcap":
        return {"shards": SHARDS, "supervise": True}
    return {}


def probe_setup(workload: str) -> None:
    """Child side of the set-up timing: import, build, report, exit."""
    sys.path.insert(0, str(SRC))
    from repro.live.frontend import build_pipeline
    import repro.live.pcap  # noqa: F401 - the pcap workloads decode with it
    build_pipeline(**topology(workload))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def time_setup(workload: str) -> float:
    """Seconds from interpreter start to a built pipeline, in a child."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--probe-setup", "--workload", workload],
            stdout=subprocess.PIPE, cwd=str(ROOT)) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line != b"ready\n" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def clear_program_caches() -> None:
    """Empty the program's module-level memo caches before a round.

    Parse caches and the like are process-global; emptying them makes
    every round pay for them cold, as a fresh process would, instead of
    replaying identical bytes into caches the previous round filled.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and module is not None:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def windows(items):
    """Cut a time-ordered ``[(datagram, time)]`` into 50 ms windows."""
    batch = []
    end = WINDOW_S
    for item in items:
        if item[1] >= end:
            if batch:
                yield batch, end
                batch = []
            end = (int(item[1] / WINDOW_S) + 1) * WINDOW_S
        batch.append(item)
    if batch:
        yield batch, end


class Round:
    """The outcome of one timed pass.

    ``steps_ns`` times the pass step by step — decode, then each window
    (its ``process_batch`` call plus the clock advance to the window's
    end), then the drain — and ``flush_ns`` the ``process_batch`` calls
    alone.  Rounds replay identical input, so their steps line up.
    """

    def __init__(self, pipeline, offered, wall_s, steps_ns, flush_ns):
        self.pipeline = pipeline
        self.offered = offered
        self.wall_s = wall_s
        self.steps_ns = steps_ns
        self.flush_ns = flush_ns
        metrics = pipeline.metrics
        self.failed = (metrics.packets_shed + metrics.quarantined_drops
                       + metrics.internal_errors)
        self.inspected = offered - self.failed


def replay(workload, build_pipeline, load_pcap, source, tracer=None):
    """One closed-loop pass: decode (pcap workloads), windows, drain.

    ``source`` is pcap bytes, or ``[(datagram, time)]`` already in hand.
    """
    from repro.live.replay import rebase_capture

    clear_program_caches()
    pipeline, clock = build_pipeline(**topology(workload))
    config = pipeline.config
    process_batch = pipeline.process_batch
    # Every round starts from the same collector state, so collections
    # land in the same windows from one round to the next.
    gc.collect()
    if tracer is not None:
        tracer.start()
    perf = time.perf_counter_ns
    start = perf()
    if isinstance(source, bytes):
        capture = rebase_capture(load_pcap(io.BytesIO(source)))
        items = [(packet.datagram, packet.time) for packet in capture]
        del capture
    else:
        items = source
    steps_ns = [perf() - start]
    flush_ns = []
    for batch, end in windows(items):
        begin = perf()
        process_batch(batch, clock=clock)
        flushed = perf()
        if end > clock.now():
            clock.advance(end - clock.now())
        steps_ns.append(perf() - begin)
        flush_ns.append(flushed - begin)
        if tracer is not None:
            tracer.window_boundary(pipeline)
    begin = perf()
    clock.advance(config.bye_inflight_timer + config.closed_record_linger
                  + 1.0)
    pipeline.flush_shed_interval()
    finish = perf()
    steps_ns.append(finish - begin)
    if tracer is not None:
        tracer.stop(pipeline)
    return Round(pipeline, len(items), (finish - start) / 1e9, steps_ns,
                 flush_ns)


def churn_items(seed: int):
    """The churn dialogs as ``[(datagram, time)]``, and their truth."""
    from repro.netsim.address import Endpoint
    from repro.netsim.packet import Datagram
    from inputs import SIP_PORT, churn_dialogs

    packets, truth = churn_dialogs(seed)
    items = [(Datagram(Endpoint(src, SIP_PORT), Endpoint(dst, SIP_PORT),
                       payload, created_at=when), when)
             for when, src, dst, payload in packets]
    digest = hashlib.sha256()
    for when, src, dst, payload in packets:
        digest.update(f"{when:.6f} {src} {dst} ".encode())
        digest.update(payload)
    truth["sha256"] = digest.hexdigest()
    return items, truth


def load_input(workload: str, seed: int):
    """The run's input (pcap bytes or datagrams) and its ground truth."""
    if workload == "sip-churn":
        items, truth = churn_items(seed)
        print(f"input sip-churn seed={seed} sha256={truth['sha256']} "
              f"packets={truth['packets']} dialogs={truth['shapes']}")
        return items, truth
    from inputs import cached_mixed_capture, mixed_capture
    if cached_mixed_capture() is None:
        # Simulated in a child so its memory does not raise this
        # process's RSS high-water mark before the timed passes.
        # A capture that is not the pinned one is cached all the same,
        # and refused just below.
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--make-capture", "--workload", workload],
                       cwd=str(ROOT))
        if cached_mixed_capture() is None:
            raise SystemExit("perfbench: simulating the mixed capture failed")
    data, truth = mixed_capture()
    print(f"input mixed-capture.pcap sha256={truth['sha256']} "
          f"packets={truth['packets']} counts={truth['counts']}")
    return data, truth


def check_round(workload: str, result: Round, truth: dict):
    from checks import check_churn, check_conservation, check_detection

    pipeline = result.pipeline
    problems = check_conservation(pipeline.metrics, truth, result.offered)
    if workload == "sip-churn":
        more, known = check_churn(pipeline, truth)
    else:
        more, known = check_detection(pipeline.alerts, truth)
    if len(result.flush_ns) < MIN_WINDOWS:
        more.append(f"only {len(result.flush_ns)} windows in a round")
    return problems + more, known


def percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, min(len(sorted_values) - 1,
                       int(round(share * len(sorted_values))) - 1))
    return sorted_values[index]


def end_to_end(rounds, setup_s: float, rss_growth_mb: float) -> dict:
    """The end-to-end metrics from the untraced rounds of a run.

    Each step of the pass (and each window) is timed by its fastest
    round: other work on the host only ever adds time, so the fastest of
    several identical rounds is the estimate of the program's own cost
    that repeats from run to run.  The number of rounds is fixed by the
    arguments (:func:`round_count`), so a faster program does not get
    more samples to take the minimum over.
    """
    best_steps = [min(step) for step in zip(*(r.steps_ns for r in rounds))]
    best_flush = sorted(min(window)
                        for window in zip(*(r.flush_ns for r in rounds)))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "inspected_pkts_per_s": {
            "value": rounds[0].inspected / (sum(best_steps) / 1e9),
            "unit": "1/s"},
        "flush_p50_us": {"value": percentile(best_flush, 0.50) / 1e3,
                         "unit": "us"},
        "flush_p99_us": {"value": percentile(best_flush, 0.99) / 1e3,
                         "unit": "us"},
        "peak_rss_growth_mb": {"value": rss_growth_mb, "unit": "MB"},
    }


def fail(problems, attempted: int, failed: int) -> int:
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": {}}))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs-only", action="store_true",
                        help="print the input digests and exit")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--make-capture", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.probe_setup:
        probe_setup(args.workload)
        return 0
    sys.path.insert(0, str(SRC))
    if args.make_capture:
        from inputs import mixed_capture
        mixed_capture()
        return 0

    from repro.live import pcap
    from repro.live.frontend import build_pipeline

    source, truth = load_input(args.workload, args.seed)
    if args.inputs_only:
        return 0
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer(args.workload)
        tracer.install()

    rounds, traced = [], []
    count = round_count(args.seconds)
    # Set-up probes, spread evenly over the rounds so that their median
    # spans the whole run; none in a traced run, which reports no set-up
    # time.
    before = [probe * count // SETUP_PROBES for probe in range(SETUP_PROBES)]
    probes = [0 if tracer else before.count(index) for index in range(count)]
    setup_samples = []
    rss_start = max_rss_mb()
    for index in range(count):
        setup_samples += [time_setup(args.workload)
                          for _ in range(probes[index])]
        trace_this = tracer is not None and index % 2
        result = replay(args.workload, build_pipeline, pcap.load_pcap,
                        source, tracer if trace_this else None)
        problems, known = check_round(args.workload, result, truth)
        print(f"round {index}"
              f"{' traced' if trace_this else ''}: {result.offered} pkts "
              f"in {result.wall_s:.3f} s, {len(result.flush_ns)} windows, "
              f"failed {result.failed}, "
              f"alerts {len(result.pipeline.alerts)}, "
              f"known-fault alerts {dict(sorted(known.items()))}")
        if problems:
            return fail(problems, result.offered, result.failed)
        result.pipeline = None  # free the round's state before the next
        (traced if trace_this else rounds).append(result)
    rss_growth = max_rss_mb() - rss_start
    every = rounds + traced
    attempted = sum(result.offered for result in every)
    failed = sum(result.failed for result in every)

    if tracer is None:
        metrics = end_to_end(rounds, statistics.median(setup_samples),
                             rss_growth)
    else:
        tracer.uninstall()
        speed = [sum(r.inspected for r in group) / sum(r.wall_s for r in group)
                 for group in (rounds, traced)]
        print(f"tracing overhead: untraced {speed[0]:.0f} inspected pkt/s, "
              f"traced {speed[1]:.0f} ({speed[0] / speed[1]:.2f}x slower)")
        missing = tracer.unexercised()
        if missing:
            return fail([f"layer {layer} recorded zero calls on "
                         f"{args.workload}" for layer in missing],
                        attempted, failed)
        metrics = tracer.metrics(sum(r.offered for r in traced))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
