"""Per-layer timing for the traced run (``--trace 1``).

Timing wrappers are installed from here around the public entry point
of each layer, before the pipeline is built (so bound methods the
pipeline caches are wrapped too), and removed afterwards.  Each wrapper
records a span on one shared stack: a layer's *self* time is its span
minus the spans of wrapped callees, and its inclusive time counts only
outermost spans, so a re-entered layer is not counted twice.  Counters
that the spans do not give (firings, created and reaped calls,
checkpoint reuse, cache hits) are taken at the same boundaries.

Only rounds the run marks as traced are measured; the end-to-end metrics
always come from untraced runs.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: Layer metrics: name -> unit.  Order is the output order.
PER_LAYER = {
    "decode.ns_per_pkt": "ns",
    "classify.ns_per_pkt": "ns",
    "sip.parse.ns_per_msg": "ns",
    "sip.cache_hit_ratio": "ratio",
    "distribute.ns_per_pkt": "ns",
    "trackers.ns_per_invite": "ns",
    "trackers.machines": "count",
    "factbase.create.ns_per_call": "ns",
    "factbase.lookup.ns_per_pkt": "ns",
    "factbase.reap.ns_per_call": "ns",
    "factbase.peak_records": "count",
    "efsm.fire.ns_per_inject": "ns",
    "efsm.firings_per_pkt": "ratio",
    "efsm.timers.ns_per_pkt": "ns",
    "engine.ns_per_result": "ns",
    "cluster.checkpoint.ns_per_pkt": "ns",
    "cluster.reuse_ratio": "ratio",
    "topology.ns_per_pkt": "ns",
}

#: Span layers every workload must exercise, and the extra ones per
#: workload.  A layer left at zero calls fails the run: a refactor that
#: renames or inlines an entry point must not silently zero its numbers.
_ALWAYS = ("classify", "sip.parse", "distribute", "trackers",
           "factbase.create", "factbase.reap", "efsm.fire", "efsm.timers",
           "engine", "topology")
REQUIRED = {
    "mixed-pcap": _ALWAYS + ("decode", "factbase.lookup"),
    "sip-churn": _ALWAYS,
    "supervised-pcap": _ALWAYS + ("decode", "factbase.lookup",
                                  "cluster.checkpoint"),
}


def _lru_functions():
    """The ``lru_cache``d parsers of the SIP modules."""
    from repro.sip import headers, message, uri

    return [value for module in (headers, message, uri)
            for value in vars(module).values() if hasattr(value, "cache_info")]


def _cache_totals(functions) -> List[int]:
    hits = misses = 0
    for function in functions:
        info = function.cache_info()
        hits += info.hits
        misses += info.misses
    return [hits, misses]


class Tracer:
    """Wrappers, span accounting and the per-layer metrics of one run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.active = False
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.count: Counter = Counter()
        self.machines = 0
        self.peak_records = 0
        self._stack: List[list] = []
        self._restore: List[tuple] = []
        self._lru = []
        self._lru_start = [0, 0]

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, owner, name: str, layer: Optional[str],
              choose: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        """Time ``owner.name`` as ``layer`` (or ``choose(args)``)."""
        original = owner.__dict__[name]
        stack = self._stack
        perf = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = choose(args) if choose is not None else layer
            frame = [0, span]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if parent is not None:
                    parent[0] += elapsed
                if span is not None:
                    tracer.calls[span] += 1
                    tracer.self_ns[span] += elapsed - frame[0]
                    if parent is None or parent[1] != span:
                        tracer.inclusive[span] += elapsed
            if after is not None:
                after(args, result)
            return result

        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def install(self) -> None:
        from repro.efsm.system import EfsmSystem, ManualClock
        from repro.live import pcap
        from repro.vids import classifier
        from repro.vids.cluster import ShardSupervisor, SupervisedCluster
        from repro.vids.distributor import EventDistributor
        from repro.vids.engine import AnalysisEngine
        from repro.vids.factbase import CallStateFactBase
        from repro.vids.ids import Vids
        from repro.vids.patterns.invite_flood import InviteFloodTracker
        from repro.vids.sharding import ShardedVids

        count = self.count
        wrap = self._wrap

        def decoded(args, result):
            count["decoded"] += len(result)

        def fired(args, result):
            count["firings"] += len(result)

        def reaped(args, result):
            if result is not None:
                count["reaped"] += 1

        def creating(args):
            factbase, call_id = args[0], args[1]
            return None if call_id in factbase.records else "factbase.create"

        previous_versions: Dict[int, dict] = {}

        def checkpoint_before(args):
            member = args[1]
            previous = member.checkpoint
            previous_versions[id(member)] = (
                previous.call_versions if previous is not None else {})
            return "cluster.checkpoint"

        def checkpointed(args, result):
            before = previous_versions.pop(id(args[1]))
            count["checkpoint_calls"] += len(result.call_versions)
            count["checkpoint_reused"] += sum(
                1 for call_id, version in result.call_versions.items()
                if before.get(call_id) == version)

        wrap(pcap, "load_pcap", "decode", after=decoded)
        wrap(classifier.PacketClassifier, "classify", "classify")
        wrap(classifier, "parse_message", "sip.parse")
        wrap(EventDistributor, "distribute", "distribute")
        wrap(InviteFloodTracker, "observe_invite", "trackers")
        wrap(CallStateFactBase, "get_or_create", None, choose=creating)
        wrap(CallStateFactBase, "lookup_media", "factbase.lookup")
        wrap(CallStateFactBase, "delete", "factbase.reap", after=reaped)
        wrap(CallStateFactBase, "collect_garbage", "factbase.reap")
        wrap(EfsmSystem, "inject", "efsm.fire", after=fired)
        wrap(ManualClock, "advance", "efsm.timers")
        wrap(AnalysisEngine, "handle_result", "engine")
        wrap(ShardSupervisor, "take_checkpoint", None,
             choose=checkpoint_before, after=checkpointed)
        for topology in (Vids, ShardedVids, SupervisedCluster):
            wrap(topology, "process_batch", "topology")
        self._lru = _lru_functions()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- round boundaries -----------------------------------------------------

    def start(self) -> None:
        """Begin a traced pass (the pipeline is already built)."""
        self._lru_start = _cache_totals(self._lru)
        self.active = True

    def window_boundary(self, pipeline) -> None:
        self.peak_records = max(self.peak_records, pipeline.active_calls)

    def stop(self, pipeline) -> None:
        self.active = False
        hits, misses = _cache_totals(self._lru)
        self.count["lru_hits"] += hits - self._lru_start[0]
        self.count["lru_misses"] += misses - self._lru_start[1]
        shards = getattr(pipeline, "shards", None) or [pipeline]
        trackers = {id(tracker): tracker for shard in shards
                    for tracker in (shard.flood_tracker,
                                    shard.source_flood_tracker)}
        self.machines = sum(len(tracker.machines)
                            for tracker in trackers.values())

    # -- results --------------------------------------------------------------

    def unexercised(self) -> List[str]:
        return [layer for layer in REQUIRED[self.workload]
                if not self.calls[layer]]

    def metrics(self, packets: int) -> dict:
        calls, inclusive, own, count = (self.calls, self.inclusive,
                                        self.self_ns, self.count)

        def per(total, n):
            return total / n if n else 0.0

        lru = count["lru_hits"] + count["lru_misses"]
        values = {
            "decode.ns_per_pkt": per(inclusive["decode"], count["decoded"]),
            "classify.ns_per_pkt": per(own["classify"], calls["classify"]),
            "sip.parse.ns_per_msg": per(inclusive["sip.parse"],
                                        calls["sip.parse"]),
            "sip.cache_hit_ratio": per(count["lru_hits"], lru),
            "distribute.ns_per_pkt": per(own["distribute"],
                                         calls["distribute"]),
            "trackers.ns_per_invite": per(inclusive["trackers"],
                                          calls["trackers"]),
            "trackers.machines": self.machines,
            "factbase.create.ns_per_call": per(inclusive["factbase.create"],
                                               calls["factbase.create"]),
            "factbase.lookup.ns_per_pkt": per(inclusive["factbase.lookup"],
                                              calls["factbase.lookup"]),
            "factbase.reap.ns_per_call": per(inclusive["factbase.reap"],
                                             count["reaped"]),
            "factbase.peak_records": self.peak_records,
            "efsm.fire.ns_per_inject": per(own["efsm.fire"],
                                           calls["efsm.fire"]),
            "efsm.firings_per_pkt": per(count["firings"], packets),
            "efsm.timers.ns_per_pkt": per(own["efsm.timers"], packets),
            "engine.ns_per_result": per(inclusive["engine"], calls["engine"]),
            "cluster.checkpoint.ns_per_pkt": per(
                inclusive["cluster.checkpoint"], packets),
            "cluster.reuse_ratio": per(count["checkpoint_reused"],
                                       count["checkpoint_calls"]),
            "topology.ns_per_pkt": per(own["topology"], packets),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER.items()}
