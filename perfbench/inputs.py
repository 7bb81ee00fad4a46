"""Benchmark inputs: the mixed-attack capture and the SIP churn dialogs.

Both generators keep their own records of what they produced — packet
counts by UDP port, dialog counts, attack injection times and actors —
so the checks in :mod:`checks` never have to ask the program under test
what it was given.

The mixed capture is one fixed input.  The simulator is seeded with
``MIXED_SCENARIO_SEED`` whatever ``--seed`` the run is given, because the
245 packets the program sheds on it (the modeled-cost fault described in
README.md) depend on the whole stream: a seeded capture would change the
failed share from run to run.  Simulating it takes about 5 s, so the
pcap bytes and their ground truth are cached under ``.bench_build/``,
keyed by a digest of the generator and of every source file it runs.
The capture comes from the program's own simulator, so its sha256 is
pinned (``MIXED_SHA256``): a change to the simulator that changes the
capture stops the run instead of silently measuring another input.

The churn dialogs are built from the text templates in ``sip/`` with
plain string formatting; ``--seed`` drives their arrival times, hold
times and shapes.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE_DIR = ROOT / ".bench_build" / "perfbench"

SIP_PORT = 5060

#: Scenario of tests/integration/test_sharded_equivalence.py with the
#: benign workload run for a longer horizon.
MIXED_SCENARIO_SEED = 23
MIXED_HORIZON = 150.0
FLOOD_TARGET = "b2@b.example.com"
DRDOS_VICTIM = "198.51.100.7"
#: sha256 of the mixed capture's pcap bytes.
MIXED_SHA256 = ("d7c94d87b1faab0ba10946280be89a7c"
                "f20a1c12173733f1e89711ec980b90e5")


class InputChanged(SystemExit):
    """The simulator produced another capture than the pinned one."""


def port_kind(src_port: int, dst_port: int) -> str:
    """SIP / RTP / RTCP by UDP port alone (RTCP rides the odd port)."""
    if src_port == SIP_PORT or dst_port == SIP_PORT:
        return "sip"
    return "rtcp" if dst_port % 2 else "rtp"


def _source_digest() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files.append(Path(__file__).resolve())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    digest.update(repr((MIXED_SCENARIO_SEED, MIXED_HORIZON)).encode())
    return digest.hexdigest()[:16]


def _simulate_mixed() -> Tuple[bytes, Dict]:
    """Run the seeded scenario on a bare perimeter; pcap bytes + truth."""
    from repro.attacks import (ByeTeardownAttack, DrdosReflectionAttack,
                               InviteFloodAttack, MediaSpamAttack)
    from repro.live.pcap import PcapWriter
    from repro.telephony import (ScenarioParams, TestbedParams,
                                 WorkloadParams, run_scenario)
    from repro.vids import RecordingProcessor

    recorder = RecordingProcessor()
    flood = InviteFloodAttack(30.0, target_aor=FLOOD_TARGET, count=20)
    drdos = DrdosReflectionAttack(40.0, count=20, victim_ip=DRDOS_VICTIM)
    bye = ByeTeardownAttack(55.0, spoof="none")
    spam = MediaSpamAttack(70.0)
    run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=MIXED_SCENARIO_SEED, phones_per_network=4),
        workload=WorkloadParams(mean_interarrival=15.0, mean_duration=120.0,
                                horizon=MIXED_HORIZON),
        with_vids=False,
        attacks=(flood, drdos, bye, spam),
        drain_time=60.0,
        hooks=(lambda testbed, vids, sim:
               testbed.attach_processor(recorder),),
    ))
    buffer = io.BytesIO()
    PcapWriter(buffer).write_all(recorder.capture)
    counts = {"sip": 0, "rtp": 0, "rtcp": 0}
    for packet in recorder.capture:
        datagram = packet.datagram
        counts[port_kind(datagram.src.port, datagram.dst.port)] += 1
    for attack in (flood, drdos, bye, spam):
        if not attack.events:
            raise RuntimeError(f"{attack.name} never launched")
    truth = {
        "packets": len(recorder.capture),
        "counts": counts,
        "span_s": recorder.capture[-1].time,
        "attacks": [
            {"type": "invite-flood", "field": "destination",
             "actor": FLOOD_TARGET, "start": flood.events[0][0]},
            {"type": "drdos-reflection", "field": "source",
             "actor": DRDOS_VICTIM, "start": drdos.events[0][0]},
            {"type": "bye-dos", "field": "call_id",
             "actor": bye.victim_call_id, "start": bye.events[0][0]},
            {"type": "media-spam", "field": "call_id",
             "actor": spam.victim_call_id, "start": spam.events[0][0]},
        ],
    }
    return buffer.getvalue(), truth


def _cache_paths() -> Tuple[Path, Path]:
    key = _source_digest()
    return (CACHE_DIR / f"mixed-{key}.pcap",
            CACHE_DIR / f"mixed-{key}.json")


def cached_mixed_capture() -> Optional[Tuple[bytes, Dict]]:
    """The cached capture and truth, if present and intact."""
    pcap_path, truth_path = _cache_paths()
    if not (pcap_path.exists() and truth_path.exists()):
        return None
    data = pcap_path.read_bytes()
    truth = json.loads(truth_path.read_text())
    if hashlib.sha256(data).hexdigest() != truth["sha256"]:
        return None
    return data, truth


def mixed_capture() -> Tuple[bytes, Dict]:
    """The mixed-attack pcap bytes and the generator's ground truth.

    Raises :class:`InputChanged` when the bytes are not the pinned
    capture.
    """
    cached = cached_mixed_capture()
    if cached is None:
        pcap_path, truth_path = _cache_paths()
        data, truth = _simulate_mixed()
        truth["sha256"] = hashlib.sha256(data).hexdigest()
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        partial = pcap_path.with_suffix(".tmp")
        partial.write_bytes(data)
        partial.replace(pcap_path)
        truth_path.write_text(json.dumps(truth, indent=1))
    else:
        data, truth = cached
    if truth["sha256"] != MIXED_SHA256:
        raise InputChanged(
            f"perfbench: the simulator now produces another mixed capture "
            f"(sha256 {truth['sha256']}, pinned {MIXED_SHA256}); runs on "
            f"the two would not compare the same input.  Check the new "
            f"capture's make-up and ground truth, then re-pin MIXED_SHA256 "
            f"in perfbench/inputs.py and the figures in perfbench/README.md")
    return data, truth


# -- SIP churn ----------------------------------------------------------------

#: Dialog arrivals per second of capture time, and the hold time of a
#: completed call, uniform on [HOLD/2, 3*HOLD/2] (so up to about
#: RATE * HOLD = 1.6k records can be live at once).
CHURN_RATE = 20.0
CHURN_HOLD_S = 80.0
#: Dialogs in the input: about 100 s of arrivals, the last hung up
#: <=120 s later.  Few enough that a round takes about 2 s, so a run
#: replays it many times (see run.py).
CHURN_DIALOGS = 2000
#: Shares of the three dialog shapes.
CHURN_SHAPES = (("completed", 0.8), ("cancelled", 0.1), ("busy", 0.1))

#: Message sequence of each shape: (template, sender side, delay after
#: the previous message in seconds; ``None`` = the call's hold time).
#: Both UAs sit on the SIP port and talk to each other directly.
_SHAPES = {
    "completed": (("invite", "a", 0.0), ("trying", "b", 0.02),
                  ("ringing", "b", 0.05), ("ok_invite", "b", 2.0),
                  ("ack", "a", 0.02), ("bye", "a", None),
                  ("ok_bye", "b", 0.02)),
    "cancelled": (("invite", "a", 0.0), ("trying", "b", 0.02),
                  ("ringing", "b", 0.05), ("cancel", "a", 3.0),
                  ("ok_cancel", "b", 0.02), ("terminated", "b", 0.01),
                  ("ack_non2xx", "a", 0.02)),
    "busy": (("invite", "a", 0.0), ("trying", "b", 0.02),
             ("busy", "b", 0.05), ("ack_non2xx", "a", 0.02)),
}


def _templates() -> Dict[str, Tuple[str, str]]:
    """Template name -> (header block, body), split at the blank line."""
    templates = {}
    for path in sorted((HERE / "sip").glob("*.sip")):
        head, _, body = path.read_text().partition("\n\n")
        templates[path.stem] = (head, body)
    return templates


def _render(template: Tuple[str, str], fields: Dict[str, object]) -> bytes:
    head, body = template
    body = body.format(**fields).replace("\n", "\r\n")
    head = head.format(length=len(body), **fields).replace("\n", "\r\n")
    return (head + "\r\n\r\n" + body).encode()


def churn_dialogs(seed: int) -> Tuple[List, Dict]:
    """The churn traffic: ``[(time, src_ip, dst_ip, payload)]`` + truth.

    Every Call-ID, tag, branch, caller, callee and address is unique to
    its dialog, so no header parse cache can hit across dialogs.  Each
    dialog runs UA to UA between its own two addresses, both on the SIP
    port.  Returns the packets in time order and the generator's own
    tally of what it made.
    """
    rng = random.Random(seed)
    templates = _templates()
    packets = []
    names = [name for name, _ in CHURN_SHAPES]
    weights = [share for _, share in CHURN_SHAPES]
    shapes = dict.fromkeys(names, 0)
    start = 0.0
    for index in range(CHURN_DIALOGS):
        start += rng.expovariate(CHURN_RATE)
        shape = rng.choices(names, weights)[0]
        shapes[shape] += 1
        n = index + 1
        fields = {
            "call_id": f"{rng.getrandbits(64):016x}-{seed}-{n}"
                       "@churn.example.org",
            "caller": f"alice{n}", "callee": f"bob{n}",
            "a_ip": f"10.{(n >> 16) & 0x3f}.{(n >> 8) & 0xff}.{n & 0xff}",
            "b_ip": f"10.{64 + ((n >> 16) & 0x3f)}.{(n >> 8) & 0xff}"
                    f".{n & 0xff}",
            "a_tag": f"{rng.getrandbits(48):012x}",
            "b_tag": f"{rng.getrandbits(48):012x}",
            "branch": f"z9hG4bK{rng.getrandbits(64):016x}",
            "ack_branch": f"z9hG4bK{rng.getrandbits(64):016x}",
            "bye_branch": f"z9hG4bK{rng.getrandbits(64):016x}",
            "a_port": 20000 + 2 * (n % 10000),
            "b_port": 40000 + 2 * (n % 10000),
        }
        when = start
        for template, side, delay in _SHAPES[shape]:
            when += (rng.uniform(0.5, 1.5) * CHURN_HOLD_S if delay is None
                     else delay)
            src, dst = ((fields["a_ip"], fields["b_ip"]) if side == "a"
                        else (fields["b_ip"], fields["a_ip"]))
            packets.append((when, src, dst,
                            _render(templates[template], fields)))
    packets.sort(key=lambda packet: packet[0])
    truth = {"dialogs": CHURN_DIALOGS, "shapes": shapes,
             "packets": len(packets),
             "counts": {"sip": len(packets), "rtp": 0, "rtcp": 0},
             "span_s": packets[-1][0]}
    return packets, truth
