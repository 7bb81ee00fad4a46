"""Correctness checks of one replay, against the generator's own records.

Nothing here asks the program what it was given: packet counts come from
UDP ports in :mod:`inputs`, attack actors and start times from the
injectors the benchmark configured itself.  Every check returns a list of
problems; an empty list means the round passed.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

#: A capacity notice, not a detection: raised because ``Vids._finish``
#: charges the modeled per-packet costs into the shedding backlog.
OVERLOAD = "overload-shed"
#: The INVITE-flood attacker; the per-source tracker names it in a
#: ``drdos-reflection`` alert although its INVITEs all go to one callee.
FLOOD_SOURCE = "172.16.66.6"


def known_fault(alert) -> str:
    """Name of the known fault an alert comes from, or ``""``."""
    kind = alert.attack_type.value
    if kind == OVERLOAD:
        return OVERLOAD
    if kind == "drdos-reflection" and alert.source == FLOOD_SOURCE:
        return "drdos-reflection@" + FLOOD_SOURCE
    return ""


def check_conservation(metrics, truth: Dict, offered: int) -> List[str]:
    """Packets in equal packets accounted, by kind."""
    problems = []
    if offered != truth["packets"]:
        problems.append(f"offered {offered} != generated {truth['packets']}")
    if metrics.packets_processed != offered:
        problems.append(f"packets_processed {metrics.packets_processed} "
                        f"!= offered {offered}")
    for kind, counter in (("sip", "sip_messages"), ("rtp", "rtp_packets"),
                          ("rtcp", "rtcp_packets")):
        seen = getattr(metrics, counter)
        if seen != truth["counts"][kind]:
            problems.append(f"{counter} {seen} != {kind} packets "
                            f"generated {truth['counts'][kind]}")
    return problems


def check_churn(pipeline, truth: Dict) -> Tuple[List[str], Counter]:
    """Every benign dialog created, reaped, and never alerted on."""
    metrics = pipeline.metrics
    problems = []
    dialogs = truth["dialogs"]
    for counter in ("calls_created", "calls_deleted"):
        if getattr(metrics, counter) != dialogs:
            problems.append(f"{counter} {getattr(metrics, counter)} "
                            f"!= dialogs generated {dialogs}")
    if pipeline.active_calls:
        problems.append(f"{pipeline.active_calls} records live after drain")
    malformed = (metrics.malformed_packets + metrics.malformed_sip
                 + metrics.malformed_rtp + metrics.malformed_rtcp)
    if malformed:
        problems.append(f"{malformed} malformed packets in valid SIP")
    known: Counter = Counter()
    for alert in pipeline.alerts:
        if alert.attack_type.value == OVERLOAD:
            known[OVERLOAD] += 1
        else:
            problems.append(f"alert on benign churn: {alert}")
    return problems, known


def check_detection(alerts, truth: Dict) -> Tuple[List[str], Counter]:
    """Each injected attack caught with its type and actor, none early.

    Returns the problems and a count of the known-fault alerts seen, so
    a change that removes one shows in the output.
    """
    problems = []
    attacks = truth["attacks"]
    for attack in attacks:
        hits = [alert for alert in alerts
                if alert.attack_type.value == attack["type"]
                and getattr(alert, attack["field"]) == attack["actor"]]
        if not hits:
            problems.append(f"{attack['type']} on {attack['actor']} "
                            "not detected")
        elif min(alert.time for alert in hits) < attack["start"]:
            problems.append(f"{attack['type']} on {attack['actor']} flagged "
                            f"before its injection at {attack['start']:.3f}")
    first = min(attack["start"] for attack in attacks)
    known: Counter = Counter()
    for alert in alerts:
        fault = known_fault(alert)
        if fault:
            known[fault] += 1
        elif alert.time < first:
            problems.append(f"detection before the first injection: {alert}")
    return problems, known
