"""Output checks and trace-derived figures; pure functions on plain data.

Nothing here imports entnet: the inputs are the scenario dict the workload
generator produced, the parsed trace lines and the payloads users received,
so the checks keep working whatever the simulator's internals look like.
"""

from __future__ import annotations

import math
from collections import defaultdict

CLOSED = "closed"
REJECTED = "rejected"


def percentile(values: list, q: float):
    """Nearest-rank percentile (0 < q <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def accepts(policy, caller: int) -> bool:
    """The callee's verdict under a scenario-file accept policy."""
    if policy is None or policy == "accept_all":
        return True
    if policy == "reject_all":
        return False
    return caller in policy["accept_list"]


def policies(raw: dict) -> dict[int, object]:
    """QID -> accept policy, as written in the scenario dict."""
    return {user["qid"]: user.get("accept_policy")
            for planet in raw["planets"]
            for child in planet.get("children", ())
            for user in child.get("users", ())}


def sessions_from_trace(records: list[dict]) -> dict[int, dict]:
    """Per session: caller, callee, request and delivery ticks, terminal outcome."""
    sessions: dict[int, dict] = {}
    for r in records:
        sid, kind = r["session"], r["type"]
        if kind == "SESSION_REQUEST":
            sessions[sid] = {"caller": r["detail"]["caller"],
                             "callee": r["detail"]["callee"],
                             "request_tick": r["tick"], "deliver_tick": None,
                             "outcome": None}
        elif sid not in sessions:
            continue
        elif kind == "DELIVER" and r["detail"]["dir"] == "fwd":
            sessions[sid]["deliver_tick"] = r["tick"]
        elif kind == "CLOSED":
            sessions[sid]["outcome"] = CLOSED
        elif kind == "REJECT":
            reason = r["detail"].get("reason")
            sessions[sid]["outcome"] = REJECTED if reason is None else reason
        elif kind == "MOTHER_LOOKUP_MISS":
            sessions[sid]["outcome"] = "not_found"
    return sessions


def check_outcomes(items: list[dict], policy_of: dict, sessions: dict[int, dict],
                   deliveries: list[tuple[int, int, bytes]]) -> dict[int, str]:
    """Sessions whose outcome differs from what the callee's policy implies.

    `items` are the scenario's workload entries; `deliveries` lists every
    (receiving qid, session id, payload) users received. An accepted session
    must deliver exactly the bytes sent, once, to its callee, and close; a
    refused one must fail `rejected` and deliver nothing. Returns a reason
    keyed by workload index (or by -session id for sessions no item asked for).
    """
    by_pair: dict[tuple[int, int], list[int]] = defaultdict(list)
    for sid in sorted(sessions):
        by_pair[(sessions[sid]["caller"], sessions[sid]["callee"])].append(sid)
    received: dict[int, list[tuple[int, bytes]]] = defaultdict(list)
    for qid, sid, payload in deliveries:
        received[sid].append((qid, payload))

    errors: dict[int, str] = {}
    matched: set[int] = set()
    for index, item in enumerate(items):
        pair = (item["from_qid"], item["to_qid"])
        if not by_pair[pair]:
            errors[index] = "no session was requested"
            continue
        sid = by_pair[pair].pop(0)
        matched.add(sid)
        got = received.pop(sid, [])
        if accepts(policy_of.get(item["to_qid"]), item["from_qid"]):
            sent = bytes.fromhex(item["payload"]["hex"])
            if sessions[sid]["outcome"] != CLOSED:
                errors[index] = f"session {sid} ended {sessions[sid]['outcome']}, not closed"
            elif got != [(item["to_qid"], sent)]:
                errors[index] = f"session {sid} delivered {len(got)} payload(s) that differ from the one sent"
        elif sessions[sid]["outcome"] != REJECTED or got:
            errors[index] = f"session {sid} ended {sessions[sid]['outcome']}, not rejected"
    for sid in sorted(set(sessions) - matched):
        errors[-sid] = f"session {sid} was not asked for by the workload"
    for sid in sorted(received):
        errors.setdefault(-sid, f"session {sid} delivered to a user but was never requested")
    return errors


def deliver_ticks(sessions: dict[int, dict]) -> list[int]:
    """Simulated ticks from SESSION_REQUEST to DELIVER, per delivered session."""
    return [s["deliver_tick"] - s["request_tick"] for s in sessions.values()
            if s["deliver_tick"] is not None]


def frame_waits(records: list[dict]) -> list[int]:
    """Simulated ticks from SEND to each frame's first DATA record."""
    sent: dict[tuple[int, str], int] = {}
    seen: set[tuple[int, str, int]] = set()
    waits = []
    for r in records:
        if r["type"] == "SEND":
            sent[(r["session"], r["detail"]["dir"])] = r["tick"]
        elif r["type"] == "DATA":
            key = (r["session"], r["detail"]["dir"], r["detail"]["index"])
            start = sent.get(key[:2])
            if start is not None and key not in seen:
                seen.add(key)
                waits.append(r["tick"] - start)
    return waits
