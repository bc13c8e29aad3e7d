"""Scenario files: the JSON run plan (topology + workload) and its validation.

A scenario pins everything a run needs: the seed, the planet/station/user
hierarchy, link distances (classical-baseline bookkeeping only), and a
workload of timed transfers. Validation reports every problem it finds,
each tagged with the path of the offending field.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field, replace

from .errors import ValidationError
from .node import AcceptAll, AcceptList, AcceptPolicy, RejectAll

DEFAULT_PAYLOAD_CAP = 1 << 20  # bytes
_U64 = 1 << 64


@dataclass(frozen=True)
class UserSpec:
    node_id: str
    qid: int
    accept_policy: AcceptPolicy = field(default_factory=AcceptAll)


@dataclass(frozen=True)
class ChildSpec:
    qbs_id: str
    users: tuple[UserSpec, ...] = ()


@dataclass(frozen=True)
class PlanetSpec:
    mother_id: str
    children: tuple[ChildSpec, ...] = ()


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    distance_meters: float


@dataclass(frozen=True)
class WorkloadItem:
    at_tick: int
    from_qid: int
    to_qid: int
    payload: bytes


@dataclass(frozen=True)
class Scenario:
    seed: int
    planets: tuple[PlanetSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    workload: tuple[WorkloadItem, ...] = ()


# parsing ----------------------------------------------------------------------


def _parse_policy(raw, path: str, findings: list[str]) -> AcceptPolicy:
    if raw is None or raw == "accept_all":
        return AcceptAll()
    if raw == "reject_all":
        return RejectAll()
    if isinstance(raw, dict) and set(raw) == {"accept_list"} and \
            isinstance(raw["accept_list"], list) and \
            all(isinstance(q, int) for q in raw["accept_list"]):
        return AcceptList(frozenset(raw["accept_list"]))
    findings.append(f"{path}: accept_policy must be 'accept_all', 'reject_all' "
                    f"or {{'accept_list': [qids]}}")
    return AcceptAll()


def _parse_payload(raw, path: str, findings: list[str]) -> bytes:
    if isinstance(raw, str):
        return raw.encode("utf-8")
    if isinstance(raw, dict) and set(raw) == {"hex"} and isinstance(raw["hex"], str):
        try:
            return bytes.fromhex(raw["hex"])
        except ValueError:
            findings.append(f"{path}.hex: not valid hex")
            return b""
    findings.append(f"{path}: payload must be a UTF-8 string or {{'hex': '..'}}")
    return b""


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from parsed JSON; raises ValidationError on any problem.

    Parsing checks the shape (objects, lists, policies, payloads) and passes
    leaf values through as they are; validate_scenario checks their types."""
    findings: list[str] = []
    if not isinstance(raw, dict):
        raise ValidationError(["$: scenario must be a JSON object"])
    for key in raw:
        if key not in ("seed", "planets", "links", "workload"):
            findings.append(f"{key}: unknown field")

    planets = []
    for i, p in enumerate(_expect_list(raw, "planets", findings, required=True)):
        if not isinstance(p, dict):
            findings.append(f"planets[{i}]: must be an object")
            continue
        children = []
        for j, c in enumerate(_expect_list(p, "children", findings, f"planets[{i}].")):
            if not isinstance(c, dict):
                findings.append(f"planets[{i}].children[{j}]: must be an object")
                continue
            users = []
            for k, u in enumerate(_expect_list(c, "users", findings,
                                               f"planets[{i}].children[{j}].")):
                path = f"planets[{i}].children[{j}].users[{k}]"
                if not isinstance(u, dict):
                    findings.append(f"{path}: must be an object")
                    continue
                policy = _parse_policy(u.get("accept_policy"), path, findings)
                users.append(UserSpec(u.get("node_id"), u.get("qid"), policy))
            children.append(ChildSpec(c.get("qbs_id"), tuple(users)))
        planets.append(PlanetSpec(p.get("mother_id"), tuple(children)))

    links = []
    for i, l in enumerate(_expect_list(raw, "links", findings)):
        path = f"links[{i}]"
        if not isinstance(l, dict):
            findings.append(f"{path}: must be an object")
            continue
        links.append(LinkSpec(l.get("a"), l.get("b"), l.get("distance_meters")))

    workload = []
    for i, w in enumerate(_expect_list(raw, "workload", findings)):
        path = f"workload[{i}]"
        if not isinstance(w, dict):
            findings.append(f"{path}: must be an object")
            continue
        payload = _parse_payload(w.get("payload", ""), f"{path}.payload", findings)
        workload.append(WorkloadItem(w.get("at_tick"), w.get("from_qid"), w.get("to_qid"),
                                     payload))

    scenario = Scenario(raw.get("seed"), tuple(planets), tuple(links), tuple(workload))
    findings += validate_scenario(scenario)
    if findings:
        raise ValidationError(findings)
    return scenario


def _expect_list(obj: dict, key: str, findings: list[str], prefix: str = "",
                 required: bool = False) -> list:
    value = obj.get(key)
    if value is None and not required:
        return []
    if not isinstance(value, list):
        findings.append(f"{prefix}{key}: required list")
        return []
    return value


def load_scenario(path: str) -> Scenario:
    """Read and fully validate a scenario file; OSError passes through."""
    with open(path) as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"$: not valid JSON: {exc}"]) from exc
    return scenario_from_dict(raw)


# semantic validation -------------------------------------------------------------


def is_u64(value) -> bool:
    """The rule for seeds and QIDs: an int, not a bool, in [0, 2**64)."""
    return type(value) is int and 0 <= value < _U64


def validate_scenario(scenario: Scenario,
                      max_payload_bytes: int = DEFAULT_PAYLOAD_CAP) -> list[str]:
    """All problems with a structured scenario: field types, ranges and references."""
    findings: list[str] = []
    node_ids: dict[str, str] = {}
    qids: dict[int, str] = {}

    if not is_u64(scenario.seed):
        findings.append("seed: must be an unsigned 64-bit integer")

    def claim_node(node_id: str, path: str) -> None:
        if not isinstance(node_id, str) or not node_id:
            findings.append(f"{path}: must be a non-empty string")
        elif node_id in node_ids:
            findings.append(f"{path}: duplicate id '{node_id}' "
                            f"(also used at {node_ids[node_id]})")
        else:
            node_ids[node_id] = path

    for i, planet in enumerate(scenario.planets):
        claim_node(planet.mother_id, f"planets[{i}].mother_id")
        for j, child in enumerate(planet.children):
            claim_node(child.qbs_id, f"planets[{i}].children[{j}].qbs_id")
            for k, user in enumerate(child.users):
                path = f"planets[{i}].children[{j}].users[{k}]"
                claim_node(user.node_id, f"{path}.node_id")
                if not isinstance(user.accept_policy, (AcceptAll, AcceptList, RejectAll)):
                    findings.append(f"{path}.accept_policy: must be an accept policy")
                if not is_u64(user.qid):
                    findings.append(f"{path}.qid: must be an unsigned 64-bit integer")
                elif user.qid in qids:
                    findings.append(f"{path}.qid: duplicate QID {user.qid} "
                                    f"(also used at {qids[user.qid]})")
                else:
                    qids[user.qid] = path

    seen_pairs: set[frozenset] = set()
    for i, link in enumerate(scenario.links):
        path = f"links[{i}]"
        ends = (link.a, link.b)
        for end, node_id in zip("ab", ends):
            if not isinstance(node_id, str) or node_id not in node_ids:
                findings.append(f"{path}.{end}: unknown node id {node_id!r}")
        if link.a == link.b:
            findings.append(f"{path}: link endpoints must differ")
        distance = link.distance_meters
        if type(distance) not in (int, float) or not 0 <= distance <= sys.float_info.max:
            findings.append(f"{path}.distance_meters: must be a number, finite and >= 0")
        if not all(isinstance(node_id, str) for node_id in ends):
            continue
        pair = frozenset(ends)
        if pair in seen_pairs and link.a != link.b:
            findings.append(f"{path}: duplicate link between "
                            f"'{link.a}' and '{link.b}'")
        seen_pairs.add(pair)

    for i, item in enumerate(scenario.workload):
        path = f"workload[{i}]"
        if type(item.at_tick) is not int or item.at_tick < 0:
            findings.append(f"{path}.at_tick: must be an integer >= 0")
        for end in ("from_qid", "to_qid"):
            qid = getattr(item, end)
            if type(qid) is not int or qid not in qids:
                findings.append(f"{path}.{end}: unknown QID {qid!r}")
        if item.from_qid == item.to_qid:
            findings.append(f"{path}: from_qid and to_qid must differ")
        if not isinstance(item.payload, bytes):
            findings.append(f"{path}.payload: must be bytes")
        elif len(item.payload) > max_payload_bytes:
            findings.append(f"{path}.payload: {len(item.payload)} bytes exceeds "
                            f"the {max_payload_bytes}-byte cap")

    return findings


# serialization -------------------------------------------------------------------


def _policy_to_json(policy: AcceptPolicy):
    if isinstance(policy, RejectAll):
        return "reject_all"
    if isinstance(policy, AcceptList):
        return {"accept_list": sorted(policy.qids)}
    return "accept_all"


def _payload_to_json(payload: bytes):
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        return {"hex": payload.hex()}
    if text == "" or text.isprintable():
        return text
    return {"hex": payload.hex()}


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "seed": scenario.seed,
        "planets": [
            {
                "mother_id": planet.mother_id,
                "children": [
                    {
                        "qbs_id": child.qbs_id,
                        "users": [
                            {
                                "node_id": user.node_id,
                                "qid": user.qid,
                                "accept_policy": _policy_to_json(user.accept_policy),
                            }
                            for user in child.users
                        ],
                    }
                    for child in planet.children
                ],
            }
            for planet in scenario.planets
        ],
        "links": [
            {"a": link.a, "b": link.b, "distance_meters": link.distance_meters}
            for link in scenario.links
        ],
        "workload": [
            {
                "at_tick": item.at_tick,
                "from_qid": item.from_qid,
                "to_qid": item.to_qid,
                "payload": _payload_to_json(item.payload),
            }
            for item in scenario.workload
        ],
    }


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


# ready-made scenarios ---------------------------------------------------------------


def example_scenario(kind: str) -> Scenario:
    """A ready-to-run walkthrough: 'same-qbs', 'cross-qbs' or 'interplanet'."""
    if kind == "same-qbs":
        return Scenario(
            seed=1,
            planets=(PlanetSpec("earth-mother", (
                ChildSpec("qbs-1", (
                    UserSpec("user-a", 11),
                    UserSpec("user-b", 12),
                )),
            )),),
            links=(
                LinkSpec("user-a", "qbs-1", 10.0),
                LinkSpec("user-b", "qbs-1", 10.0),
                LinkSpec("qbs-1", "earth-mother", 1000.0),
            ),
            workload=(WorkloadItem(0, 11, 12, b"HELLO"),),
        )
    if kind == "cross-qbs":
        return Scenario(
            seed=2,
            planets=(PlanetSpec("earth-mother", (
                ChildSpec("qbs-1", (UserSpec("user-a", 11),)),
                ChildSpec("qbs-2", (UserSpec("user-c", 13),)),
            )),),
            links=(
                LinkSpec("user-a", "qbs-1", 10.0),
                LinkSpec("user-c", "qbs-2", 10.0),
                LinkSpec("qbs-1", "earth-mother", 1000.0),
                LinkSpec("qbs-2", "earth-mother", 1000.0),
            ),
            workload=(WorkloadItem(0, 11, 13, b"HELLO ACROSS STATIONS"),),
        )
    if kind == "interplanet":
        return Scenario(
            seed=3,
            planets=(
                PlanetSpec("earth-mother", (
                    ChildSpec("qbs-1", (UserSpec("user-a", 11),)),
                )),
                PlanetSpec("mars-mother", (
                    ChildSpec("qbs-2", (UserSpec("user-c", 13),)),
                )),
            ),
            links=(
                LinkSpec("user-a", "qbs-1", 10.0),
                LinkSpec("user-c", "qbs-2", 10.0),
                LinkSpec("qbs-1", "earth-mother", 1000.0),
                LinkSpec("qbs-2", "mars-mother", 1000.0),
                LinkSpec("earth-mother", "mars-mother", 2.25e11),
            ),
            workload=(WorkloadItem(0, 11, 13, b"HELLO MARS"),),
        )
    raise ValueError(f"unknown example kind '{kind}'")


EXAMPLE_KINDS = ("same-qbs", "cross-qbs", "interplanet")


def with_uniform_distances(scenario: Scenario, distance_meters: float) -> Scenario:
    """The same scenario with every link distance replaced; nothing else changes."""
    links = tuple(replace(link, distance_meters=distance_meters)
                  for link in scenario.links)
    return replace(scenario, links=links)


def desk_scale_scenario(seed: int = 7, children: int = 10,
                        users_per_child: int = 100, sessions: int = 5000,
                        reject_fraction: float = 0.05) -> Scenario:
    """One planet at desk scale: many users, a randomized transfer workload."""
    rng = random.Random(seed)
    child_specs = []
    qids = []
    for c in range(children):
        users = []
        for u in range(users_per_child):
            qid = 1000 + c * users_per_child + u
            qids.append(qid)
            policy: AcceptPolicy = (RejectAll() if rng.random() < reject_fraction
                                    else AcceptAll())
            users.append(UserSpec(f"u{c:02d}-{u:03d}", qid, policy))
        child_specs.append(ChildSpec(f"c{c:02d}", tuple(users)))
    workload = []
    for _ in range(sessions):
        from_qid = rng.choice(qids)
        to_qid = rng.choice(qids)
        while to_qid == from_qid:
            to_qid = rng.choice(qids)
        workload.append(WorkloadItem(
            at_tick=rng.randrange(0, 2 * sessions),
            from_qid=from_qid,
            to_qid=to_qid,
            payload=rng.randbytes(rng.randint(1, 24)),
        ))
    workload.sort(key=lambda w: (w.at_tick, w.from_qid, w.to_qid))
    return Scenario(
        seed=seed,
        planets=(PlanetSpec("m00", tuple(child_specs)),),
        links=(),
        workload=tuple(workload),
    )
