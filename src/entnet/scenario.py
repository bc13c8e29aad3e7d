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

PAYLOAD_CAP = 1 << 20  # bytes
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
    # set by scenario_from_dict on a scenario it validated and built from nothing
    # but tuples, frozen specs, frozensets, bytes and scalars, so it stays valid;
    # any other scenario, `dataclasses.replace` copies included, starts unset
    parsed: bool = field(default=False, init=False, repr=False, compare=False)


# parsing ----------------------------------------------------------------------

# the keys a JSON object of each kind may hold
_SCENARIO_KEYS = frozenset({"seed", "planets", "links", "workload"})
_PLANET_KEYS = frozenset({"mother_id", "children"})
_CHILD_KEYS = frozenset({"qbs_id", "users"})
_USER_KEYS = frozenset({"node_id", "qid", "accept_policy"})
_LINK_KEYS = frozenset({"a", "b", "distance_meters"})
_ITEM_KEYS = frozenset({"at_tick", "from_qid", "to_qid", "payload"})


def _parse_policy(raw):
    """The policy a JSON value names; any other value passes through."""
    if raw is None or raw == "accept_all":
        return AcceptAll()
    if raw == "reject_all":
        return RejectAll()
    if type(raw) is dict and raw.keys() == {"accept_list"}:
        qids = raw["accept_list"]
        if type(qids) is list and all(map(is_u64, qids)):
            return AcceptList(frozenset(qids))
    return raw


def _parse_payload(raw, i: int, findings: list[str]) -> bytes:
    """Workload item i's payload bytes; b"" and a finding when it has none."""
    try:
        if isinstance(raw, str):
            return raw.encode("utf-8")
        if isinstance(raw, dict) and raw.keys() == {"hex"} and isinstance(raw["hex"], str):
            return bytes.fromhex(raw["hex"])
        findings.append(f"workload[{i}].payload: payload must be a UTF-8 string "
                        "or {'hex': '..'}")
    except ValueError:  # a bad hex digit, or a lone surrogate that UTF-8 cannot encode
        findings.append(f"workload[{i}].payload: not valid UTF-8" if isinstance(raw, str)
                        else f"workload[{i}].payload.hex: not valid hex")
    return b""


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from parsed JSON; raises ValidationError on any problem.

    Parsing maps JSON objects onto specs, names policies and decodes payloads;
    any other value passes through as it is, for validate_scenario to check.
    A null or absent list is empty, except `planets`, which is required."""
    if not isinstance(raw, dict):
        raise ValidationError(["$: scenario must be a JSON object"])
    findings = [f"{key}: unknown field" for key in raw if key not in _SCENARIO_KEYS]
    given = []  # values that pass through as given, which may be mutable containers

    def objects(value, path: str, keys: frozenset, make, *at: int, empty=()):
        """A JSON list with each object checked for unknown keys and mapped by
        `make(obj, *at, i)`; null is `empty`, other values and elements pass
        through. `path` is the list's, with a `{}` for each index in `at`."""
        if type(value) is not list:
            if value is None:
                return empty
            given.append(value)
            return value
        mapped = []
        for i, obj in enumerate(value):
            if type(obj) is dict:
                if not obj.keys() <= keys:
                    where = (path + "[{}]").format(*at, i)
                    findings.extend(f"{where}.{key}: unknown field"
                                    for key in obj if key not in keys)
                obj = make(obj, *at, i)
            else:
                given.append(obj)
            mapped.append(obj)
        return tuple(mapped)

    def planet(p: dict, i: int) -> PlanetSpec:
        return PlanetSpec(p.get("mother_id"), objects(
            p.get("children"), "planets[{}].children", _CHILD_KEYS, child, i))

    def child(c: dict, i: int, j: int) -> ChildSpec:
        return ChildSpec(c.get("qbs_id"), objects(
            c.get("users"), "planets[{}].children[{}].users", _USER_KEYS, user, i, j))

    def user(u: dict, *at: int) -> UserSpec:
        return UserSpec(u.get("node_id"), u.get("qid"), _parse_policy(u.get("accept_policy")))

    def item(w: dict, i: int) -> WorkloadItem:
        return WorkloadItem(w.get("at_tick"), w.get("from_qid"), w.get("to_qid"),
                            _parse_payload(w.get("payload", ""), i, findings))

    scenario = Scenario(
        raw.get("seed"),
        objects(raw.get("planets"), "planets", _PLANET_KEYS, planet, empty=None),
        objects(raw.get("links"), "links", _LINK_KEYS,
                lambda l, _: LinkSpec(l.get("a"), l.get("b"), l.get("distance_meters"))),
        objects(raw.get("workload"), "workload", _ITEM_KEYS, item))
    findings += validate_scenario(scenario)
    if findings:
        raise ValidationError(findings)
    if not given:
        object.__setattr__(scenario, "parsed", True)
    return scenario


def load_scenario(path: str) -> Scenario:
    """Read and fully validate a scenario file; OSError passes through."""
    with open(path) as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise ValidationError([f"$: not valid JSON: {exc}"]) from exc
    return scenario_from_dict(raw)


# semantic validation -------------------------------------------------------------


def is_u64(value) -> bool:
    """The rule for seeds and QIDs: an int, not a bool, in [0, 2**64)."""
    return type(value) is int and 0 <= value < _U64


def _user_faults(node_id, qid, policy) -> list[str]:
    """validate_user's findings without their path."""
    faults = []
    if not isinstance(node_id, str) or not node_id:
        faults.append("node_id: must be a non-empty string")
    if not (isinstance(policy, (AcceptAll, RejectAll)) or
            isinstance(policy, AcceptList) and type(policy.qids) is frozenset
            and all(map(is_u64, policy.qids))):
        faults.append("accept_policy: must be 'accept_all', "
                      "'reject_all' or {'accept_list': [unsigned 64-bit QIDs]}")
    if not is_u64(qid):
        faults.append("qid: must be an unsigned 64-bit integer")
    return faults


def validate_user(node_id, qid, policy, path: str = "user") -> list[str]:
    """The rules one user meets wherever it attaches: node id, QID and accept policy."""
    return [f"{path}.{fault}" for fault in _user_faults(node_id, qid, policy)]


# a node id's path, by the number of list indices that place it; then a user's
_ID_PATHS = {1: "planets[{}].mother_id", 2: "planets[{}].children[{}].qbs_id",
             3: "planets[{}].children[{}].users[{}].node_id"}
_USER_PATH = "planets[{}].children[{}].users[{}]"


def validate_scenario(scenario: Scenario) -> list[str]:
    """All problems with a structured scenario: shapes, types, ranges and references.
    Paths are kept as list indices and formatted only for a finding."""
    findings: list[str] = []
    node_ids: dict[str, tuple[int, ...]] = {}  # id -> where it was first claimed
    qids: dict[int, tuple[int, int, int]] = {}

    if not is_u64(scenario.seed):
        findings.append("seed: must be an unsigned 64-bit integer")

    def claim_node(node_id: str, at: tuple[int, ...]) -> None:
        if not isinstance(node_id, str) or not node_id:
            findings.append(f"{_ID_PATHS[len(at)].format(*at)}: must be a non-empty string")
        elif node_id in node_ids:
            first = node_ids[node_id]
            findings.append(f"{_ID_PATHS[len(at)].format(*at)}: duplicate id '{node_id}' "
                            f"(also used at {_ID_PATHS[len(first)].format(*first)})")
        else:
            node_ids[node_id] = at

    def each(items, cls: type, path: str, *at: int):
        """(index, item) for each `cls` element of a tuple or list; the rest are
        findings. `path` is the list's, with a `{}` for each index in `at`."""
        if not isinstance(items, (tuple, list)):
            findings.append(f"{path.format(*at)}: must be a list")
            return
        for i, item in enumerate(items):
            if isinstance(item, cls):
                yield i, item
            else:
                findings.append(f"{path.format(*at)}[{i}]: must be an object")

    for i, planet in each(scenario.planets, PlanetSpec, "planets"):
        claim_node(planet.mother_id, (i,))
        for j, child in each(planet.children, ChildSpec, "planets[{}].children", i):
            claim_node(child.qbs_id, (i, j))
            for k, user in each(child.users, UserSpec, "planets[{}].children[{}].users", i, j):
                at = (i, j, k)
                faults = _user_faults(user.node_id, user.qid, user.accept_policy)
                if faults:
                    path = _USER_PATH.format(*at)
                    findings += [f"{path}.{fault}" for fault in faults]
                if isinstance(user.node_id, str) and user.node_id:  # else already a finding
                    claim_node(user.node_id, at)
                if not is_u64(user.qid):
                    continue
                if user.qid in qids:
                    findings.append(f"{_USER_PATH.format(*at)}.qid: duplicate QID {user.qid} "
                                    f"(also used at {_USER_PATH.format(*qids[user.qid])})")
                else:
                    qids[user.qid] = at

    seen_pairs: set[frozenset] = set()
    for i, link in each(scenario.links, LinkSpec, "links"):
        ends = (link.a, link.b)
        for end, node_id in zip("ab", ends):
            if not isinstance(node_id, str) or node_id not in node_ids:
                findings.append(f"links[{i}].{end}: unknown node id {node_id!r}")
        if link.a == link.b:
            findings.append(f"links[{i}]: link endpoints must differ")
        distance = link.distance_meters
        if type(distance) not in (int, float) or not 0 <= distance <= sys.float_info.max:
            findings.append(f"links[{i}].distance_meters: must be a number, finite and >= 0")
        if not all(isinstance(node_id, str) for node_id in ends):
            continue
        pair = frozenset(ends)
        if pair in seen_pairs and link.a != link.b:
            findings.append(f"links[{i}]: duplicate link between "
                            f"'{link.a}' and '{link.b}'")
        seen_pairs.add(pair)

    for i, item in each(scenario.workload, WorkloadItem, "workload"):
        if type(item.at_tick) is not int or item.at_tick < 0:
            findings.append(f"workload[{i}].at_tick: must be an integer >= 0")
        for end in ("from_qid", "to_qid"):
            qid = getattr(item, end)
            if type(qid) is not int or qid not in qids:
                findings.append(f"workload[{i}].{end}: unknown QID {qid!r}")
        if item.from_qid == item.to_qid:
            findings.append(f"workload[{i}]: from_qid and to_qid must differ")
        if not isinstance(item.payload, bytes):
            findings.append(f"workload[{i}].payload: must be bytes")
        elif len(item.payload) > PAYLOAD_CAP:
            findings.append(f"workload[{i}].payload: {len(item.payload)} bytes exceeds "
                            f"the {PAYLOAD_CAP}-byte cap")

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
