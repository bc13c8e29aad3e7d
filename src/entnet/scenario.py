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
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

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
    planets: tuple[PlanetSpec, ...] = field(default=(), metadata={"required": True})
    links: tuple[LinkSpec, ...] = ()
    workload: tuple[WorkloadItem, ...] = ()
    # set by scenario_from_dict on a scenario it validated and built from nothing
    # but tuples, frozen specs, frozensets, bytes and scalars, so it stays valid;
    # any other scenario, `dataclasses.replace` copies included, starts unset
    parsed: bool = field(default=False, init=False, repr=False, compare=False)


# the schema -------------------------------------------------------------------
# The spec dataclasses are the only schema: a spec's JSON keys are its init
# fields, in field order, and a field's kind says how its value is parsed and
# written. A tuple of specs is a list of JSON objects, an accept policy and a
# payload each have a pair of hooks, and any other value passes through.


def _kinds(cls: type) -> tuple[tuple[str, object], ...]:
    """(name, kind) of each init field of a spec, in order. The kind of a tuple
    of specs is the spec type; of any other field, its type."""
    hints = get_type_hints(cls)
    return tuple((f.name, get_args(hint)[0] if get_origin(hint) is tuple else hint)
                 for f in fields(cls) if f.init for hint in (hints[f.name],))


_FIELDS = {cls: _kinds(cls) for cls in
           (Scenario, PlanetSpec, ChildSpec, UserSpec, LinkSpec, WorkloadItem)}
_KEYS = {cls: frozenset(name for name, _ in kinds) for cls, kinds in _FIELDS.items()}
_REQUIRED = frozenset(f.name for f in fields(Scenario) if f.metadata.get("required"))


def _path(*parts) -> str:
    """A finding's path from field names and list indices: planets[0].mother_id."""
    return "".join(f"[{part}]" if type(part) is int else f".{part}" for part in parts)[1:]


# parsing ----------------------------------------------------------------------

_ACCEPT_ALL, _REJECT_ALL = AcceptAll(), RejectAll()  # frozen, so one of each serves all


def _parse_policy(raw):
    """The policy a JSON value names; any other value passes through."""
    if raw is None or raw == "accept_all":
        return _ACCEPT_ALL
    if raw == "reject_all":
        return _REJECT_ALL
    if type(raw) is dict and raw.keys() == {"accept_list"}:
        qids = raw["accept_list"]
        if type(qids) is list and all(map(is_u64, qids)):
            return AcceptList(frozenset(qids))
    return raw


def _parse_payload(raw) -> bytes:
    """The bytes a JSON payload names, or a ValueError whose text follows the
    payload's path in its finding."""
    try:
        if isinstance(raw, str):
            return raw.encode("utf-8")
        if isinstance(raw, dict) and raw.keys() == {"hex"} and isinstance(raw["hex"], str):
            return bytes.fromhex(raw["hex"])
    except ValueError:  # a bad hex digit, or a lone surrogate that UTF-8 cannot encode
        raise ValueError(": not valid UTF-8" if isinstance(raw, str)
                         else ".hex: not valid hex") from None
    raise ValueError(": payload must be a UTF-8 string or {'hex': '..'}")


def _policy_to_json(policy: AcceptPolicy):
    if isinstance(policy, AcceptList):
        return {"accept_list": sorted(policy.qids)}
    return "reject_all" if isinstance(policy, RejectAll) else "accept_all"


def _payload_to_json(payload: bytes):
    """Printable UTF-8 text as it is, the empty payload included; else hex."""
    try:
        if (text := payload.decode("utf-8")).isprintable():
            return text
    except UnicodeDecodeError:
        pass
    return {"hex": payload.hex()}


# (parse, write) hooks by kind; any other kind is parsed and written as it is
_HOOKS = {AcceptPolicy: (_parse_policy, _policy_to_json),
          bytes: (_parse_payload, _payload_to_json)}
_SAME = (lambda value: value,) * 2


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from parsed JSON; raises ValidationError on any problem.

    Parsing checks each object's keys, maps objects onto specs, names policies
    and decodes payloads; any other value passes through as it is, for
    validate_scenario to check. A null or absent list is empty unless it is
    required, and an absent payload is empty."""
    if not isinstance(raw, dict):
        raise ValidationError(["$: scenario must be a JSON object"])
    given = []  # values that pass through as given, which may be mutable containers

    def specs(items, cls: type, *at):
        """The JSON list at path `at` as a tuple of `cls` specs; null is empty, and
        other values and elements pass through. An object's leading fields pass
        through unchanged and its last is parsed by kind, with the parser chosen
        once per list."""
        if type(items) is not list:
            if items is None:
                return ()
            given.append(items)
            return items
        keys = _KEYS[cls]
        *lead, (last, kind) = _FIELDS[cls]
        lead = [name for name, _ in lead]
        absent = "" if kind is bytes else None  # an absent payload is empty
        parse = ((lambda value: specs(value, kind, *at, i, last))  # i: the loop's
                 if kind in _FIELDS else _HOOKS.get(kind, _SAME)[0])
        mapped = []
        for i, obj in enumerate(items):
            if type(obj) is dict:
                if not obj.keys() <= keys:
                    findings.extend(f"{_path(*at, i, key)}: unknown field"
                                    for key in obj if key not in keys)
                try:
                    value = parse(obj.get(last, absent))
                except ValueError as fault:  # a payload that names no bytes is empty
                    findings.append(f"{_path(*at, i, last)}{fault}")
                    value = b""
                obj = cls(*map(obj.get, lead), value)
            else:
                given.append(obj)
            mapped.append(obj)
        return tuple(mapped)

    findings = [f"{key}: unknown field" for key in raw if key not in _KEYS[Scenario]]
    # a required list that is null or absent stays None, for validate_scenario
    scenario = Scenario(*[
        specs(raw.get(name), kind, name) if kind in _FIELDS and (
            raw.get(name) is not None or name not in _REQUIRED) else raw.get(name)
        for name, kind in _FIELDS[Scenario]])
    findings += validate_scenario(scenario)
    if findings:
        raise ValidationError(findings)
    if not given:
        object.__setattr__(scenario, "parsed", True)
    return scenario


def _objects(value):
    """Each JSON object in `value` with its path parts, in document order."""
    stack = [((), value)]
    while stack:  # not recursive: json.load accepts deeper nesting than Python calls
        at, value = stack.pop()
        if type(value) is dict:
            yield at, value
            items = value.items()
        elif type(value) is list:
            items = enumerate(value)
        else:
            continue
        stack.extend(reversed([((*at, key), item) for key, item in items]))


def load_scenario(path: str) -> Scenario:
    """Read and fully validate a UTF-8 scenario file; OSError passes through.
    A key given twice in one JSON object is a finding at its path."""
    repeats: dict[int, list[str]] = {}  # id of a parsed object -> the keys it repeats

    def to_dict(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            repeats[id(obj)] = list(dict.fromkeys(
                key for key, _ in pairs if key in seen or seen.add(key)))
        return obj

    with open(path, encoding="utf-8") as handle:
        try:  # ValueError: bad UTF-8 or JSON, or an integer past Python's digit limit
            raw = json.load(handle, object_pairs_hook=to_dict)
        except (ValueError, RecursionError) as exc:  # the latter: nested too deeply
            raise ValidationError([f"$: not valid JSON: {exc}"]) from exc
    if repeats:  # every object is still alive in `raw`, so no id was reused
        raise ValidationError([f"{_path(*at, key)}: repeated field"
                               for at, obj in _objects(raw)
                               for key in repeats.get(id(obj), ())])
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


def validate_scenario(scenario: Scenario) -> list[str]:
    """All problems with a structured scenario: shapes, types, ranges and references.
    Paths are kept as parts and formatted only for a finding."""
    findings: list[str] = []
    node_ids: dict[str, tuple] = {}  # id -> the path where it was first claimed
    qids: dict[int, tuple] = {}  # QID -> the path of its user's node id

    def report(at: tuple, text: str) -> None:
        findings.append(f"{_path(*at)}: {text}")

    if not is_u64(scenario.seed):
        report(("seed",), "must be an unsigned 64-bit integer")

    def claim_node(node_id: str, at: tuple) -> None:
        if not isinstance(node_id, str) or not node_id:
            report(at, "must be a non-empty string")
        elif node_id in node_ids:
            report(at, f"duplicate id '{node_id}' (also used at {_path(*node_ids[node_id])})")
        else:
            node_ids[node_id] = at

    def each(items, cls: type, at: tuple):
        """(index, item) for each `cls` element of a tuple or list at path `at`;
        the rest are findings."""
        if not isinstance(items, (tuple, list)):
            report(at, "must be a list")
            return
        for i, item in enumerate(items):
            if isinstance(item, cls):
                yield i, item
            else:
                report((*at, i), "must be an object")

    for i, planet in each(scenario.planets, PlanetSpec, ("planets",)):
        claim_node(planet.mother_id, ("planets", i, "mother_id"))
        for j, child in each(planet.children, ChildSpec, ("planets", i, "children")):
            claim_node(child.qbs_id, ("planets", i, "children", j, "qbs_id"))
            for k, user in each(child.users, UserSpec, ("planets", i, "children", j, "users")):
                # the path of the user's node id; the user's own is all but its last part
                at = ("planets", i, "children", j, "users", k, "node_id")
                faults = _user_faults(user.node_id, user.qid, user.accept_policy)
                if faults:
                    findings += [f"{_path(*at[:-1])}.{fault}" for fault in faults]
                if isinstance(user.node_id, str) and user.node_id:  # else already a finding
                    claim_node(user.node_id, at)
                if not is_u64(user.qid):
                    continue
                if user.qid in qids:
                    report((*at[:-1], "qid"), f"duplicate QID {user.qid} "
                                              f"(also used at {_path(*qids[user.qid][:-1])})")
                else:
                    qids[user.qid] = at

    seen_pairs: set[frozenset] = set()
    for i, link in each(scenario.links, LinkSpec, ("links",)):
        ends = (link.a, link.b)
        for end, node_id in zip("ab", ends):
            if not isinstance(node_id, str) or node_id not in node_ids:
                report(("links", i, end), f"unknown node id {node_id!r}")
        if link.a == link.b:
            report(("links", i), "link endpoints must differ")
        distance = link.distance_meters
        if type(distance) not in (int, float) or not 0 <= distance <= sys.float_info.max:
            report(("links", i, "distance_meters"), "must be a number, finite and >= 0")
        if not all(isinstance(node_id, str) for node_id in ends):
            continue
        pair = frozenset(ends)
        if pair in seen_pairs and link.a != link.b:
            report(("links", i), f"duplicate link between '{link.a}' and '{link.b}'")
        seen_pairs.add(pair)

    for i, item in each(scenario.workload, WorkloadItem, ("workload",)):
        if type(item.at_tick) is not int or item.at_tick < 0:
            report(("workload", i, "at_tick"), "must be an integer >= 0")
        for end in ("from_qid", "to_qid"):
            qid = getattr(item, end)
            if type(qid) is not int or qid not in qids:
                report(("workload", i, end), f"unknown QID {qid!r}")
        if item.from_qid == item.to_qid:
            report(("workload", i), "from_qid and to_qid must differ")
        if not isinstance(item.payload, bytes):
            report(("workload", i, "payload"), "must be bytes")
        elif len(item.payload) > PAYLOAD_CAP:
            report(("workload", i, "payload"),
                   f"{len(item.payload)} bytes exceeds the {PAYLOAD_CAP}-byte cap")

    return findings


# serialization -------------------------------------------------------------------


def _to_json(cls: type, spec) -> dict:
    """A `cls` spec as its JSON object: each init field, in order, written by kind."""
    obj = {}
    for name, kind in _FIELDS[cls]:
        value = getattr(spec, name)
        obj[name] = ([_to_json(kind, element) for element in value] if kind in _FIELDS
                     else _HOOKS.get(kind, _SAME)[1](value))
    return obj


def scenario_to_dict(scenario: Scenario) -> dict:
    return _to_json(Scenario, scenario)


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


# ready-made scenarios ---------------------------------------------------------------


def _example(seed: int, planets: tuple[PlanetSpec, ...], item: WorkloadItem) -> Scenario:
    """A walkthrough with one transfer. Its links put each user 10 m from its
    Child, each Child 1 km from its Mother and the Mothers 2.25e11 m apart."""
    children = [(child, planet) for planet in planets for child in planet.children]
    links = ([LinkSpec(user.node_id, child.qbs_id, 10.0)
              for child, _ in children for user in child.users]
             + [LinkSpec(child.qbs_id, planet.mother_id, 1000.0) for child, planet in children]
             + [LinkSpec(a.mother_id, b.mother_id, 2.25e11) for a, b in zip(planets, planets[1:])])
    return Scenario(seed, planets, tuple(links), (item,))


def example_scenario(kind: str) -> Scenario:
    """A ready-to-run walkthrough: 'same-qbs', 'cross-qbs' or 'interplanet'."""
    if kind == "same-qbs":
        return _example(1, (PlanetSpec("earth-mother", (
            ChildSpec("qbs-1", (UserSpec("user-a", 11), UserSpec("user-b", 12))),
        )),), WorkloadItem(0, 11, 12, b"HELLO"))
    if kind == "cross-qbs":
        return _example(2, (PlanetSpec("earth-mother", (
            ChildSpec("qbs-1", (UserSpec("user-a", 11),)),
            ChildSpec("qbs-2", (UserSpec("user-c", 13),)),
        )),), WorkloadItem(0, 11, 13, b"HELLO ACROSS STATIONS"))
    if kind == "interplanet":
        return _example(3, (
            PlanetSpec("earth-mother", (ChildSpec("qbs-1", (UserSpec("user-a", 11),)),)),
            PlanetSpec("mars-mother", (ChildSpec("qbs-2", (UserSpec("user-c", 13),)),)),
        ), WorkloadItem(0, 11, 13, b"HELLO MARS"))
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
