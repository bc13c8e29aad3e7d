"""Seeded scenario generators for the benchmark's three traffic mixes.

Each generator returns a plain scenario dict, the same JSON shape a user
would hand to `entnet run`, so the simulator only ever sees the public
scenario format. The same seed always gives the same dict.

Every workload runs on the same populated network: two planets, one with
three Children of 60 users and one with a single Child of 20 users, 5% of
users `reject_all`; the workloads differ only in their traffic.

The seed picks users, payload bytes and send ticks, never the amount of
work: every seed of a workload has the same number of sessions on each kind
of path, the same payload sizes and the same number of refused sessions.
The end-to-end phase times are scaled to a fixed per-workload unit, so a
seed that carried more work would read as faster or slower code. The
`sessions` mix is 28% same-Child, 54% cross-QBS and 18% interplanet, the
shares uniformly random pairs of this network have.

All three are open-loop in simulated time: each item fires at its
`at_tick` whatever the simulator's progress, and nothing waits for an
earlier session to finish.
"""

from __future__ import annotations

import random

# users per Child, per planet
NETWORK = ((60, 60, 60), (20,))
REJECT_FRACTION = 0.05

# Per-iteration sizes. One iteration takes 0.6 to 1.1 s at the seed commit,
# so a 40-second run makes 20 to 46 rounds of an entnet and a refsim
# iteration; short iterations keep the two sides of a round close in time.
# SESSIONS_MIX counts sessions per kind of path; SESSIONS_REFUSED of them go
# to a refusing callee.
SESSIONS_MIX = {"same": 34, "cross": 65, "inter": 21}
SESSIONS_ITEMS = sum(SESSIONS_MIX.values())
SESSIONS_REFUSED = 6
SESSIONS_MAX_PAYLOAD = 24
BULK_MESSAGE_BYTES = 2 * 1024
FANIN_CALLERS = 4
FANIN_PER_CALLER = 10
FANIN_PAYLOAD = 256


def _network(rng: random.Random) -> tuple[list[dict], list[dict]]:
    """The shared hierarchy, plus a flat list of user descriptors."""
    planets = []
    users = []
    qid = 1000 + rng.randrange(1000)
    total = sum(map(sum, NETWORK))
    refusing = set(rng.sample(range(total), round(total * REJECT_FRACTION)))
    for p, child_sizes in enumerate(NETWORK):
        children = []
        for c, size in enumerate(child_sizes):
            child_users = []
            for u in range(size):
                accepts = len(users) not in refusing
                node_id = f"p{p}c{c}u{u:03d}"
                child_users.append({
                    "node_id": node_id, "qid": qid,
                    "accept_policy": "accept_all" if accepts else "reject_all",
                })
                users.append({"qid": qid, "planet": p, "child": c, "accepts": accepts})
                qid += 1
            children.append({"qbs_id": f"p{p}c{c}", "users": child_users})
        planets.append({"mother_id": f"p{p}m", "children": children})
    return planets, users


def _item(at_tick: int, src: dict, dst: dict, payload: bytes) -> dict:
    return {"at_tick": at_tick, "from_qid": src["qid"], "to_qid": dst["qid"],
            "payload": {"hex": payload.hex()}}


def _scenario(seed: int, planets: list[dict], workload: list[dict]) -> dict:
    workload.sort(key=lambda w: (w["at_tick"], w["from_qid"], w["to_qid"]))
    return {"seed": seed, "planets": planets, "links": [], "workload": workload}


def _path(src: dict, dst: dict) -> str:
    if src["planet"] != dst["planet"]:
        return "inter"
    return "same" if src["child"] == dst["child"] else "cross"


def sessions(seed: int) -> dict:
    """Control plane: many short sessions between random users, in a fixed mix."""
    rng = random.Random(f"sessions/{seed}")
    planets, users = _network(rng)
    paths = [path for path, count in SESSIONS_MIX.items() for _ in range(count)]
    every = SESSIONS_ITEMS // SESSIONS_REFUSED
    pairs: set[tuple[int, int]] = set()
    workload = []
    for i, path in enumerate(paths):
        size, refuse = 1 + i % SESSIONS_MAX_PAYLOAD, i % every == 0
        sources = []
        while not sources:  # the lone Child of planet 1 has no cross-QBS peer
            dst = rng.choice([u for u in users if u["accepts"] != refuse])
            sources = [u for u in users if u is not dst and _path(u, dst) == path
                       and (u["qid"], dst["qid"]) not in pairs]
        src = rng.choice(sources)
        pairs.add((src["qid"], dst["qid"]))
        workload.append(_item(rng.randrange(2 * SESSIONS_ITEMS), src, dst,
                              rng.randbytes(size)))
    return _scenario(seed, planets, workload)


def bulk(seed: int) -> dict:
    """Data plane, one stream per path: same-QBS, cross-QBS and interplanet."""
    rng = random.Random(f"bulk/{seed}")
    planets, users = _network(rng)

    def pick(planet: int, child: int, taken: set) -> dict:
        pool = [u for u in users if u["planet"] == planet and u["child"] == child
                and u["accepts"] and u["qid"] not in taken]
        user = rng.choice(pool)
        taken.add(user["qid"])
        return user

    taken: set[int] = set()
    a, b = rng.sample(range(len(NETWORK[0])), 2)
    far = rng.randrange(len(NETWORK[1]))
    routes = [((0, a), (0, a)), ((0, a), (0, b)), ((0, b), (1, far))]
    workload = []
    for (p_src, c_src), (p_dst, c_dst) in routes:
        src = pick(p_src, c_src, taken)
        dst = pick(p_dst, c_dst, taken)
        workload.append(_item(0, src, dst, rng.randbytes(BULK_MESSAGE_BYTES)))
    return _scenario(seed, planets, workload)


def fanin(seed: int) -> dict:
    """Data plane under contention: every session between two Children opens at once."""
    rng = random.Random(f"fanin/{seed}")
    planets, users = _network(rng)
    a, b = rng.sample(range(len(NETWORK[0])), 2)
    callers = rng.sample([u for u in users if u["planet"] == 0
                          and u["child"] == a], FANIN_CALLERS)
    callees = [u for u in users if u["planet"] == 0 and u["child"] == b
               and u["accepts"]]
    workload = []
    for src in callers:
        for dst in rng.sample(callees, FANIN_PER_CALLER):
            workload.append(_item(0, src, dst, rng.randbytes(FANIN_PAYLOAD)))
    return _scenario(seed, planets, workload)


WORKLOADS = {"sessions": sessions, "bulk": bulk, "fanin": fanin}
