"""Seeded scenario scripts, each carrying the outcome it must produce.

A generator builds a script through `Script`, which keeps its own model of
every meeting: who leads, who holds which epoch's key, which departed member
walked away with which key, and the next media counter of every stream. Each
scripted action records what the simulator's transcript has to show for it.
The model follows the protocol as README.md and PAPER.md describe it and
shares no code with the program, so `checks.py` can hold the transcript
against it.

The same workload and seed always give the same script. The seed picks the
names, the devices and who sends; the number and kind of actions, and their
sizes, do not depend on it. Identity lookups scan the registry in order, so
a member's place in it sets what their transactions cost: media therefore
sends members away in registry order, and the seed only decides who stands
at each place.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Optional

DEVICES = ("laptop", "phone", "tablet", "desktop", "watch")
# one payload size for every packet: a packet's cost grows with its size, and
# a seeded size would make latency figures depend on the seed
PACKET_BYTES = 1200


@dataclass(frozen=True)
class PacketExpect:
    meeting: int
    stream: int
    epoch: int
    counter: int
    nbytes: int
    members: dict  # receiver -> whether their decrypt succeeds
    ghosts: tuple  # (departed user, epoch at leave, succeeds) in leave order
    probe: bool  # a tampered copy goes to one honest reader


@dataclass
class Expect:
    honest_txs: int = 0
    # (meeting, epoch, leader, recipients) per key distribution
    epochs: list = field(default_factory=list)
    packet: Optional[PacketExpect] = None
    departure: Optional[tuple] = None  # (user, meeting, epoch at leave)
    attacks: list = field(default_factory=list)  # each must be frustrated


@dataclass(frozen=True)
class Action:
    tick: int
    user: str
    action: str
    args: tuple
    expect: Expect

    @property
    def kind(self) -> str:
        return "attack" if self.action.startswith("adversary.") else self.action


@dataclass
class MeetingModel:
    present: list = field(default_factory=list)  # active requesters, chain order
    holders: dict = field(default_factory=dict)  # user -> epoch of the key held
    epoch: Optional[int] = None
    ghosts: list = field(default_factory=list)  # (user, epoch at leave)
    counters: dict = field(default_factory=dict)  # (stream, epoch) -> next


class Script:
    def __init__(self, workload: str, seed: int, rule: str):
        self.workload = workload
        self.seed = seed
        self.rule = rule
        self.actors: list[tuple[str, str, bool]] = []
        self.streams: dict[str, int] = {}
        self.adversaries: set[str] = set()
        self.actions: list[Action] = []
        self.meetings: list[MeetingModel] = []
        self.eavesdroppers: list[str] = []

    # -- people

    def people(self, rnd: random.Random, count: int, adversary: bool = False) -> list[str]:
        taken = {user for user, _, _ in self.actors}
        users = []
        while len(users) < count:
            user = "".join(rnd.choices(string.ascii_lowercase, k=8))
            if user in taken:
                continue
            taken.add(user)
            users.append(user)
            self.actors.append((user, rnd.choice(DEVICES), adversary))
            if adversary:
                self.adversaries.add(user)
            # every sender keeps to a stream of its own
            self.streams[user] = len(self.actors)
        return users

    # -- actions

    def _add(self, user: str, action: str, args: tuple, expect: Expect) -> None:
        tick = len(self.actions) + 1
        self.actions.append(Action(tick, user, action, tuple(map(str, args)), expect))

    def _rekey(self, index: int, leader: str, expect: Expect) -> None:
        meeting = self.meetings[index]
        meeting.epoch = 0 if meeting.epoch is None else meeting.epoch + 1
        recipients = frozenset(u for u in meeting.present if u != leader)
        for user in recipients | {leader}:
            meeting.holders[user] = meeting.epoch
        expect.epochs.append((index, meeting.epoch, leader, recipients))

    def publish(self, user: str) -> int:
        self.meetings.append(MeetingModel())
        self._add(user, "publish", (), Expect(honest_txs=1))
        return len(self.meetings) - 1

    def request(self, user: str, index: int) -> None:
        self.meetings[index].present.append(user)
        self._add(user, "request", (index,), Expect(honest_txs=1))

    def distribute(self, user: str, index: int) -> None:
        expect = Expect(honest_txs=1)
        self._rekey(index, user, expect)
        self._add(user, "distribute", (index,), expect)

    def packet(self, rnd: random.Random, index: int, senders: Optional[list] = None) -> None:
        meeting = self.meetings[index]
        keyed = [u for u, e in meeting.holders.items() if e == meeting.epoch]
        pool = [u for u in keyed if senders is None or u in senders]
        sender = rnd.choice(sorted(pool))
        stream = self.streams[sender]
        epoch = meeting.epoch
        counter = meeting.counters.get((stream, epoch), 0)
        meeting.counters[(stream, epoch)] = counter + 1
        members = {
            user: meeting.holders[user] == epoch
            for user, _, _ in self.actors
            if user in meeting.holders and user != sender
        }
        ghosts = tuple((u, left, left == epoch) for u, left in meeting.ghosts)
        probe = any(ok and u not in self.adversaries for u, ok in members.items())
        eavesdroppers = sum(1 for u in self.eavesdroppers if u != sender)
        expect = Expect(
            packet=PacketExpect(index, stream, epoch, counter, PACKET_BYTES, members,
                                ghosts, probe),
            attacks=["eavesdrop"] * eavesdroppers,
        )
        self._add(sender, "packet", (stream, PACKET_BYTES, index), expect)

    def leave(self, user: str, index: int) -> None:
        meeting = self.meetings[index]
        left_at = meeting.holders.pop(user, None)
        if left_at is not None:
            meeting.ghosts.append((user, left_at))
        if user in meeting.present:
            meeting.present.remove(user)
        self._add(user, "leave", (index,),
                  Expect(honest_txs=1, departure=(user, index, left_at)))

    def reassign(self, user: str, successor: str, index: int) -> None:
        """Hand leadership over; the successor rekeys in the same tick."""
        meeting = self.meetings[index]
        if self.rule == "timeorder" and meeting.present[0] != successor:
            raise ValueError("time order hands over to the earliest member")
        expect = Expect(honest_txs=2)
        self._rekey(index, successor, expect)
        self._add(user, "reassign", (successor, index), expect)

    def dismiss(self, user: str, index: int) -> None:
        self.meetings[index].holders.clear()
        self._add(user, "dismiss", (index,), Expect(honest_txs=1))

    def impersonate(self, user: str, victim: str, index: int) -> None:
        self._add(user, "adversary.impersonate", (victim, index),
                  Expect(attacks=["impersonate"]))

    def replay(self, user: str, index: int) -> None:
        self._add(user, "adversary.replay_request", (index,),
                  Expect(attacks=["replay_request"]))

    def eavesdrop(self, user: str) -> None:
        self.eavesdroppers.append(user)
        self._add(user, "adversary.eavesdrop", (), Expect(attacks=["eavesdrop"]))

    # -- output

    def text(self) -> str:
        lines = [f"seed {self.seed}", f"rule {self.rule}"]
        for user, device, adversary in self.actors:
            lines.append(f"actor {user} {device}" + (" adversary" if adversary else ""))
        for a in self.actions:
            lines.append(" ".join(("tick", str(a.tick), a.user, a.action) + a.args))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads


def media(seed: int, members: int = 8, senders: int = 6, packets: int = 8000,
          cycles: int = 12, attacks: int = 3) -> Script:
    """One meeting with heavy media: six senders, an eavesdropper capturing
    every packet, leave/rejoin rekeys and a few refused join attempts."""
    rnd = random.Random(f"media:{seed}")
    s = Script("media", seed, "designation")
    leader, *rest = s.people(rnd, members)
    (eve,) = s.people(rnd, 1, adversary=True)
    talkers = [leader] + rest[: senders - 1]
    m = s.publish(leader)
    for user in rest:
        s.request(user, m)
    s.distribute(leader, m)
    s.eavesdrop(eve)
    segments = 2 * cycles + 1
    sizes = [packets // segments + (i < packets % segments) for i in range(segments)]
    attack_every = max(1, cycles // max(1, attacks))

    def talk(count: int) -> None:
        for _ in range(count):
            s.packet(rnd, m, senders=talkers)

    talk(sizes[0])
    for cycle in range(cycles):
        if cycle % attack_every == 0 and cycle // attack_every < attacks:
            s.impersonate(eve, rest[cycle // attack_every % len(rest)], m)
            s.replay(eve, m)
        leaver = rest[cycle % len(rest)]
        s.leave(leaver, m)
        s.distribute(leader, m)
        talk(sizes[1 + 2 * cycle])
        s.request(leaver, m)
        s.distribute(leader, m)
        talk(sizes[2 + 2 * cycle])
    s.dismiss(leader, m)
    return s


def _directory_meeting(s: Script, rnd: random.Random, leader: str,
                       members: list, late: str, packets: tuple):
    m = s.publish(leader)
    yield
    for user in members:
        s.request(user, m)
        yield
    s.distribute(leader, m)
    yield
    for _ in range(packets[0]):
        s.packet(rnd, m)
    yield
    s.leave(members[0], m)
    yield
    s.distribute(leader, m)
    yield
    s.request(late, m)
    yield
    s.distribute(leader, m)
    yield
    for _ in range(packets[1]):
        s.packet(rnd, m)
    yield
    successor = s.meetings[m].present[0]
    s.reassign(leader, successor, m)
    yield
    s.leave(leader, m)
    yield
    for _ in range(packets[2]):
        s.packet(rnd, m)
    yield
    s.dismiss(successor, m)


def directory(seed: int, registry: int = 800, meetings: int = 8, members: int = 5,
              packets: tuple = (4, 5, 5), stagger: int = 3) -> Script:
    """A large identity registry; small time-order meetings drawn from it
    share one meeting ledger, each with joins, rekeys, a leave, a late join,
    a handover and a dismissal.

    A lookup scans the registry up to the identity it wants, so where the
    members sit in it sets the cost of the run. Each role therefore draws
    from a fixed stretch of the registry, only the place within the stretch
    being random, and the meetings take turns in a fixed order: the seed
    changes who meets, not how much work the run is.

    Meeting i joins the turns after i * stagger of them, so that the
    meetings are in different phases at any one time. In lockstep, all
    packets of a run would fall in three short bursts and all rekeys in
    three others, and their medians would follow the machine's speed at
    those few moments rather than over the run.

    Within a meeting, each batch of packets is one turn, sent back to back
    as a media stream is. A packet sent right after another meeting's
    lookup or rekey starts on cold caches, and such packets slowed with
    the load on the rest of the host far more than packets that follow
    packets do.
    """
    rnd = random.Random(f"directory:{seed}")
    s = Script("directory", seed, "timeorder")
    registered = s.people(rnd, registry)
    group_size = members + 2
    stretch = registry // (meetings * group_size)
    steps = []
    for i in range(meetings):
        group = [
            registered[(role * meetings + i) * stretch + rnd.randrange(stretch)]
            for role in range(group_size)
        ]
        steps.append(_directory_meeting(s, rnd, group[0], group[1:-1], group[-1], packets))
    waiting, steps = steps, []
    turn = 0
    while waiting or steps:
        if waiting and turn % stagger == 0:
            steps.append(waiting.pop(0))
        turn += 1
        for step in list(steps):
            try:
                next(step)
            except StopIteration:
                steps.remove(step)
    return s


WORKLOADS = {"media": media, "directory": directory}


def generate(workload: str, seed: int, **sizes) -> Script:
    # the simulator's own seed is the benchmark seed, so every input of a
    # run follows from --seed
    return WORKLOADS[workload](seed % 2**64, **sizes)
