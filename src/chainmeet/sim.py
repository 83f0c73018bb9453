"""Scripted multi-party runs with deterministic transcripts and goal checks.

A scenario file drives a set of actors -- some honest, some adversarial --
through meeting lifecycles on shared ledgers. Every source of randomness is
a single seeded generator, so a run's transcript is byte-for-byte
reproducible. After the last tick the transcript is folded into a goal
report: who could read media, whether tampering went unnoticed, whether any
honest transaction was refused, whether departed members stayed locked out.

Scenario grammar, one directive per line ('#' starts a comment):

    seed <u64>
    rule <designation|timeorder>
    actor <user> <device> [adversary]
    tick <n> <user> <action> [args...]

Ticks must be strictly increasing; one action happens per tick. Actions:

    publish [info words...]
    request [meeting]
    verify_all [meeting]
    distribute [meeting]
    packet <stream> <nbytes> [meeting]
    leave [meeting]
    reassign <new_user> [meeting]
    dismiss [meeting]
    adversary.impersonate <victim> [meeting]
    adversary.tamper_ledger
    adversary.mix_keys <victim> [meeting_a meeting_b]
    adversary.replay_request [meeting]
    adversary.eavesdrop

Meetings are addressed by the order they were published, starting at 0.
Every meeting a run publishes signs the `rule` line (by default
designation) into its publish.

Transcript events are plain slotted dataclasses, written once into the
append-only transcript and never changed after; they compare by value but
do not hash. They are not frozen because a frozen dataclass sets each field
through `object.__setattr__`: on CPython 3.11 (2-vCPU VM), building the
11-field `DecryptEvent` by keyword took about 2.8 us frozen against 0.4 us
plain and positional, and a media packet builds about sixteen events.
"""

from __future__ import annotations

import bisect
import hashlib
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple, Optional, Union

from . import crypto, identity as identity_mod, meeting as m
from .errors import (
    AuthenticationFailure,
    EncodingError,
    InvalidTransaction,
    MalformedScenario,
    NoEntryForMe,
    Reason,
)
from .ledger import TxTag, parse_block
from .rng import DeterministicRng

ACTIONS = {
    "publish",
    "request",
    "verify_all",
    "distribute",
    "packet",
    "leave",
    "reassign",
    "dismiss",
    "adversary.impersonate",
    "adversary.tamper_ledger",
    "adversary.mix_keys",
    "adversary.replay_request",
    "adversary.eavesdrop",
}

AVAILABILITY_NOTE = (
    "availability is reduced to admission: no transaction from an honest "
    "actor may be refused; delivery timing is outside the model"
)


# ---------------------------------------------------------------------------
# scenario script


@dataclass(frozen=True)
class ActorSpec:
    user: str
    device: str
    adversary: bool


@dataclass(frozen=True)
class ScriptedEvent:
    tick: int
    user: str
    action: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Scenario:
    seed: int
    rule: m.ReassignRule
    actors: tuple[ActorSpec, ...]
    events: tuple[ScriptedEvent, ...]


def _is_decimal(text: str) -> bool:
    """ASCII digits only: `str.isdigit` also passes '²', which `int` refuses."""
    return text.isascii() and text.isdigit()


def parse_scenario(text: str) -> Scenario:
    seed = 1
    rule = m.ReassignRule.DESIGNATION
    actors: list[ActorSpec] = []
    events: list[ScriptedEvent] = []
    users: dict[str, ActorSpec] = {}
    last_tick = 0

    def fail(lineno: int, what: str) -> MalformedScenario:
        return MalformedScenario(f"line {lineno}: {what}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "seed":
            if len(parts) != 2 or not _is_decimal(parts[1]):
                raise fail(lineno, "seed wants one unsigned integer")
            seed = int(parts[1])
            if seed >= 2**64:
                raise fail(lineno, "seed does not fit in 64 bits")
        elif keyword == "rule":
            if len(parts) != 2 or parts[1] not in ("designation", "timeorder"):
                raise fail(lineno, "rule is 'designation' or 'timeorder'")
            rule = (
                m.ReassignRule.DESIGNATION
                if parts[1] == "designation"
                else m.ReassignRule.TIME_ORDER
            )
        elif keyword == "actor":
            if len(parts) not in (3, 4):
                raise fail(lineno, "actor wants: user device [adversary]")
            if len(parts) == 4 and parts[3] != "adversary":
                raise fail(lineno, f"unknown actor flag {parts[3]!r}")
            if parts[1] in users:
                raise fail(lineno, f"actor {parts[1]!r} declared twice")
            spec = ActorSpec(parts[1], parts[2], len(parts) == 4)
            users[spec.user] = spec
            actors.append(spec)
        elif keyword == "tick":
            if len(parts) < 4:
                raise fail(lineno, "tick wants: n user action [args...]")
            if not _is_decimal(parts[1]):
                raise fail(lineno, f"bad tick number {parts[1]!r}")
            tick = int(parts[1])
            if tick <= last_tick:
                raise fail(lineno, f"tick {tick} does not increase")
            last_tick = tick
            user, action = parts[2], parts[3]
            if user not in users:
                raise fail(lineno, f"unknown actor {user!r}")
            if action not in ACTIONS:
                raise fail(lineno, f"unknown action {action!r}")
            if action.startswith("adversary.") and not users[user].adversary:
                raise fail(lineno, f"{user!r} is not flagged adversary")
            events.append(ScriptedEvent(tick, user, action, tuple(parts[4:])))
        else:
            raise fail(lineno, f"unknown directive {keyword!r}")
    if not actors:
        raise MalformedScenario("a scenario needs at least one actor")
    return Scenario(seed, rule, tuple(actors), tuple(events))


def bundled_scenario_names() -> list[str]:
    files = resources.files(__package__) / "scenarios"
    return sorted(
        entry.name[: -len(".txt")]
        for entry in files.iterdir()
        if entry.name.endswith(".txt")
    )


def load_scenario_text(ref: str) -> str:
    """Read a scenario from a file path or a bundled name."""
    if os.path.exists(ref):
        with open(ref, "r", encoding="utf-8") as handle:
            return handle.read()
    name = ref if ref.endswith(".txt") else ref + ".txt"
    candidate = resources.files(__package__) / "scenarios" / name
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8")
    raise FileNotFoundError(ref)


# ---------------------------------------------------------------------------
# transcript events


@dataclass(slots=True)
class TxEvent:
    tick: int
    actor: str
    action: str
    tag: str
    ok: bool
    reason: Optional[Reason]
    block: Optional[int]
    honest: bool

    def render(self) -> str:
        line = (
            f"[t={self.tick}] tx who={self.actor} action={self.action}"
            f" tag={self.tag} ok={int(self.ok)}"
        )
        return line + (f" block={self.block}" if self.ok else f" reason={self.reason}")


@dataclass(slots=True)
class ValidateEvent:
    tick: int
    validator: str
    tag: str
    reason: Optional[Reason]

    def render(self) -> str:
        verdict = "ok" if self.reason is None else str(self.reason)
        return (
            f"[t={self.tick}] validate who={self.validator}"
            f" tag={self.tag} verdict={verdict}"
        )


@dataclass(slots=True)
class ReviewEvent:
    tick: int
    leader: str
    meeting: int
    subject_user: str
    subject_device: str
    verdict: Optional[Reason]
    granted: bool

    def render(self) -> str:
        verdict = "ok" if self.verdict is None else str(self.verdict)
        return (
            f"[t={self.tick}] review leader={self.leader} m={self.meeting}"
            f" subject={self.subject_user}/{self.subject_device}"
            f" verdict={verdict} granted={int(self.granted)}"
        )


@dataclass(slots=True)
class KeyEpochEvent:
    tick: int
    meeting: int
    epoch: int
    leader: str
    leader_ivk: bytes
    recipients: tuple[bytes, ...]
    key_digest: bytes

    def render(self) -> str:
        return (
            f"[t={self.tick}] key-epoch m={self.meeting} epoch={self.epoch}"
            f" leader={self.leader} entries={len(self.recipients)}"
            f" key={self.key_digest.hex()[:16]}"
        )


@dataclass(slots=True)
class AcceptKeyEvent:
    tick: int
    actor: str
    meeting: int
    epoch: int
    ok: bool

    def render(self) -> str:
        return (
            f"[t={self.tick}] accept who={self.actor} m={self.meeting}"
            f" epoch={self.epoch} ok={int(self.ok)}"
        )


@dataclass(slots=True)
class PacketEvent:
    tick: int
    sender: str
    meeting: int
    stream: int
    epoch: int
    counter: int
    nbytes: int
    key_digest: bytes
    nonce: bytes

    def render(self) -> str:
        return (
            f"[t={self.tick}] packet from={self.sender} m={self.meeting}"
            f" stream={self.stream} epoch={self.epoch} ctr={self.counter}"
            f" bytes={self.nbytes} key={self.key_digest.hex()[:16]}"
            f" nonce={self.nonce.hex()}"
        )


@dataclass(slots=True)
class DecryptEvent:
    tick: int
    actor: str
    meeting: int
    stream: int
    epoch: int
    counter: int
    ok: bool
    actor_ivk: bytes
    ghost: bool = False
    tampered: bool = False
    epoch_at_leave: Optional[int] = None

    def render(self) -> str:
        line = (
            f"[t={self.tick}] decrypt who={self.actor} m={self.meeting}"
            f" stream={self.stream} epoch={self.epoch} ctr={self.counter}"
            f" ok={int(self.ok)}"
        )
        if self.ghost:
            line += f" ghost=1 left_at={self.epoch_at_leave}"
        if self.tampered:
            line += " tampered=1"
        return line


@dataclass(slots=True)
class DepartureEvent:
    tick: int
    actor: str
    meeting: int
    epoch_at_leave: Optional[int]

    def render(self) -> str:
        return (
            f"[t={self.tick}] depart who={self.actor} m={self.meeting}"
            f" epoch_at_leave={self.epoch_at_leave}"
        )


@dataclass(slots=True)
class AdversaryEvent:
    tick: int
    actor: str
    attack: str
    failed: bool
    detail: str

    def render(self) -> str:
        return (
            f"[t={self.tick}] adversary who={self.actor} attack={self.attack}"
            f" failed={int(self.failed)} detail={self.detail}"
        )


@dataclass(slots=True)
class CheckEvent:
    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        line = f"[t=end] check name={self.name} ok={int(self.ok)}"
        return line + (f" detail={self.detail}" if self.detail else "")


Event = Union[
    TxEvent,
    ValidateEvent,
    ReviewEvent,
    KeyEpochEvent,
    AcceptKeyEvent,
    PacketEvent,
    DecryptEvent,
    DepartureEvent,
    AdversaryEvent,
    CheckEvent,
]


# ---------------------------------------------------------------------------
# goal checking


GOALS = (
    "confidentiality", "integrity", "availability", "expulsion",
    "attacks-frustrated", "epochs-contiguous", "nonces-unique",
)


class Violation(NamedTuple):
    goal: str
    detail: str

    def __str__(self) -> str:
        return f"{self.goal}: {self.detail}"


@dataclass
class GoalReport:
    """A goal passes when no violation names it."""

    violations: list[Violation] = field(default_factory=list)
    note: str = AVAILABILITY_NOTE

    def passed(self, goal: str) -> bool:
        return all(v.goal != goal for v in self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check_events(self) -> list[CheckEvent]:
        first: dict[str, str] = {}
        for goal, detail in self.violations:
            first.setdefault(goal, detail)
        return [
            CheckEvent(goal, goal not in first, first.get(goal, "")) for goal in GOALS
        ] + [CheckEvent("all-goals", self.ok)]


def check_goals(events: list[Event]) -> GoalReport:
    """Fold a transcript into pass/fail verdicts on the protocol goals.

    The key epochs are picked out first, since a read is judged against its
    epoch's recipients wherever they appear; then one pass judges every
    other event. Each goal keeps its violations in transcript order, and the
    report lists them goal by goal.
    """
    # who was entitled to each (meeting, epoch): the wrap recipients plus
    # the leader who minted the key
    entitled: dict[tuple[int, int], set[bytes]] = {}
    per_meeting: dict[int, list[int]] = {}
    for event in [e for e in events if type(e) is KeyEpochEvent]:
        entitled[(event.meeting, event.epoch)] = set(event.recipients) | {
            event.leader_ivk
        }
        per_meeting.setdefault(event.meeting, []).append(event.epoch)

    reads: list[Violation] = []  # confidentiality, integrity and expulsion
    refusals: list[Violation] = []
    attacks: list[Violation] = []
    reuses: list[Violation] = []
    seen: set[tuple[bytes, bytes]] = set()
    for event in events:
        kind = type(event)
        if kind is DecryptEvent:
            if not event.ok:
                continue  # a packet nobody read breaks no goal
            if event.tampered:
                reads.append(Violation(
                    "integrity",
                    f"{event.actor} accepted a tampered packet at t={event.tick}",
                ))
                continue
            if event.actor_ivk not in entitled.get((event.meeting, event.epoch), ()):
                reads.append(Violation(
                    "confidentiality",
                    f"{event.actor} read m={event.meeting} epoch={event.epoch}"
                    " without an entry",
                ))
            if (
                event.ghost
                and event.epoch_at_leave is not None
                and event.epoch > event.epoch_at_leave
            ):
                reads.append(Violation(
                    "expulsion",
                    f"departed {event.actor} read epoch={event.epoch}"
                    f" after leaving at {event.epoch_at_leave}",
                ))
        elif kind is PacketEvent:
            pair = (event.key_digest, event.nonce)
            if pair in seen:
                reuses.append(Violation(
                    "nonces-unique",
                    f"nonce {event.nonce.hex()} reused under one stream key"
                    f" at t={event.tick}",
                ))
            seen.add(pair)
        elif kind is TxEvent:
            if event.honest and not event.ok:
                refusals.append(Violation(
                    "availability",
                    f"honest {event.actor} refused at t={event.tick} ({event.reason})",
                ))
        elif kind is AdversaryEvent:
            if not event.failed:
                attacks.append(Violation(
                    "attacks-frustrated",
                    f"{event.attack} by {event.actor} succeeded at t={event.tick}",
                ))

    gaps = [
        Violation("epochs-contiguous", f"m={meeting} saw {epochs}")
        for meeting, epochs in sorted(per_meeting.items())
        if epochs != list(range(len(epochs)))
    ]
    return GoalReport(reads + refusals + attacks + gaps + reuses)


# ---------------------------------------------------------------------------
# the simulation itself


@dataclass
class Actor:
    user: str
    device: str
    adversary: bool
    keypair: crypto.IdentityKeyPair
    rank: int  # position among the scenario's actors
    sessions: dict[bytes, m.ParticipantState] = field(default_factory=dict)


def _rank(actor: Actor) -> int:
    return actor.rank


def _bit_flipped(delivery: m.Delivery) -> bytes:
    """The delivery's ciphertext || tag with one bit flipped: ciphertext byte
    `counter % len(ciphertext)`, or the tag's first byte when there is no
    ciphertext."""
    sealed = delivery.sealed
    ct_len = len(delivery.packet.box.ciphertext)
    position = delivery.packet.counter % ct_len if ct_len else 0
    return sealed[:position] + bytes([sealed[position] ^ 0x01]) + sealed[position + 1 :]


def _holds_epoch(session: m.ParticipantState, epoch: int) -> bool:
    return session.known_mk is not None and session.known_mk.epoch == epoch


@dataclass(frozen=True)
class Ghost:
    """A departed member's stale session, holding the key they walked away with."""

    session: m.ParticipantState
    epoch_at_leave: int


class Simulation:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = DeterministicRng(scenario.seed)
        self.rule = scenario.rule
        self.identity_ledger = identity_mod.new_identity_ledger()
        self.meeting_ledger = m.new_meeting_ledger(self.identity_ledger)
        self.actors: dict[str, Actor] = {}
        # who holds a session in each meeting, and who eavesdrops; both in
        # the order of self.actors, which is the order their events come in
        self.parties: dict[bytes, list[Actor]] = {}
        self.eavesdroppers: list[Actor] = []
        self.meeting_order: list[bytes] = []
        self.ghosts: list[Ghost] = []
        self.packets: list[tuple[bytes, m.MediaPacket]] = []
        # the eavesdropper's all-zero guess: its stream keys are public, so
        # each is derived once
        self.zero_key = m.MeetingKey(bytes(crypto.KEY_LEN), 0)
        self.transcript: list[Event] = []
        self.tick = 0
        self.report: Optional[GoalReport] = None

    # -- plumbing

    def _emit(self, event: Event) -> None:
        self.transcript.append(event)

    def _meeting_at(self, index: int) -> bytes:
        if not 0 <= index < len(self.meeting_order):
            raise MalformedScenario(f"no meeting with index {index}")
        return self.meeting_order[index]

    def _meeting_index(self, meeting_id: bytes) -> int:
        return self.meeting_order.index(meeting_id)

    def _session(self, actor: Actor, meeting_id: bytes) -> m.ParticipantState:
        session = actor.sessions.get(meeting_id)
        if session is None:
            raise MalformedScenario(
                f"{actor.user} has no session in meeting"
                f" {self._meeting_index(meeting_id)}"
            )
        return session

    def _join(self, actor: Actor, meeting_id: bytes, session: m.ParticipantState) -> None:
        if meeting_id not in actor.sessions:
            bisect.insort(self.parties.setdefault(meeting_id, []), actor, key=_rank)
        actor.sessions[meeting_id] = session

    def _part(self, actor: Actor, meeting_id: bytes) -> None:
        parties = self.parties[meeting_id]
        del parties[bisect.bisect_left(parties, actor.rank, key=_rank)]
        del actor.sessions[meeting_id]

    @staticmethod
    def _int_arg(args: tuple[str, ...], position: int, fallback: int) -> int:
        if len(args) <= position:
            return fallback
        if not _is_decimal(args[position]):
            raise MalformedScenario(f"expected a number, got {args[position]!r}")
        return int(args[position])

    def _submit(self, actor: Actor, action: str, tx) -> Optional[Reason]:
        """Admit a transaction through the ledger, then fan out observation.

        Every honest actor validates an adversary's transaction against the
        same pre-append chain state, modelling independent full nodes that
        must agree before anything lands. They all reach the ledger's own
        verdict, so it is computed once and reported once per validator.
        """
        try:
            block = self.meeting_ledger.append_block([tx], timestamp=self.tick)
            verdict = None
        except InvalidTransaction as refusal:
            block, verdict = None, refusal.reason
        tag = TxTag(tx.tag).name
        self._emit(
            TxEvent(
                tick=self.tick,
                actor=actor.user,
                action=action,
                tag=tag,
                ok=verdict is None,
                reason=verdict,
                block=block.index if block is not None else None,
                honest=not actor.adversary,
            )
        )
        if actor.adversary:
            for other in self.actors.values():
                if not other.adversary:
                    self._emit(ValidateEvent(self.tick, other.user, tag, verdict))
        if block is not None:
            self._observe(block)
        return verdict

    def _observe(self, block) -> None:
        """What everyone else does upon seeing a freshly appended block."""
        for tx in block.txs:
            payload = m.parse_meeting_tx(tx)  # as admission decoded it
            if isinstance(payload, m.KeyDistribution):
                meeting_index = self._meeting_index(payload.meeting_id)
                parties = self.parties.get(payload.meeting_id, ())
                sessions = [actor.sessions[payload.meeting_id] for actor in parties]
                held = next(
                    (s.known_mk for s in sessions if _holds_epoch(s, payload.epoch)), None
                )
                for actor, session in zip(parties, sessions):
                    if _holds_epoch(session, payload.epoch):
                        continue  # the distributing leader already holds it
                    if payload.entry_for(actor.keypair.ivk) is None:
                        continue
                    try:
                        # one MeetingKey, so one set of stream contexts, per epoch key
                        if m.accept_key(session, payload) == held:
                            session.known_mk = held
                        accepted = True
                    except (AuthenticationFailure, NoEntryForMe):
                        accepted = False
                    self._emit(
                        AcceptKeyEvent(
                            self.tick, actor.user, meeting_index, payload.epoch, accepted
                        )
                    )
            elif isinstance(payload, m.LeaderReassign):
                for actor in self.parties.get(payload.meeting_id, ()):
                    session = actor.sessions[payload.meeting_id]
                    if (
                        actor.keypair.ivk == payload.prev_leader_ivk
                        and session.role is m.Role.LEADER
                    ):
                        session.role = m.Role.MEMBER  # demoted on the record
            elif isinstance(payload, m.MeetingDismiss):
                for actor in self.parties.pop(payload.meeting_id, ()):
                    m.purge_keys(actor.sessions.pop(payload.meeting_id))

    # -- scripted actions

    def _act_publish(self, actor: Actor, args: tuple[str, ...]) -> None:
        info = " ".join(args) if args else f"meeting-{len(self.meeting_order)}"
        session = m.ParticipantState(
            user=actor.user, device=actor.device, keypair=actor.keypair
        )
        tx = m.publish_meeting(session, info, self.rng, self.rule)
        if self._submit(actor, "publish", tx) is None:
            self.meeting_order.append(session.meeting_id)
            self._join(actor, session.meeting_id, session)

    def _act_request(self, actor: Actor, args: tuple[str, ...]) -> None:
        meeting_id = self._meeting_at(self._int_arg(args, 0, 0))
        session = m.ParticipantState(
            user=actor.user, device=actor.device, keypair=actor.keypair
        )
        tx = m.make_request(session, self.meeting_ledger, meeting_id, self.rng)
        if self._submit(actor, "request", tx) is None:
            self._join(actor, meeting_id, session)

    def _review(self, actor: Actor, meeting_id: bytes) -> None:
        session = self._session(actor, meeting_id)
        meeting_index = self._meeting_index(meeting_id)
        for outcome in m.review_requests(session, self.meeting_ledger):
            self._emit(
                ReviewEvent(
                    tick=self.tick,
                    leader=actor.user,
                    meeting=meeting_index,
                    subject_user=outcome.user,
                    subject_device=outcome.device,
                    verdict=outcome.verdict,
                    granted=outcome.granted,
                )
            )

    def _act_verify_all(self, actor: Actor, args: tuple[str, ...]) -> None:
        self._review(actor, self._meeting_at(self._int_arg(args, 0, 0)))

    def _distribute(self, actor: Actor, meeting_id: bytes) -> None:
        self._review(actor, meeting_id)
        session = self._session(actor, meeting_id)
        tx = m.distribute_key(session, self.rng)
        # the key was just wrapped to each member of the leader's membership view
        self._emit(
            KeyEpochEvent(
                tick=self.tick,
                meeting=self._meeting_index(meeting_id),
                epoch=session.known_mk.epoch,
                leader=actor.user,
                leader_ivk=actor.keypair.ivk,
                recipients=tuple(r.ivk for r in session.membership_view.values()),
                key_digest=hashlib.sha256(session.known_mk.key).digest(),
            )
        )
        self._submit(actor, "distribute", tx)

    def _act_distribute(self, actor: Actor, args: tuple[str, ...]) -> None:
        self._distribute(actor, self._meeting_at(self._int_arg(args, 0, 0)))

    def _act_packet(self, actor: Actor, args: tuple[str, ...]) -> None:
        if len(args) < 2:
            raise MalformedScenario("packet wants: stream nbytes [meeting]")
        stream = self._int_arg(args, 0, 0)
        nbytes = self._int_arg(args, 1, 0)
        if nbytes > 65536:
            raise MalformedScenario("packet payloads are capped at 64 KiB")
        meeting_id = self._meeting_at(self._int_arg(args, 2, 0))
        session = self._session(actor, meeting_id)
        # nobody reads the payload, so it is zeros; stepping the stream over
        # nbytes keeps every later draw where the pinned transcripts put it
        self.rng.skip(nbytes)
        packet = m.encrypt_media(session, stream, bytes(nbytes))
        stream_key, _ = session.known_mk.stream(stream)
        meeting_index = self._meeting_index(meeting_id)
        self._emit(
            PacketEvent(
                self.tick, actor.user, meeting_index, stream, packet.epoch,
                packet.counter, nbytes, hashlib.sha256(stream_key).digest(),
                packet.box.nonce,
            )
        )
        self.packets.append((meeting_id, packet))
        self._deliver(actor, meeting_id, meeting_index, m.Delivery(meeting_id, packet))

    def _deliver(
        self, sender: Actor, meeting_id: bytes, meeting_index: int, delivery: m.Delivery
    ) -> None:
        """Every reader, every ghost, the tamper probe and each eavesdropper
        try the packet once, each with one open of the one delivery."""
        packet = delivery.packet
        tick, stream, epoch, counter = (
            self.tick, packet.stream_id, packet.epoch, packet.counter
        )
        emit = self.transcript.append
        probe_target: Optional[tuple[Actor, m.ParticipantState]] = None
        for actor in self.parties[meeting_id]:
            if actor is sender:
                continue
            session = actor.sessions[meeting_id]
            if session.known_mk is None:
                continue
            readable = delivery.open(session.known_mk) is not None
            emit(
                DecryptEvent(
                    tick, actor.user, meeting_index, stream, epoch, counter,
                    readable, actor.keypair.ivk,
                )
            )
            if readable and not actor.adversary and probe_target is None:
                probe_target = (actor, session)
        for ghost in self.ghosts:
            stale = ghost.session
            if stale.meeting_id != meeting_id:
                continue
            readable = delivery.open(stale.known_mk) is not None
            emit(
                DecryptEvent(
                    tick, stale.user, meeting_index, stream, epoch, counter,
                    readable, stale.keypair.ivk, True, False, ghost.epoch_at_leave,
                )
            )
        if probe_target is not None:
            actor, session = probe_target
            readable = delivery.open(session.known_mk, _bit_flipped(delivery)) is not None
            emit(
                DecryptEvent(
                    tick, actor.user, meeting_index, stream, epoch, counter,
                    readable, actor.keypair.ivk, False, True,
                )
            )
        for actor in self.eavesdroppers:
            if actor is not sender:
                recovered = self._eavesdrop_attempt(delivery)
                emit(
                    AdversaryEvent(
                        tick, actor.user, "eavesdrop", recovered == 0,
                        f"m={meeting_index} stream={stream}"
                        f" ctr={counter} recovered={recovered}",
                    )
                )

    def _eavesdrop_attempt(self, delivery: m.Delivery) -> int:
        """Try opening a captured packet without the meeting key: the
        all-zero meeting key and a random stream key both have to bounce off
        the tag check. A random stream key is as good a guess as a random
        meeting key, and needs no derivation."""
        guess = self.rng.take(crypto.KEY_LEN)
        if delivery.open(self.zero_key) is not None:
            return 1
        if not delivery.header_ok:
            return 0
        opened = crypto.aead_open(
            guess, delivery.packet.box.nonce, delivery.sealed, delivery.aad
        )
        return int(opened is not None)

    def _act_leave(self, actor: Actor, args: tuple[str, ...]) -> None:
        meeting_id = self._meeting_at(self._int_arg(args, 0, 0))
        session = self._session(actor, meeting_id)
        tx = m.make_leave(session)
        if self._submit(actor, "leave", tx) is not None:
            return
        epoch_at_leave = None
        if session.known_mk is not None:
            epoch_at_leave = session.known_mk.epoch
            stale = m.ParticipantState(
                user=actor.user,
                device=actor.device,
                keypair=actor.keypair,
                meeting_id=meeting_id,
                known_mk=session.known_mk,
            )
            self.ghosts.append(Ghost(stale, epoch_at_leave))
        self._emit(
            DepartureEvent(
                self.tick, actor.user, self._meeting_index(meeting_id), epoch_at_leave
            )
        )
        m.purge_keys(session)
        self._part(actor, meeting_id)

    def _act_reassign(self, actor: Actor, args: tuple[str, ...]) -> None:
        if not args:
            raise MalformedScenario("reassign wants: new_user [meeting]")
        successor = self.actors.get(args[0])
        if successor is None:
            raise MalformedScenario(f"unknown actor {args[0]!r}")
        meeting_id = self._meeting_at(self._int_arg(args, 1, 0))
        view = m.build_view(self.meeting_ledger, meeting_id)
        if view.leader_ivk == actor.keypair.ivk:
            tx, ephemeral = m.build_reassign(
                view, actor.keypair, successor.keypair, self.rng
            )
            if self._submit(actor, "reassign", tx) is None:
                self._install_leader(successor, meeting_id, ephemeral)
        else:
            # a grab: nobody handed leadership over
            ephemeral = crypto.ephemeral_keygen(self.rng)
            payload = m.LeaderReassign(
                meeting_id=meeting_id,
                prev_leader_ivk=view.leader_ivk,
                new_leader_ivk=actor.keypair.ivk,
                new_leader_epk=ephemeral.epk,
                prev_leader_sig=None,
            )
            tx = m.signed_tx(payload, actor.keypair)
            verdict = self._submit(actor, "reassign", tx)
            self._emit(
                AdversaryEvent(
                    tick=self.tick,
                    actor=actor.user,
                    attack="leadership_grab",
                    failed=verdict is not None,
                    detail=f"reason={verdict}",
                )
            )
            if verdict is None:
                self._install_leader(actor, meeting_id, ephemeral)

    def _install_leader(self, successor, meeting_id, ephemeral) -> None:
        session = self._session(successor, meeting_id)
        m.adopt_leadership(session, ephemeral, self.meeting_ledger)
        # the new leader rotates the key right away so the one the old
        # leadership wrapped stops mattering
        self._distribute(successor, meeting_id)

    def _act_dismiss(self, actor: Actor, args: tuple[str, ...]) -> None:
        meeting_id = self._meeting_at(self._int_arg(args, 0, 0))
        session = self._session(actor, meeting_id)
        self._submit(actor, "dismiss", m.dismiss_meeting(session))

    # -- adversary actions

    def _act_adversary_impersonate(self, actor: Actor, args: tuple[str, ...]) -> None:
        if not args:
            raise MalformedScenario("impersonate wants: victim [meeting]")
        victim = self.actors.get(args[0])
        if victim is None:
            raise MalformedScenario(f"unknown actor {args[0]!r}")
        meeting_id = self._meeting_at(self._int_arg(args, 1, 0))
        payload = m.MeetingRequest(
            meeting_id=meeting_id,
            user=victim.user,
            device=victim.device,
            ivk=actor.keypair.ivk,
            epk=crypto.ephemeral_keygen(self.rng).epk,
        )
        tx = m.signed_tx(payload, actor.keypair)
        verdict = self._submit(actor, "impersonate", tx)
        review = m.verify_request_tx(tx, self.identity_ledger)
        self._emit(
            AdversaryEvent(
                tick=self.tick,
                actor=actor.user,
                attack="impersonate",
                failed=verdict is not None or review is not None,
                detail=f"claimed={victim.user} review={review or 'ok'}",
            )
        )

    def _act_adversary_tamper_ledger(self, actor: Actor, args: tuple[str, ...]) -> None:
        blocks = self.meeting_ledger.blocks
        target = blocks[self.rng.take(1)[0] % len(blocks)]
        raw = target.encode()
        position = int.from_bytes(self.rng.take(4), "big") % len(raw)
        delta = (self.rng.take(1)[0] % 255) + 1
        mutated = raw[:position] + bytes([raw[position] ^ delta]) + raw[position + 1 :]
        # the attacker rewrites content but cannot touch the hash everyone
        # else already pinned; an honest node then re-checks
        try:
            forged = parse_block(mutated, stored_hash=target.block_hash)
            detected = forged.block_hash != crypto.sha256(forged.encode())
        except EncodingError:
            detected = True
        self._emit(
            AdversaryEvent(
                tick=self.tick,
                actor=actor.user,
                attack="tamper_ledger",
                failed=detected,
                detail=f"block={target.index} byte={position}",
            )
        )

    def _act_adversary_mix_keys(self, actor: Actor, args: tuple[str, ...]) -> None:
        if not args:
            raise MalformedScenario("mix_keys wants: victim [meeting_a meeting_b]")
        victim = self.actors.get(args[0])
        if victim is None:
            raise MalformedScenario(f"unknown actor {args[0]!r}")
        mid_a = self._meeting_at(self._int_arg(args, 1, 0))
        mid_b = self._meeting_at(self._int_arg(args, 2, 1))
        view_a = m.build_view(self.meeting_ledger, mid_a)
        view_b = m.build_view(self.meeting_ledger, mid_b)
        if view_a.last_epoch is None or view_b.last_epoch is None:
            raise MalformedScenario("mix_keys needs key distributions to splice")
        dist_a = view_a.distributions[view_a.last_epoch]
        dist_b = view_b.distributions[view_b.last_epoch]
        session = self._session(victim, mid_a)
        key_before = session.known_mk
        spliced = (
            # another meeting's leader ephemeral over this meeting's entries
            m.KeyDistribution(mid_a, dist_a.epoch, dist_b.leader_epk, dist_a.entries),
            # entries lifted wholesale from the other meeting
            m.KeyDistribution(mid_a, dist_a.epoch, dist_a.leader_epk, dist_b.entries),
            # same bytes relabelled as a later epoch
            m.KeyDistribution(mid_a, dist_a.epoch + 1, dist_a.leader_epk, dist_a.entries),
        )
        rejected = 0
        for candidate in spliced:
            try:
                m.accept_key(session, candidate)
            except (AuthenticationFailure, NoEntryForMe):
                rejected += 1
        untouched = session.known_mk == key_before
        self._emit(
            AdversaryEvent(
                tick=self.tick,
                actor=actor.user,
                attack="mix_keys",
                failed=rejected == len(spliced) and untouched,
                detail=(
                    f"victim={victim.user} variants={len(spliced)}"
                    f" rejected={rejected} key_untouched={int(untouched)}"
                ),
            )
        )

    def _act_adversary_replay_request(self, actor: Actor, args: tuple[str, ...]) -> None:
        meeting_id = self._meeting_at(self._int_arg(args, 0, 0))
        # earliest request wins: in the interesting runs that is the one a
        # since-departed member posted, so the replay is a re-enrol attempt
        requests = m.build_view(self.meeting_ledger, meeting_id).requests
        if not requests:
            raise MalformedScenario("no request on the chain to replay")
        replayable = requests[0].tx
        verdict = self._submit(actor, "replay_request", replayable)
        self._emit(
            AdversaryEvent(
                tick=self.tick,
                actor=actor.user,
                attack="replay_request",
                failed=verdict is not None,
                detail=f"reason={verdict}",
            )
        )

    def _act_adversary_eavesdrop(self, actor: Actor, args: tuple[str, ...]) -> None:
        if all(other is not actor for other in self.eavesdroppers):
            bisect.insort(self.eavesdroppers, actor, key=_rank)
        recovered = sum(
            self._eavesdrop_attempt(m.Delivery(meeting_id, packet))
            for meeting_id, packet in self.packets
        )
        self._emit(
            AdversaryEvent(
                tick=self.tick,
                actor=actor.user,
                attack="eavesdrop",
                failed=recovered == 0,
                detail=f"captured={len(self.packets)} recovered={recovered}",
            )
        )

    # -- the run loop

    def _register_actors(self) -> None:
        txs = [
            identity_mod.register_identity(
                spec.user, spec.device, self.actors[spec.user].keypair
            )
            for spec in self.scenario.actors
        ]
        block = self.identity_ledger.append_block(txs, timestamp=0)
        for spec in self.scenario.actors:
            self._emit(
                TxEvent(
                    tick=0,
                    actor=spec.user,
                    action="register",
                    tag="IDENTITY",
                    ok=True,
                    reason=None,
                    block=block.index,
                    honest=not spec.adversary,
                )
            )

    def run(self) -> "Simulation":
        for spec in self.scenario.actors:
            self.actors[spec.user] = Actor(
                user=spec.user,
                device=spec.device,
                adversary=spec.adversary,
                keypair=crypto.identity_keygen(self.rng),
                rank=len(self.actors),
            )
        self._register_actors()
        for event in self.scenario.events:
            self.tick = event.tick
            handler = getattr(self, "_act_" + event.action.replace(".", "_"))
            handler(self.actors[event.user], event.args)
        self.report = check_goals(self.transcript)
        self.transcript.extend(self.report.check_events())
        return self


def render_transcript(sim: Simulation) -> str:
    rule = "designation" if sim.rule is m.ReassignRule.DESIGNATION else "timeorder"
    lines = [f"# seed={sim.scenario.seed} rule={rule} actors={len(sim.actors)}"]
    lines.extend(event.render() for event in sim.transcript)
    return "\n".join(lines) + "\n"


def run_scenario(scenario: Scenario) -> Simulation:
    return Simulation(scenario).run()


def run_scenario_text(text: str) -> Simulation:
    return run_scenario(parse_scenario(text))
