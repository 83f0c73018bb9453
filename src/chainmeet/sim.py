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

Ticks must be strictly increasing and fit in 64 bits, as the blocks' timestamps
do; one action happens per tick. An action is a `Simulation._act_*` method
(`adversary.mix_keys` is `_act_adversary_mix_keys`), and its signature
declares the arguments the script gives it: an `int` is a decimal number, a
`str` names a declared actor, a default marks an optional meeting index, and
`*words` takes the rest of the line. `parse_scenario` checks and converts
every argument, so a script that breaks a signature fails at load, naming
its line. Meetings are addressed by the order they were published, starting
at 0. Every meeting a run publishes signs the `rule` line (by default
designation) into its publish.

Transcript events are plain slotted dataclasses, written once into the
append-only transcript and never changed after; they compare by value but
do not hash. They are not frozen because a frozen dataclass sets each field
through `object.__setattr__`: on CPython 3.11 (2-vCPU VM), building the
11-field `DecryptEvent` by keyword took about 2.8 us frozen against 0.4 us
plain and positional, and a media packet builds about sixteen events.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import inspect
import operator
import os
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Any, Callable, NamedTuple, Optional

from . import crypto, identity as identity_mod, meeting as m
from .errors import (
    AuthenticationFailure,
    ChainmeetError,
    EncodingError,
    InvalidTransaction,
    MalformedScenario,
    NoEntryForMe,
    Reason,
)
from .ledger import TxTag, parse_block
from .rng import DeterministicRng

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


class ScriptedEvent(NamedTuple):
    tick: int
    user: str
    action: str
    args: tuple  # as the action's handler takes them


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
    # each distinct action text, say `packet 1 1200`, as its handler takes it;
    # an actor once named stays declared, so it is checked once
    calls: dict[str, tuple[str, tuple]] = {}

    def fail(lineno: int, what: str) -> MalformedScenario:
        return MalformedScenario(f"line {lineno}: {what}")

    def call(lineno: int, text: str) -> tuple[str, tuple]:
        name, *words = text.split()
        action = ACTIONS.get(name)
        if action is None:
            raise fail(lineno, f"unknown action {name!r}")
        kinds = action.kinds
        if len(words) < action.required or (len(words) > len(kinds) and not action.rest):
            raise fail(lineno, f"{name} takes {action.usage}")
        args = []
        for kind, word in zip(kinds, words):
            if kind is int:
                if not _is_decimal(word):
                    raise fail(lineno, f"expected a number, got {word!r}")
                args.append(int(word))
            elif word in users:
                args.append(word)
            else:
                raise fail(lineno, f"unknown actor {word!r}")
        return name, (*args, *words[len(kinds):])

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 3)
        keyword = parts[0]
        if keyword == "tick":
            if len(parts) < 4:
                raise fail(lineno, "tick wants: n user action [args...]")
            if not _is_decimal(parts[1]):
                raise fail(lineno, f"bad tick number {parts[1]!r}")
            tick = int(parts[1])
            if tick >= 2**64:
                raise fail(lineno, "tick does not fit in 64 bits")
            if tick <= last_tick:
                raise fail(lineno, f"tick {tick} does not increase")
            last_tick = tick
            user = parts[2]
            if user not in users:
                raise fail(lineno, f"unknown actor {user!r}")
            known = calls.get(parts[3])
            if known is None:
                known = calls[parts[3]] = call(lineno, parts[3])
            name, args = known
            if name.startswith("adversary.") and not users[user].adversary:
                raise fail(lineno, f"{user!r} is not flagged adversary")
            events.append(ScriptedEvent(tick, user, name, args))
        elif keyword == "seed":
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
        with open(ref, "rb") as handle:
            data = handle.read()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise MalformedScenario(f"{ref}: line {line}: not UTF-8 text") from None
    name = ref if ref.endswith(".txt") else ref + ".txt"
    candidate = resources.files(__package__) / "scenarios" / name
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8")
    raise FileNotFoundError(ref)


# ---------------------------------------------------------------------------
# transcript events


_ROW = "row"


def shown(
    label: str,
    fmt: Optional[Callable[[Any], object]] = None,
    when: Optional[Callable[[Any], bool]] = None,
    **default: Any,
) -> Any:
    """Declare an event field that its transcript line shows as
    `label=fmt(event)`, by default the field's own value; with `when`, only
    for the events it holds for. Fields show in field order, the way
    `encoding.wire` fields encode in it."""
    return field(metadata={_ROW: (label, fmt, when)}, **default)


@functools.cache
def _rows(kind: type) -> tuple[tuple[str, Callable[[Any], object], Any], ...]:
    """(" label=", fmt, when) of each shown field of `kind`, in field order."""
    rows = []
    for f in fields(kind):
        if _ROW in f.metadata:
            label, fmt, when = f.metadata[_ROW]
            rows.append((f" {label}=", fmt or operator.attrgetter(f.name), when))
    return tuple(rows)


def _verdict(reason: Optional[Reason]) -> object:
    return "ok" if reason is None else reason


class Event:
    """Base of the transcript events. An event's line is `[t=<tick>] <word>`
    followed by the fields that `shown` declares; an event without a tick
    happens at the end."""

    __slots__ = ()
    word = ""

    def render(self) -> str:
        line = f"[t={getattr(self, 'tick', 'end')}] {self.word}"
        for prefix, fmt, when in _rows(type(self)):
            if when is None or when(self):
                line += f"{prefix}{fmt(self)}"
        return line


@dataclass(slots=True)
class TxEvent(Event):
    word = "tx"
    tick: int
    actor: str = shown("who")
    action: str = shown("action")
    tag: str = shown("tag")
    ok: bool = shown("ok", lambda e: int(e.ok))
    reason: Optional[Reason] = shown("reason", when=lambda e: not e.ok)
    block: Optional[int] = shown("block", when=lambda e: e.ok)
    honest: bool


@dataclass(slots=True)
class ValidateEvent(Event):
    word = "validate"
    tick: int
    validator: str = shown("who")
    tag: str = shown("tag")
    reason: Optional[Reason] = shown("verdict", lambda e: _verdict(e.reason))


@dataclass(slots=True)
class ReviewEvent(Event):
    word = "review"
    tick: int
    leader: str = shown("leader")
    meeting: int = shown("m")
    subject_user: str = shown("subject", lambda e: f"{e.subject_user}/{e.subject_device}")
    subject_device: str
    verdict: Optional[Reason] = shown("verdict", lambda e: _verdict(e.verdict))
    granted: bool = shown("granted", lambda e: int(e.granted))


@dataclass(slots=True)
class KeyEpochEvent(Event):
    word = "key-epoch"
    tick: int
    meeting: int = shown("m")
    epoch: int = shown("epoch")
    leader: str = shown("leader")
    leader_ivk: bytes
    recipients: tuple[bytes, ...] = shown("entries", lambda e: len(e.recipients))
    key_digest: bytes = shown("key", lambda e: e.key_digest.hex()[:16])


@dataclass(slots=True)
class AcceptKeyEvent(Event):
    word = "accept"
    tick: int
    actor: str = shown("who")
    meeting: int = shown("m")
    epoch: int = shown("epoch")
    ok: bool = shown("ok", lambda e: int(e.ok))


@dataclass(slots=True)
class PacketEvent(Event):
    word = "packet"
    tick: int
    sender: str = shown("from")
    meeting: int = shown("m")
    stream: int = shown("stream")
    epoch: int = shown("epoch")
    counter: int = shown("ctr")
    nbytes: int = shown("bytes")
    key_digest: bytes = shown("key", lambda e: e.key_digest.hex()[:16])
    nonce: bytes = shown("nonce", lambda e: e.nonce.hex())


@dataclass(slots=True)
class DecryptEvent(Event):
    word = "decrypt"
    tick: int
    actor: str = shown("who")
    meeting: int = shown("m")
    stream: int = shown("stream")
    epoch: int = shown("epoch")
    counter: int = shown("ctr")
    ok: bool = shown("ok", lambda e: int(e.ok))
    actor_ivk: bytes
    # a ghost is never the tamper probe, so at most one of these two shows
    ghost: bool = shown("ghost", lambda e: 1, lambda e: e.ghost, default=False)
    tampered: bool = shown("tampered", lambda e: 1, lambda e: e.tampered, default=False)
    epoch_at_leave: Optional[int] = shown("left_at", when=lambda e: e.ghost, default=None)


@dataclass(slots=True)
class DepartureEvent(Event):
    word = "depart"
    tick: int
    actor: str = shown("who")
    meeting: int = shown("m")
    epoch_at_leave: Optional[int] = shown("epoch_at_leave")


@dataclass(slots=True)
class AdversaryEvent(Event):
    word = "adversary"
    tick: int
    actor: str = shown("who")
    attack: str = shown("attack")
    failed: bool = shown("failed", lambda e: int(e.failed))
    detail: str = shown("detail")


@dataclass(slots=True)
class CheckEvent(Event):
    word = "check"
    name: str = shown("name")
    ok: bool = shown("ok", lambda e: int(e.ok))
    detail: str = shown("detail", when=lambda e: bool(e.detail), default="")


# ---------------------------------------------------------------------------
# goal checking


GOALS = (
    "confidentiality", "integrity", "availability", "expulsion",
    "attacks-frustrated", "epochs-contiguous", "nonces-unique",
)


class Violation(NamedTuple):
    goal: str
    # the tick of the event that broke the goal; None for a per-meeting fact
    tick: Optional[int]
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
        for violation in self.violations:
            first.setdefault(violation.goal, violation.detail)
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
                    "integrity", event.tick,
                    f"{event.actor} accepted a tampered packet at t={event.tick}",
                ))
                continue
            if event.actor_ivk not in entitled.get((event.meeting, event.epoch), ()):
                reads.append(Violation(
                    "confidentiality", event.tick,
                    f"{event.actor} read m={event.meeting} epoch={event.epoch}"
                    " without an entry",
                ))
            if (
                event.ghost
                and event.epoch_at_leave is not None
                and event.epoch > event.epoch_at_leave
            ):
                reads.append(Violation(
                    "expulsion", event.tick,
                    f"departed {event.actor} read epoch={event.epoch}"
                    f" after leaving at {event.epoch_at_leave}",
                ))
        elif kind is PacketEvent:
            pair = (event.key_digest, event.nonce)
            if pair in seen:
                reuses.append(Violation(
                    "nonces-unique", event.tick,
                    f"nonce {event.nonce.hex()} reused under one stream key"
                    f" at t={event.tick}",
                ))
            seen.add(pair)
        elif kind is TxEvent:
            if event.honest and not event.ok:
                refusals.append(Violation(
                    "availability", event.tick,
                    f"honest {event.actor} refused at t={event.tick} ({event.reason})",
                ))
        elif kind is AdversaryEvent:
            if not event.failed:
                attacks.append(Violation(
                    "attacks-frustrated", event.tick,
                    f"{event.attack} by {event.actor} succeeded at t={event.tick}",
                ))

    gaps = [
        Violation("epochs-contiguous", None, f"m={meeting} saw {epochs}")
        for meeting, epochs in sorted(per_meeting.items())
        if epochs != list(range(len(epochs)))
    ]
    return GoalReport(reads + refusals + attacks + gaps + reuses)


# ---------------------------------------------------------------------------
# the simulation itself


# a scenario declares each user once, so an actor compares and hashes by
# identity and can key its meetings' sessions
@dataclass(eq=False)
class Actor:
    user: str
    device: str
    adversary: bool
    keypair: crypto.IdentityKeyPair
    rank: int  # position among the scenario's actors


def _rank(actor: Actor) -> int:
    return actor.rank


def _bit_flipped(delivery: m.Delivery) -> bytearray:
    """The delivery's ciphertext || tag with one bit flipped: ciphertext byte
    `counter % len(ciphertext)`, or the tag's first byte when there is no
    ciphertext."""
    flipped = bytearray(delivery.sealed)
    ct_len = len(delivery.packet.box.ciphertext)
    flipped[delivery.packet.counter % ct_len if ct_len else 0] ^= 0x01
    return flipped


@dataclass(frozen=True)
class Ghost:
    """A departed member, holding the key they walked away with."""

    actor: Actor
    key: m.MeetingKey


@dataclass
class MeetingRun:
    """A published meeting as the run keeps it: its index in publish order,
    which events show; each actor's session in it, in the order of the
    scenario's actors; its departed members, until it is dismissed; and how
    many of its requests its leaders have reviewed."""

    id: bytes
    index: int
    sessions: dict[Actor, m.ParticipantState] = field(default_factory=dict)
    ghosts: list[Ghost] = field(default_factory=list)
    reviewed: int = 0


class Simulation:
    """A scenario's run. Each published meeting's run-time state lives in one
    `MeetingRun`; the meeting ledger holds everything else about it."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = DeterministicRng(scenario.seed)
        self.rule = scenario.rule
        self.identity_ledger = identity_mod.new_identity_ledger()
        self.meeting_ledger = m.new_meeting_ledger(self.identity_ledger)
        self.actors: dict[str, Actor] = {}
        # who eavesdrops, in the order of self.actors, which is the order
        # their events come in (as each meeting's sessions are)
        self.eavesdroppers: list[Actor] = []
        self.meetings: list[MeetingRun] = []  # in publish order
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

    def _attacked(self, actor: Actor, attack: str, failed: bool, detail: str) -> None:
        self._emit(AdversaryEvent(self.tick, actor.user, attack, failed, detail))

    def _meeting_at(self, index: int) -> MeetingRun:
        if not 0 <= index < len(self.meetings):
            raise MalformedScenario(f"no meeting with index {index}")
        return self.meetings[index]

    def _session(self, actor: Actor, run: MeetingRun) -> m.ParticipantState:
        session = run.sessions.get(actor)
        if session is None:
            raise MalformedScenario(f"{actor.user} has no session in meeting {run.index}")
        return session

    def _join(self, actor: Actor, run: MeetingRun, session: m.ParticipantState) -> None:
        run.sessions[actor] = session
        run.sessions = {a: run.sessions[a] for a in sorted(run.sessions, key=_rank)}

    def _submit(self, actor: Actor, action: str, tx) -> Optional[Reason]:
        """Admit a transaction through the ledger and report the verdict; the
        action that built it takes up what the chain admitted.

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
        return verdict

    def _take_key(self, run: MeetingRun, dist: m.KeyDistribution, key: m.MeetingKey) -> None:
        """Every member the admitted distribution keys unwraps its entry;
        `key` is the one its leader minted."""
        for actor, session in run.sessions.items():
            try:
                # one MeetingKey, so one set of stream contexts, per epoch key
                if m.accept_key(session, dist) == key:
                    session.known_mk = key
                accepted = True
            except NoEntryForMe:
                continue  # the leader, or a member it did not key
            except AuthenticationFailure:
                accepted = False
            self._emit(AcceptKeyEvent(self.tick, actor.user, run.index, dist.epoch, accepted))

    # -- scripted actions

    def _act_publish(self, actor: Actor, *words: str) -> None:
        info = " ".join(words) if words else f"meeting-{len(self.meetings)}"
        session = m.ParticipantState(
            user=actor.user, device=actor.device, keypair=actor.keypair
        )
        tx = m.publish_meeting(session, info, self.rng, self.rule)
        if self._submit(actor, "publish", tx) is None:
            run = MeetingRun(session.meeting_id, len(self.meetings))
            self.meetings.append(run)
            self._join(actor, run, session)

    def _act_request(self, actor: Actor, meeting: int = 0) -> None:
        run = self._meeting_at(meeting)
        session = m.ParticipantState(
            user=actor.user, device=actor.device, keypair=actor.keypair
        )
        tx = m.make_request(session, self.meeting_ledger, run.id, self.rng)
        if self._submit(actor, "request", tx) is None:
            self._join(actor, run, session)

    def _act_verify_all(self, actor: Actor, meeting: int = 0) -> None:
        run = self._meeting_at(meeting)
        session = self._session(actor, run)
        outcomes = m.review_requests(session, self.meeting_ledger, since=run.reviewed)
        self._reviewed_all(run)
        for outcome in outcomes:
            self._emit(
                ReviewEvent(
                    tick=self.tick,
                    leader=actor.user,
                    meeting=run.index,
                    subject_user=outcome.user,
                    subject_device=outcome.device,
                    verdict=outcome.verdict,
                    granted=outcome.granted,
                )
            )

    def _act_distribute(self, actor: Actor, meeting: int = 0) -> None:
        self._act_verify_all(actor, meeting)
        run = self._meeting_at(meeting)
        session = self._session(actor, run)
        tx, key = m.distribute_key(session, self.meeting_ledger, self.rng)
        # the chain has not moved since the key was wrapped to these members
        members = m.build_view(self.meeting_ledger, run.id).members()
        self._emit(
            KeyEpochEvent(
                tick=self.tick,
                meeting=run.index,
                epoch=key.epoch,
                leader=actor.user,
                leader_ivk=actor.keypair.ivk,
                recipients=tuple(r.request.ivk for r in members),
                key_digest=hashlib.sha256(key.key).digest(),
            )
        )
        if self._submit(actor, "distribute", tx) is None:
            session.known_mk = key
            self._take_key(run, tx.payload, key)

    def _act_packet(self, actor: Actor, stream: int, nbytes: int, meeting: int = 0) -> None:
        if nbytes > 65536:
            raise MalformedScenario("packet payloads are capped at 64 KiB")
        run = self._meeting_at(meeting)
        session = self._session(actor, run)
        # nobody reads the payload, so it is zeros; stepping the stream over
        # nbytes keeps every later draw where the pinned transcripts put it
        self.rng.skip(nbytes)
        packet = m.encrypt_media(session, stream, bytes(nbytes))
        stream_key, _ = session.known_mk.stream(stream)
        self._emit(
            PacketEvent(
                self.tick, actor.user, run.index, stream, packet.epoch,
                packet.counter, nbytes, hashlib.sha256(stream_key).digest(),
                packet.box.nonce,
            )
        )
        self.packets.append((run.id, packet))
        self._deliver(actor, run, m.Delivery(run.id, packet))

    def _deliver(self, sender: Actor, run: MeetingRun, delivery: m.Delivery) -> None:
        """Every reader, every ghost, the tamper probe and each eavesdropper
        try the packet once, and each gets its own event.

        Readers and ghosts that hold the key object just opened take its
        answer, as an open of the same key, nonce, bytes and AAD gives the
        same one; the members of an epoch share one `MeetingKey`, so they
        share one open. A ghost that holds the readers' key, the last one
        they opened, takes their answer too. The probe's bytes and the
        eavesdroppers' keys differ, so each of those is opened."""
        packet = delivery.packet
        tick, meeting_index = self.tick, run.index
        stream, epoch, counter = packet.stream_id, packet.epoch, packet.counter
        emit = self.transcript.append
        probe_target: Optional[tuple[Actor, m.ParticipantState]] = None
        opened: Optional[m.MeetingKey] = None  # the key whose answer `readable` is
        readable = False
        for actor, session in run.sessions.items():
            if actor is sender:
                continue
            key = session.known_mk
            if key is None:
                continue
            if key is not opened:
                opened, readable = key, delivery.open(key) is not None
            emit(
                DecryptEvent(
                    tick, actor.user, meeting_index, stream, epoch, counter,
                    readable, actor.keypair.ivk,
                )
            )
            if readable and not actor.adversary and probe_target is None:
                probe_target = (actor, session)
        readers_key, readers_readable = opened, readable
        for ghost in run.ghosts:
            key = ghost.key
            if key is not opened:
                opened = key
                readable = (
                    readers_readable if key is readers_key
                    else delivery.open(key) is not None
                )
            emit(
                DecryptEvent(
                    tick, ghost.actor.user, meeting_index, stream, epoch, counter,
                    readable, ghost.actor.keypair.ivk, True, False, key.epoch,
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

    def _act_leave(self, actor: Actor, meeting: int = 0) -> None:
        run = self._meeting_at(meeting)
        session = self._session(actor, run)
        tx = m.make_leave(session)
        if self._submit(actor, "leave", tx) is not None:
            return
        epoch_at_leave = None
        if session.known_mk is not None:
            epoch_at_leave = session.known_mk.epoch
            run.ghosts.append(Ghost(actor, session.known_mk))
        self._emit(DepartureEvent(self.tick, actor.user, run.index, epoch_at_leave))
        m.purge_keys(session)
        del run.sessions[actor]

    def _act_reassign(self, actor: Actor, new_user: str, meeting: int = 0) -> None:
        successor = self.actors[new_user]
        run = self._meeting_at(meeting)
        view = m.build_view(self.meeting_ledger, run.id)
        if view.leader_ivk == actor.keypair.ivk:
            tx, ephemeral = m.build_reassign(
                view, actor.keypair, successor.keypair, self.rng
            )
            if self._submit(actor, "reassign", tx) is None:
                self._install_leader(successor, run, ephemeral)
        else:
            # a grab: nobody handed leadership over
            ephemeral = crypto.ephemeral_keygen(self.rng)
            payload = m.LeaderReassign(
                meeting_id=run.id,
                prev_leader_ivk=view.leader_ivk,
                new_leader_ivk=actor.keypair.ivk,
                new_leader_epk=ephemeral.epk,
                prev_leader_sig=None,
            )
            tx = m.signed_tx(payload, actor.keypair)
            verdict = self._submit(actor, "reassign", tx)
            self._attacked(
                actor, "leadership_grab", verdict is not None, f"reason={verdict}"
            )
            if verdict is None:
                self._install_leader(actor, run, ephemeral)

    def _reviewed_all(self, run: MeetingRun) -> None:
        run.reviewed = len(m.build_view(self.meeting_ledger, run.id).requests)

    def _install_leader(self, successor: Actor, run: MeetingRun, ephemeral) -> None:
        """The successor takes up the handover's ephemeral, and reviews only
        the requests still to come."""
        self._session(successor, run).ephemeral = ephemeral
        self._reviewed_all(run)
        # the new leader rotates the key right away so the one the old
        # leadership wrapped stops mattering
        self._act_distribute(successor, run.index)

    def _act_dismiss(self, actor: Actor, meeting: int = 0) -> None:
        run = self._meeting_at(meeting)
        tx = m.dismiss_meeting(self._session(actor, run), self.meeting_ledger)
        if self._submit(actor, "dismiss", tx) is None:
            for session in run.sessions.values():
                m.purge_keys(session)
            run.sessions.clear()
            run.ghosts.clear()

    # -- adversary actions

    def _act_adversary_impersonate(self, actor: Actor, victim: str, meeting: int = 0) -> None:
        claimed = self.actors[victim]
        payload = m.MeetingRequest(
            meeting_id=self._meeting_at(meeting).id,
            user=claimed.user,
            device=claimed.device,
            ivk=actor.keypair.ivk,
            epk=crypto.ephemeral_keygen(self.rng).epk,
        )
        tx = m.signed_tx(payload, actor.keypair)
        verdict = self._submit(actor, "impersonate", tx)
        review = m.verify_request_tx(tx, self.identity_ledger)
        self._attacked(
            actor, "impersonate", verdict is not None or review is not None,
            f"claimed={victim} review={review or 'ok'}",
        )

    def _act_adversary_tamper_ledger(self, actor: Actor) -> None:
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
        self._attacked(
            actor, "tamper_ledger", detected, f"block={target.index} byte={position}"
        )

    def _act_adversary_mix_keys(
        self, actor: Actor, victim: str, meeting_a: int = 0, meeting_b: int = 1
    ) -> None:
        run_a = self._meeting_at(meeting_a)
        mid_a, mid_b = run_a.id, self._meeting_at(meeting_b).id
        if mid_a == mid_b:
            raise MalformedScenario("mix_keys splices between two different meetings")
        dist_a = m.build_view(self.meeting_ledger, mid_a).last_distribution
        dist_b = m.build_view(self.meeting_ledger, mid_b).last_distribution
        if dist_a is None or dist_b is None:
            raise MalformedScenario("mix_keys needs key distributions to splice")
        session = self._session(self.actors[victim], run_a)
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
        self._attacked(
            actor, "mix_keys", rejected == len(spliced) and untouched,
            f"victim={victim} variants={len(spliced)}"
            f" rejected={rejected} key_untouched={int(untouched)}",
        )

    def _act_adversary_replay_request(self, actor: Actor, meeting: int = 0) -> None:
        # earliest request wins: in the interesting runs that is the one a
        # since-departed member posted, so the replay is a re-enrol attempt
        requests = m.build_view(self.meeting_ledger, self._meeting_at(meeting).id).requests
        if not requests:
            raise MalformedScenario("no request on the chain to replay")
        replayable = requests[0].tx
        verdict = self._submit(actor, "replay_request", replayable)
        self._attacked(
            actor, "replay_request", verdict is not None, f"reason={verdict}"
        )

    def _act_adversary_eavesdrop(self, actor: Actor) -> None:
        if actor not in self.eavesdroppers:
            self.eavesdroppers.append(actor)
            self.eavesdroppers.sort(key=_rank)
        recovered = sum(
            self._eavesdrop_attempt(m.Delivery(meeting_id, packet))
            for meeting_id, packet in self.packets
        )
        self._attacked(
            actor, "eavesdrop", recovered == 0,
            f"captured={len(self.packets)} recovered={recovered}",
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
        # A run makes no reference cycles (tests/test_sim.py checks each
        # bundled scenario), so the cycle collector's passes over the growing
        # transcript would free nothing: it is paused until the run ends.
        collecting = gc.isenabled()
        gc.disable()
        try:
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
                try:
                    ACTIONS[event.action].handler(self, self.actors[event.user], *event.args)
                except ChainmeetError as exc:
                    # the error keeps its class and fields; its message names the tick
                    exc.args = (f"t={self.tick}: {exc}",)
                    raise
            self.report = check_goals(self.transcript)
            self.transcript.extend(self.report.check_events())
        finally:
            if collecting:
                gc.enable()
        return self


class Action(NamedTuple):
    """A scripted action: its handler and the arguments its signature takes."""

    handler: Callable[..., None]
    kinds: tuple[type, ...]  # int or str, one per named argument
    required: int
    rest: bool  # `*words` takes the rest of the line
    usage: str


def _action(handler: Callable[..., None]) -> Action:
    """The action of a `_act_*` handler, read off its signature once."""
    params = list(inspect.signature(handler).parameters.values())[2:]  # self, actor
    rest = bool(params) and params[-1].kind is inspect.Parameter.VAR_POSITIONAL
    named = params[:-1] if rest else params
    usage = [p.name if p.default is p.empty else f"[{p.name}]" for p in named]
    if rest:
        usage.append(f"[{params[-1].name}...]")
    return Action(
        handler,
        tuple({"int": int, "str": str}[p.annotation] for p in named),
        sum(p.default is p.empty for p in named),
        rest,
        " ".join(usage) or "no arguments",
    )


# every scripted action by name, as `tick` lines call it
ACTIONS = {
    name[len("_act_"):].replace("adversary_", "adversary.", 1): _action(handler)
    for name, handler in vars(Simulation).items()
    if name.startswith("_act_")
}


def render_transcript(sim: Simulation) -> str:
    rule = "designation" if sim.rule is m.ReassignRule.DESIGNATION else "timeorder"
    lines = [f"# seed={sim.scenario.seed} rule={rule} actors={len(sim.actors)}"]
    lines.extend(event.render() for event in sim.transcript)
    return "\n".join(lines) + "\n"


def run_scenario(scenario: Scenario) -> Simulation:
    return Simulation(scenario).run()


def run_scenario_text(text: str) -> Simulation:
    return run_scenario(parse_scenario(text))
