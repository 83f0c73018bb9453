"""Spans and counts per layer, taken from outside the program.

`Tracer.install` wraps the public functions of every chainmeet module, and a
few public methods, at the place where their callers look them up: the
attribute of each module namespace (and class) that holds them. A wrapped
function records a span (name, start, end, parent) into flat arrays kept in
memory; `write` puts them in a file when the run ends. The encoding layer
and `Ledger.iter_txs` are only counted: a span per call of `Reader.take`
would swamp the run, and a generator's time belongs to its consumer.

A function the program no longer has is simply not wrapped, so its metrics
read 0 instead of breaking the run.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from array import array
from collections import Counter
from time import monotonic

LAYERS = ("encoding", "crypto", "rng", "ledger", "identity", "meeting", "sim", "cli")
COUNT_ONLY = {"encoding"}
METHODS = (
    ("encoding", "Reader", "take"),
    ("rng", "DeterministicRng", "take"),
    ("ledger", "Ledger", "append_block"),
    ("ledger", "Ledger", "verify_chain"),
    ("ledger", "Ledger", "iter_txs"),
    ("sim", "Simulation", "run"),
)
ACTION_KINDS = ("publish", "request", "distribute", "packet", "leave", "reassign",
                "dismiss", "attack")

# metric -> spans it adds up
CALLS = {
    "crypto.verify.calls": ("crypto.verify",),
    "crypto.sign.calls": ("crypto.sign",),
    "crypto.keygen.calls": ("crypto.identity_keygen", "crypto.ephemeral_keygen"),
    "crypto.sha256.calls": ("crypto.sha256",),
    "crypto.dh.calls": ("crypto.dh",),
    "crypto.hkdf.calls": ("crypto.derive_enc_key",),
    "crypto.aead_encrypt.calls": ("crypto.aead_encrypt",),
    "crypto.aead_decrypt.calls": ("crypto.aead_decrypt",),
    "crypto.hmac.calls": ("crypto.hmac_sha256",),
    "rng.take.calls": ("rng.DeterministicRng.take",),
    "ledger.append.calls": ("ledger.Ledger.append_block",),
    "identity.find_identity.calls": ("identity.find_identity",),
    "identity.parse_body.calls": ("identity.parse_identity_body",),
    "identity.ivk_registered.calls": ("identity.ivk_registered",),
    "meeting.verdict.calls": ("meeting.meeting_tx_verdict",),
    "meeting.build_view.calls": ("meeting.build_view",),
    "meeting.accept.calls": ("meeting.accept_key",),
    "meeting.decrypt_media.calls": ("meeting.decrypt_media",),
    "meeting.stream_key.calls": ("meeting.derive_stream_key",),
}
INCLUSIVE_MS = {
    "crypto.verify.ms": ("crypto.verify",),
    "crypto.dh.ms": ("crypto.dh",),
    "crypto.hkdf.ms": ("crypto.derive_enc_key",),
    "crypto.aead.ms": ("crypto.aead_encrypt", "crypto.aead_decrypt"),
    "crypto.hmac.ms": ("crypto.hmac_sha256",),
    "ledger.dump_hex_lines.ms": ("ledger.dump_hex_lines",),
    "ledger.load_hex_lines.ms": ("ledger.load_hex_lines",),
    "ledger.verify_chain.ms": ("ledger.Ledger.verify_chain",),
    "identity.find_identity.ms": ("identity.find_identity",),
    "identity.validate_tx.ms": ("identity.validate_identity_tx",),
    "meeting.verdict.ms": ("meeting.meeting_tx_verdict",),
    "meeting.build_view.ms": ("meeting.build_view",),
    "meeting.review.ms": ("meeting.review_requests",),
    "meeting.distribute.ms": ("meeting.distribute_key",),
    "meeting.accept.ms": ("meeting.accept_key",),
    "meeting.encrypt_media.ms": ("meeting.encrypt_media",),
    "meeting.decrypt_media.ms": ("meeting.decrypt_media",),
    **{f"sim.action.{kind}.ms": (f"sim.action.{kind}",) for kind in ACTION_KINDS},
    "sim.check_goals.ms": ("sim.check_goals",),
    "sim.render.ms": ("sim.render_transcript",),
    "cli.run.ms": ("cli.cmd_run",),
    "cli.inspect.ms": ("cli.cmd_inspect",),
}
SELF_MS = {
    "crypto.self_ms": "crypto",
    "rng.self_ms": "rng",
    "identity.self_ms": "identity",
    "meeting.self_ms": "meeting",
    "sim.self_ms": "sim",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- spans

    def open(self, name: str) -> int:
        index = len(self.start)
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(monotonic())
        return index

    def close(self, index: int) -> None:
        self.end[index] = monotonic()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[self.name[index]]} closed out of order")

    # -- wrapping

    def _span(self, name: str, fn):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_bytes(self, take):
        counts = self.counts

        @functools.wraps(take)
        def counted(rng, n):
            counts["rng.take.bytes"] += n
            return take(rng, n)

        return counted

    def _wrap(self, layer: str, name: str, fn):
        if name == "ledger.Ledger.iter_txs":
            counts = self.counts

            @functools.wraps(fn)
            def scanned(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts["ledger.txs_scanned"] += 1
                    yield item

            return scanned
        if name == "rng.DeterministicRng.take":
            fn = self._count_bytes(fn)
        if layer in COUNT_ONLY:
            return self._count(name, fn)
        return self._span(name, fn)

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap `modules` ({layer: module}) in place; `uninstall` undoes it."""
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(layer, f"{layer}.{attr}", obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self.patch(module, attr, wrapped[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if fn is not None:
                self.patch(cls, method, self._wrap(layer, f"{layer}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results

    def write(self, path: str) -> None:
        """Spans as tab-separated name, start, end (s) and parent index."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}"
                    f"\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )

    def metrics(self, admitted_txs: int) -> dict[str, float]:
        """Per-layer metrics over every span and count recorded so far;
        `admitted_txs` is the number of meeting transactions the run admitted."""
        n = len(self.start)
        child = [0.0] * n
        under_action = [False] * n
        action_ids = {self._ids.get(f"sim.action.{k}") for k in ACTION_KINDS}
        calls = Counter()
        total = Counter()
        own = Counter()
        layer_self = Counter()
        verdicts = []
        verify_id = self._ids.get("crypto.verify")
        verdict_id = self._ids.get("meeting.meeting_tx_verdict")
        verifies_in_actions = 0
        for i in range(n):
            p = self.parent[i]
            duration = self.end[i] - self.start[i]
            if p >= 0:
                child[p] += duration
                under_action[i] = under_action[p]
            if self.name[i] in action_ids:
                under_action[i] = True
            if self.name[i] == verify_id and under_action[i]:
                verifies_in_actions += 1
            if self.name[i] == verdict_id:
                verdicts.append(duration)
        for i in range(n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child[i]
            layer_self[name.split(".", 1)[0]] += duration - child[i]

        out: dict[str, float] = {
            "encoding.take.calls": self.counts["encoding.Reader.take"],
            "rng.take.bytes": self.counts["rng.take.bytes"],
            "ledger.txs_scanned": self.counts["ledger.txs_scanned"],
            "ledger.append.self_ms": own["ledger.Ledger.append_block"] * 1e3,
        }
        for metric, spans in CALLS.items():
            out[metric] = sum(calls[s] for s in spans)
        for metric, spans in INCLUSIVE_MS.items():
            out[metric] = sum(total[s] for s in spans) * 1e3
        for metric, layer in SELF_MS.items():
            out[metric] = layer_self[layer] * 1e3
        if len(verdicts) >= 2:
            out["meeting.verdict_ms_p50"] = statistics.median(verdicts) * 1e3
            out["meeting.verdict_ms_p90"] = statistics.quantiles(verdicts, n=10)[-1] * 1e3
        else:
            out["meeting.verdict_ms_p50"] = out["meeting.verdict_ms_p90"] = 0.0
        # signature checks made by scripted actions, per admitted meeting tx
        out["crypto.verify_per_tx"] = verifies_in_actions / max(1, admitted_txs)
        return out
