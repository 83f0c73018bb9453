"""Golden transcripts: refactors must keep every bundled run byte-identical."""

import hashlib

import pytest

from chainmeet import sim

# SHA-256 of render_transcript for each bundled scenario at its own seed
GOLDEN = {
    "eavesdrop": "57bc54a8713af88297a4a8a12a6b87398922b2a8450df5bd29638a6ada07526a",
    "honest": "24c65b1c633d13efc38c5944adb6e1e4d9981ebe51cbc641381a8a379b171aab",
    "impersonate": "6efeed3727e6d4e5c46f6d343b487e53b0b41c503ec08bbd5d5654b0fe00299e",
    "join_rekey": "c68b71d30460e09579e956bdea8512cc36a1250adcf0bf05c9fddc65926b511e",
    "leave_rekey": "25ae192ecad7d6dbb804fa785be12ed61b01c4ec0b6eee7b2c2c068d84a54905",
    "mix_keys": "415daf85f85a3990105f15b431c51c41c8337a2195dc11968e9007e67a76c5dc",
    "reassign_designation": "a0f742f74b9935320ff8135911ee678c372ba5ec86b73f17c290f8a0638cf03b",
    "reassign_timeorder": "fefed44f8c77fad259483cb751535488e4508cf0e6da536466d4708e2a3e39b8",
    "reassign_violation": "88399d369bb032d5f59432382230fb67dd11c539034d3e2418e2e9a272367568",
    "replay_request": "33cfad3024b2e66afdf7376c0de3c6162b77e876f49890d14c30e76a35899e26",
    "tamper_ledger": "c69baea34db238b9a0fef0a7fe52455a760166ca8b1c1c1c5f1e20f53b6a0ce6",
}


def test_golden_table_covers_every_bundled_scenario():
    assert sorted(GOLDEN) == sim.bundled_scenario_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_transcript_matches_golden_digest(name):
    simulation = sim.run_scenario_text(sim.load_scenario_text(name))
    text = sim.render_transcript(simulation)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]
