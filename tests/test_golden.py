"""Golden transcripts: refactors must keep every bundled run byte-identical."""

import hashlib

import pytest

from chainmeet import cli, sim
from chainmeet.ledger import dump_hex_lines
from test_cli import FAILING_SCENARIO

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
    "tamper_ledger": "3c37c7b34df5b25a9285a5bb6384186b69baab7df8471ffd85de28b51f88925a",
}

# SHA-256 of each persisted ledger (identity, meeting) after the same runs:
# the file `chainmeet run --persist` writes, one hex block per line
LEDGERS = {
    "eavesdrop": (
        "61380668e8c1ec88d3c1a1ab81427dd381a1c8990d89b497d4c487bb38633974",
        "6bfbe1a208f3db5ac3b5dc841a01f4b543602084680d3f4a8df6abe7dfcb8d72",
    ),
    "honest": (
        "8815f31cad170c2e0ae0b56512b6be2f7fb85274ab03937ec0c9d280b8d237d7",
        "e9afa29f0f2dab2b76035b2b8791a36238591360374a30fe901988583a550484",
    ),
    "impersonate": (
        "85129cf2e7b61ff71b3e3963da69f9f0851df8cffd3538e4cc49eaf8e3c3205a",
        "a35dade1ef13bd99acb8f3068b7b665c9489f77b769c1e4cd46017f7cd26261a",
    ),
    "join_rekey": (
        "61407239769d80115eb1cc07cec97c71121463270bf855e09348b02d2392231f",
        "82f13d1f697d6d4ebd35a359ad80cafede2beaf96d68f143b4bb193f6177d921",
    ),
    "leave_rekey": (
        "555eb214a50bc10ba735813b06e7f644d9b0454d45dabd7d8487ecf0d6ecd069",
        "337f06c9f582ff86de59aa9d5a557927acb37e759d96e6401d43f51bcbdd0c84",
    ),
    "mix_keys": (
        "c60fa73d683241532d014a04370bc9896b78270187c0bbc370243782944d88e8",
        "428b10371e658311fda5674d1e2c1f0ba415c5769ac85c3f00fa72194f1de8bc",
    ),
    "reassign_designation": (
        "071f5c94f08c5be010c8a77f1bb052997a75a066417dd04c98af2ce83cf32a55",
        "a3988daf48d5cb97b330f65b3940269921aa66e163add5cef02d836b5adbbbcd",
    ),
    "reassign_timeorder": (
        "071f5c94f08c5be010c8a77f1bb052997a75a066417dd04c98af2ce83cf32a55",
        "9c5d357d4ffde59007dec0d65c16b22dc0127941174375b014820c0d527493e1",
    ),
    "reassign_violation": (
        "25a0c5184039ddb44b0f0ba8616eedac4df0c51c90b19f47f1e92f159ff6e44c",
        "04a9667d36fd88f2d5c7d28d6f6a740ba2cb46fb1ebe0e9dc11b9cabf633a731",
    ),
    "replay_request": (
        "9a8add66c1dbb37d1e0a2e5d94205c760a2bf49be968279d82722006e51b4ec9",
        "d74741f33e6e3c803628b205a36bf64f5bb66edb76dacb91c4a59bed1de1f5a6",
    ),
    "tamper_ledger": (
        "70e0d2bc968713315c9ab1b3b51d270a658114527f26f855d6a9b59779a06f96",
        "016460c833b079e49b14012be7ea8fbb5f90add50dfce63148a31282da56f6a2",
    ),
}

# SHA-256 of the `chainmeet goals` stdout: every bundled run passes every
# goal, so they share one report; the failing run lists its violation
ALL_PASS = "115aa79c66f16f088574dc19371fd00317a9638e85176472b46347e6b91609bb"
GOALS = dict.fromkeys(GOLDEN, ALL_PASS)
FAILING_GOALS = "afde87091ac7828ecc58931918b4b28aa34c5698289429f8ff6bb3d261e49cec"

# SHA-256 of the `chainmeet vectors` text (UTF-8)
VECTORS = "32dd20a0c33692fcc4d4beeac013b9f466a4ad4d3520154b7528028bfdb4cac3"


def test_golden_table_covers_every_bundled_scenario():
    assert sorted(GOLDEN) == sim.bundled_scenario_names()
    assert sorted(LEDGERS) == sim.bundled_scenario_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_transcript_matches_golden_digest(name):
    simulation = sim.run_scenario_text(sim.load_scenario_text(name))
    text = sim.render_transcript(simulation)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_persisted_ledgers_match_golden_digests(name):
    simulation = sim.run_scenario_text(sim.load_scenario_text(name))
    digests = tuple(
        hashlib.sha256(("\n".join(dump_hex_lines(ledger)) + "\n").encode()).hexdigest()
        for ledger in (simulation.identity_ledger, simulation.meeting_ledger)
    )
    assert digests == LEDGERS[name]


def goals_digest(ref, capsys):
    code = cli.main(["goals", "--scenario", ref])
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOALS))
def test_goals_output_matches_golden_digest(name, capsys):
    assert goals_digest(name, capsys) == (0, GOALS[name])


def test_failing_goals_output_matches_golden_digest(tmp_path, capsys):
    path = tmp_path / "fail.txt"
    path.write_text(FAILING_SCENARIO)
    assert goals_digest(str(path), capsys) == (1, FAILING_GOALS)


def test_vectors_match_golden_digest():
    assert hashlib.sha256(cli.make_vectors().encode("utf-8")).hexdigest() == VECTORS
