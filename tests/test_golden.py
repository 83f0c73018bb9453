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
    "tamper_ledger": "c69baea34db238b9a0fef0a7fe52455a760166ca8b1c1c1c5f1e20f53b6a0ce6",
}

# SHA-256 of each persisted ledger (identity, meeting) after the same runs:
# the file `chainmeet run --persist` writes, one hex block per line
LEDGERS = {
    "eavesdrop": (
        "61380668e8c1ec88d3c1a1ab81427dd381a1c8990d89b497d4c487bb38633974",
        "c6d91dff1b38b785cdffdca7d2377be46d47de1ba9974aba2682679c4bc6984b",
    ),
    "honest": (
        "8815f31cad170c2e0ae0b56512b6be2f7fb85274ab03937ec0c9d280b8d237d7",
        "f87d00009bc75e4cb278c3747bdf3b7a403cd838af4e95eb6044fa13823377f5",
    ),
    "impersonate": (
        "85129cf2e7b61ff71b3e3963da69f9f0851df8cffd3538e4cc49eaf8e3c3205a",
        "349691c0d3a3cd85fef6d59af343f0e5535769df030676d6a91a814a714a3193",
    ),
    "join_rekey": (
        "61407239769d80115eb1cc07cec97c71121463270bf855e09348b02d2392231f",
        "79ce3bea77593cf7139d2a87271824d2de99091da869c8e2611fb89230e05a91",
    ),
    "leave_rekey": (
        "555eb214a50bc10ba735813b06e7f644d9b0454d45dabd7d8487ecf0d6ecd069",
        "51999737f6b4ad5b6d626025f2d0f02bee1c3e9292131bd1922e78e8f150f5c6",
    ),
    "mix_keys": (
        "c60fa73d683241532d014a04370bc9896b78270187c0bbc370243782944d88e8",
        "eaf133eeacc7680ce1bfff398994d1603cf5a28fc2fb1b991d98fe692ca663da",
    ),
    "reassign_designation": (
        "071f5c94f08c5be010c8a77f1bb052997a75a066417dd04c98af2ce83cf32a55",
        "30eb98482f67391735c54277100998700909ccf472d1179c6f241e4cf6312c24",
    ),
    "reassign_timeorder": (
        "071f5c94f08c5be010c8a77f1bb052997a75a066417dd04c98af2ce83cf32a55",
        "7813a22daea3e88a733c90eb82c4b8f4dcb4c63571df4d7b9826a7fee30fcd65",
    ),
    "reassign_violation": (
        "25a0c5184039ddb44b0f0ba8616eedac4df0c51c90b19f47f1e92f159ff6e44c",
        "4c45e1ca39307cdf5cd0e0ba9c8bc027739b6447492c25dd6297a56c82beeb0c",
    ),
    "replay_request": (
        "9a8add66c1dbb37d1e0a2e5d94205c760a2bf49be968279d82722006e51b4ec9",
        "a5e70edf81cbab98fef7fb4d27d79bbdd44790f7ca8c16380b04cf40ebccb0a9",
    ),
    "tamper_ledger": (
        "70e0d2bc968713315c9ab1b3b51d270a658114527f26f855d6a9b59779a06f96",
        "90ee0d6e508a7ccae073e59041bca9c8def3dd9d63c83bdc801eda16b51a91fc",
    ),
}

# SHA-256 of the `chainmeet goals` stdout: every bundled run passes every
# goal, so they share one report; the failing run lists its violation
ALL_PASS = "115aa79c66f16f088574dc19371fd00317a9638e85176472b46347e6b91609bb"
GOALS = dict.fromkeys(GOLDEN, ALL_PASS)
FAILING_GOALS = "afde87091ac7828ecc58931918b4b28aa34c5698289429f8ff6bb3d261e49cec"


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
