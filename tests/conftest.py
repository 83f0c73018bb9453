"""Hypothesis draws the same examples on every run and every machine, so a
property test that passes in one place passes in all of them. Per-test
`max_examples` and `deadline` settings still apply on top of this profile."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
