"""Test configuration: every hypothesis test draws the same examples on
every run, so tier-1 is reproducible.  Explicit ``@settings`` keep their
own ``max_examples`` and inherit ``derandomize`` from this profile."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
