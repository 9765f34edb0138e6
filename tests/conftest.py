"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci selects the derandomized
profile that CI runs, so a property test draws the same examples on every
run and cannot make the job flaky; without it the default profile draws new
examples each run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
