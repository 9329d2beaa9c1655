"""Suite-wide Hypothesis profile: every property test draws the same
examples on every run and replays no local example database, so a verdict
never depends on an earlier run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
