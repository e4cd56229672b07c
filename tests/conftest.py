"""One hypothesis profile for the whole suite: every run draws the same
examples, and nothing is written to an example database."""

from hypothesis import settings

settings.register_profile("mechlab", derandomize=True, database=None)
settings.load_profile("mechlab")
