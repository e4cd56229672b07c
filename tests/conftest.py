"""One hypothesis profile for the whole suite: every run draws the same
examples, and nothing is written to an example database. Also the one
feasibility predicate the tests share."""

from hypothesis import settings

settings.register_profile("mechlab", derandomize=True, database=None)
settings.load_profile("mechlab")


def is_feasible(allocation, config):
    """One indicator and one transfer per agent, and at most m objects
    handed out."""
    x, t = allocation
    return len(x) == len(t) == config.n and sum(x) <= config.m
