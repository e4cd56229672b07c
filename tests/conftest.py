"""One hypothesis profile for the whole suite: every run draws the same
examples, and nothing is written to an example database. Also the
helpers the tests share: the one feasibility predicate and the one
random pricing table."""

from hypothesis import settings

from mechlab.mechanisms import EV, PAB

settings.register_profile("mechlab", derandomize=True, database=None)
settings.load_profile("mechlab")


def is_feasible(allocation, config):
    """One indicator and one transfer per agent, and at most m objects
    handed out."""
    x, t = allocation
    return len(x) == len(t) == config.n and sum(x) <= config.m


def random_pricing_table(grid, rng):
    """Each grid profile listed with probability 1/2, priced EV or PAB at random."""
    return {p.values: rng.choice((EV, PAB)) for p in grid.profiles() if rng.random() < 0.5}
