"""Axiom checkers: verdicts, lexicographic witnesses, analytic bounds, replay."""

import gc
import itertools
import random
import time
import weakref
from fractions import Fraction

import pytest
from conftest import random_pricing_table

from mechlab import (
    Allocation,
    GridSpace,
    MarketConfig,
    Mechanism,
    PricingRule,
    Profile,
    WinnerRule,
    builtin_mechanisms,
    efficient_vickrey_mechanism,
    ev_pab_mechanism,
    find_reference_bundle,
    no_trade_mechanism,
    pay_as_bid_mechanism,
    refresh_witness,
    replay_witness,
    selective_vickrey_mechanism,
    vickrey_mechanism,
    vickrey_price,
    welfare_compare,
    witness_from_json,
    witness_to_json,
)
from mechlab.axioms import (
    BY_BOUNDS,
    CHECKERS,
    ENUMERATION_BUDGET,
    MODE_SAMPLED,
    POINTWISE,
    OutcomeTable,
    _nom_bounds,
    audit,
    scan,
)
from mechlab.search import shrink_witness

CFG1 = MarketConfig(3, 1)
GRID = GridSpace.shared(CFG1, (0, 1, 2, 3))
GRID5 = GridSpace.shared(CFG1, (0, 1, 2, 3, 4))
GRID_M2 = GridSpace.shared(MarketConfig(3, 2), (0, 1, 2, 3))


def grant_first_mechanism():
    """Hands agent 0 the object for free regardless of reports."""

    def fn(profile):
        n = profile.config.n
        return Allocation((1,) + (0,) * (n - 1), (Fraction(0),) * n)

    return Mechanism("grant_first", "CUSTOM", fn)


def opaque(mechanism):
    """Rewrap a mechanism so no analytic utility bounds apply to it."""
    return Mechanism(f"opaque({mechanism.name})", "CUSTOM", mechanism.evaluate)


# grid spaces


def test_grid_space_shared_basics():
    assert GRID.size == 64
    assert GRID.is_shared
    assert GRID.values[0] == (0, 1, 2, 3)
    profiles = [p.values for p in GRID.profiles()]
    assert profiles[0] == (0, 0, 0)
    assert profiles[1] == (0, 0, 1)
    assert profiles[-1] == (3, 3, 3)
    assert len(profiles) == 64


def test_grid_space_per_agent_values():
    het = GridSpace(CFG1, ((0, 1), (0, 1), (0, 1, 2)))
    assert het.size == 12
    assert not het.is_shared


def test_grid_space_rejects_wrong_arity():
    with pytest.raises(ValueError):
        GridSpace(CFG1, ((0, 1), (0, 1)))


def test_grid_space_budget():
    with pytest.raises(ValueError, match="budget"):
        GridSpace.shared(CFG1, tuple(range(101)))


def test_grid_space_refuses_samples_over_budget():
    """A sample is swept like a grid, and its outcomes are kept per
    mechanism, so its size is capped like an exhaustive grid's."""
    with pytest.raises(ValueError, match="samples exceed the enumeration budget"):
        GridSpace.from_range(
            MarketConfig(5, 2), 10, 2, mode=MODE_SAMPLED, seed=1, samples=10**12
        )
    at_cap = GridSpace.shared(CFG1, (0, 1), mode=MODE_SAMPLED, samples=ENUMERATION_BUDGET)
    assert at_cap.samples == ENUMERATION_BUDGET


def test_a_sampled_grid_is_bounded_by_its_samples_alone():
    """An outcome table keeps only a sample's drawn ranks, so no budget on
    off-sample entries remains: the shared 21^5 range takes any sample
    within the `samples` budget when it is declared, fast, and refuses one
    more with the `samples` message."""
    market = MarketConfig(5, 2)
    for samples in (9010, ENUMERATION_BUDGET):
        started = time.perf_counter()
        grid = GridSpace.from_range(market, 10, 2, mode=MODE_SAMPLED, samples=samples)
        assert time.perf_counter() - started < 1
        assert grid.samples == samples
    started = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        GridSpace.from_range(market, 10, 2, mode=MODE_SAMPLED, samples=ENUMERATION_BUDGET + 1)
    assert time.perf_counter() - started < 1
    assert str(refused.value) == (
        "1000001 samples exceed the enumeration budget (1000000); draw fewer samples"
    )
    # agents on their own value sets, past the old per-draw cap of 9,900
    own = tuple(tuple(Fraction(k, 2) + i for k in range(21)) for i in range(5))
    assert GridSpace(market, own, mode=MODE_SAMPLED, samples=9901).samples == 9901


@pytest.mark.parametrize("n", [12, 30])
def test_a_sampled_sp_and_aiw_table_stays_within_its_bound(n):
    """A sampled SP and AIW audit fills each draw, its misreports and its
    swaps, more than samples * sum |V_i| outcomes, but the table keeps
    only the draws: its keys are exactly the distinct drawn ranks."""
    market, samples = MarketConfig(n, 1), 100
    grid = GridSpace.shared(market, (0, 1), mode=MODE_SAMPLED, seed=0, samples=samples)
    table = OutcomeTable(vickrey_mechanism(), grid)
    filled = []
    table.fill = lambda rank, scaled, fill=table.fill: filled.append(rank) or fill(rank, scaled)
    audit(table, ("SP", "AIW"))
    drawn = {at.rank for at in grid.profiles()}
    assert len(filled) > samples * 2 * n
    assert set(table) == drawn == grid.ranks
    assert len(table) <= samples


def test_grid_space_refuses_rank_strides_over_budget():
    """An outcome table keeps one rank stride per agent, the product of the
    value-set lengths after it, so over n agents of two values the strides
    take n(n-1)/2 bits. Such a grid is refused when it is declared, fast
    and in a short line, before any table is built."""
    for n in (10**5, 10**6):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="rank stride bits exceed") as refused:
            GridSpace.shared(MarketConfig(n, 1), (0, 1), mode=MODE_SAMPLED, seed=1, samples=1)
        assert time.perf_counter() - started < 1
        assert len(str(refused.value)) < 200
    # 1,000 agents take 499,500 bits, within the budget
    grid = GridSpace.shared(MarketConfig(1000, 1), (0, 1), mode=MODE_SAMPLED, seed=1, samples=1)
    assert CHECKERS["IR"](vickrey_mechanism(), grid).verdict == "PASS_SAMPLED"


@pytest.mark.parametrize(
    "x, t",
    [
        ((2, 0, 0), (0, 0, 0)),
        ((1, 0, 0), (0.5, 0, 0)),
        ((1, 0), (0, 0)),
        ((1, 1, 1), (0, 0, 0)),
    ],
    ids=["indicator-2", "float-transfer", "n-1-entries", "over-capacity"],
)
def test_a_malformed_outcome_is_refused_wherever_it_is_read(x, t):
    """`Mechanism.checked` is the one outcome check, run by `evaluate` and
    by the table fill behind every checker and every replay, so each of
    them refuses an outcome of the wrong shape, or one handing out more
    objects than the market has."""
    bad = Mechanism("bad", "CUSTOM", lambda profile: Allocation(x, t))
    with pytest.raises(ValueError, match="bad gave"):
        bad.evaluate(Profile(CFG1, (1, 0, 0)))
    with pytest.raises(ValueError, match="bad gave"):
        CHECKERS["IR"](bad, GRID)
    with pytest.raises(ValueError, match="bad gave"):
        refresh_witness(bad, "IR", {"profile": (1, 0, 0), "agent": 0}, GRID)


def test_a_built_in_family_fills_its_table_without_a_profile(monkeypatch):
    """The six built-in families fill an outcome table from their
    value-level outcome alone: with `Profile.trusted` and `evaluate`
    refusing to run, SP on a sampled (5,2) half-step grid gives the same
    reports as before. A CUSTOM mechanism fills through the one adapter,
    which builds the profile its function reads, so it runs into the
    refusal. The sweep's own profiles are drawn before the patch."""
    grid = GridSpace.from_range(MarketConfig(5, 2), 10, 2, mode=MODE_SAMPLED, seed=5, samples=30)
    expected = [CHECKERS["SP"](mechanism, grid) for mechanism in builtin_mechanisms()]
    drawn = list(grid.profiles())

    def refuse(what):
        def refused(*args):
            raise RuntimeError(f"the fill called {what}")
        return refused

    monkeypatch.setattr(GridSpace, "profiles", lambda self: iter(drawn))
    monkeypatch.setattr(Profile, "trusted", refuse("Profile.trusted"))
    monkeypatch.setattr(Mechanism, "evaluate", refuse("Mechanism.evaluate"))
    assert [CHECKERS["SP"](mechanism, grid) for mechanism in builtin_mechanisms()] == expected
    custom = Mechanism("custom", "CUSTOM", lambda profile: Allocation((0,) * 5, (0,) * 5))
    with pytest.raises(RuntimeError, match="the fill called Profile.trusted"):
        CHECKERS["SP"](custom, grid)


def test_shared_value_set_is_normalised_once():
    """Every agent of a shared grid holds the one normalised tuple; a
    sampled grid over the enumeration budget is still accepted."""
    market = MarketConfig(4, 1)
    for grid in (
        GridSpace.shared(market, (3, 1, 2, 1)),
        GridSpace.from_range(market, 5, 2),
        GridSpace.from_range(market, 200, mode=MODE_SAMPLED, samples=1),
    ):
        assert grid.values[0] is grid.values[-1]


SWEEP_GRIDS = {
    "exhaustive": GRID,
    "sampled-seed-0": GridSpace.from_range(MarketConfig(4, 2), 5, mode=MODE_SAMPLED, seed=0, samples=60),
    "sampled-seed-5": GridSpace.from_range(
        MarketConfig(5, 2), 10, 2, mode=MODE_SAMPLED, seed=5, samples=60
    ),
    "per-agent": GridSpace(
        CFG1, ((0, Fraction(1, 2), 2), (0, Fraction(1, 3), 1, 2), (1, 3))
    ),
    "half-step": GridSpace.from_range(MarketConfig(3, 2), 2, 2),
}


@pytest.mark.parametrize("grid", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS)
def test_every_swept_point_agrees_with_the_grid_geometry(grid):
    """Each point `profiles()` yields is ranked by the grid's strides, holds
    the values its indices name, scaled by the grid's scale, and is the
    point `point` finds for its values. An exhaustive sweep is the product
    of the value sets in order; a sampled one draws the values the old
    `choice` stream drew, one rng per sample keyed by (seed, index)."""
    points = list(grid.profiles())
    for at in points:
        assert at.rank == sum(k * step for k, step in zip(at.index, grid.stride))
        assert at.values == tuple(vals[k] for vals, k in zip(grid.values, at.index))
        assert at.scaled == tuple(v * grid.scale for v in at.values)
        assert all(type(v) is int for v in at.scaled)
        assert grid.point(at.values) == at
    if grid.mode == MODE_SAMPLED:
        drawn = [
            tuple(rng.choice(vals) for vals in grid.values)
            for rng in (random.Random(f"{grid.seed}:{i}") for i in range(grid.samples))
        ]
        assert [at.values for at in points] == drawn
    else:
        assert [at.values for at in points] == list(itertools.product(*grid.values))
        assert [at.rank for at in points] == list(range(grid.size))
    head, last = points[0].values[:-1], points[0].values[-1]
    for off_grid in (grid.values[-1][-1] + 1, last + Fraction(1, 7 * grid.scale)):
        with pytest.raises(ValueError, match="off the grid"):
            grid.point((*head, off_grid))


def test_grid_space_sampling_is_seed_deterministic():
    samp = GridSpace.shared(CFG1, (0, 1, 2, 3), mode=MODE_SAMPLED, seed=5, samples=50)
    first = [p.values for p in samp.profiles()]
    second = [p.values for p in samp.profiles()]
    assert first == second
    assert len(first) == 50
    other = GridSpace.shared(CFG1, (0, 1, 2, 3), mode=MODE_SAMPLED, seed=6, samples=50)
    assert first != [p.values for p in other.profiles()]


def test_an_exhaustive_grid_refuses_a_seed_or_samples():
    """An exhaustive grid reads neither; kept, they would make equal grids
    compare unequal, so `welfare_compare` would refuse two tables on one
    grid. Zero, the default, is accepted, and so equal grids stay equal."""
    for sweep in ({"seed": 5}, {"samples": 3}, {"seed": -1, "samples": 2}):
        with pytest.raises(ValueError, match="^an exhaustive grid reads no seed or samples$"):
            GridSpace.shared(CFG1, range(3), **sweep)
        with pytest.raises(ValueError, match="^an exhaustive grid reads no seed or samples$"):
            GridSpace.from_range(CFG1, 2, mode="exhaustive", **sweep)
    plain = GridSpace.shared(CFG1, range(3))
    zeros = GridSpace.shared(CFG1, range(3), seed=0, samples=0)
    assert plain == zeros
    one, two = (OutcomeTable(vickrey_mechanism(), grid) for grid in (plain, zeros))
    assert welfare_compare(one, two).relation == "EQUAL"


def test_a_sample_is_drawn_once(monkeypatch):
    """The first sweep of a sampled grid seeds one generator per draw; a
    second sweep seeds none and yields the same points."""
    seeded = []

    class Counted(random.Random):
        def __init__(self, *args):
            seeded.append(args)
            super().__init__(*args)

    monkeypatch.setattr("mechlab.grid.random.Random", Counted)
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3), mode=MODE_SAMPLED, seed=5, samples=20)
    first = list(grid.profiles())
    assert len(seeded) == 20
    assert list(grid.profiles()) == first
    assert len(seeded) == 20
    assert grid.ranks == {at.rank for at in first}


def test_a_replay_on_an_unswept_sample_draws_nothing(monkeypatch):
    """A replay on a sampled grid that was never swept seeds no generator,
    and its table keeps nothing; the table of a later sweep on that grid
    keeps exactly the draws."""
    seeded = []

    class Counted(random.Random):
        def __init__(self, *args):
            seeded.append(args)
            super().__init__(*args)

    monkeypatch.setattr("mechlab.grid.random.Random", Counted)
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3), mode=MODE_SAMPLED, seed=5, samples=20)
    witness = {"profile": (Fraction(3), Fraction(2), Fraction(0)), "agent": 0,
               "misreport": Fraction(2)}
    table = OutcomeTable(pay_as_bid_mechanism(), grid)
    assert POINTWISE["SP"].refresh(table, witness) is not None
    assert seeded == [] and grid.ranks == set() and len(table) == 0
    audit(table, ("SP",))
    assert len(seeded) == 20 and set(table) == grid.ranks


# Distinct ranks a sampled SP audit fills on `SAMPLED_SP_GRID`: the drawn
# points, and the single-agent misreports at the draws ranked below the
# witness that can pay. A built-in family declares its breakpoints, so a
# misreport off the draws is skipped when a lower report of its order cell
# (below, at or above the agent's critical value) or the truthful one did
# not pay; a CUSTOM mechanism declares none and fills every misreport, as
# a built-in did before the skip (186 for each Vickrey-priced family).
# Only the drawn points are kept.
SAMPLED_SP_GRID = GridSpace.shared(CFG1, range(6), mode=MODE_SAMPLED, seed=2, samples=30)
SAMPLED_SP_FILLS = {
    "vickrey": 136,
    "efficient_vickrey": 136,
    "pay_as_bid": 67,
    "no_trade": 136,
    "selective_vickrey(strict_winners)": 136,
    "ev_pab(always_ev)": 75,
    "custom_vickrey": 186,
}


def test_a_sampled_sp_audit_decodes_only_the_drawn_ranks(monkeypatch):
    """SP misreports are filled from the drawn point's own values, so only
    a drawn rank is decoded. A mechanism that passes SP fills every drawn
    profile and each of its misreports that can pay; one that fails fills
    them only at draws ranked below its witness. The table keeps exactly
    the drawn ranks."""
    decoded, filled = [], []
    missing, fill = OutcomeTable.__missing__, OutcomeTable.fill

    def counted(table, rank):
        decoded.append(rank)
        return missing(table, rank)

    def recorded(table, rank, scaled):
        filled.append(rank)
        return fill(table, rank, scaled)

    monkeypatch.setattr(OutcomeTable, "__missing__", counted)
    monkeypatch.setattr(OutcomeTable, "fill", recorded)
    drawn = {at.rank for at in SAMPLED_SP_GRID.profiles()}
    custom = Mechanism("custom_vickrey", "CUSTOM", vickrey_mechanism().evaluate)
    for mechanism in [*builtin_mechanisms(), custom]:
        decoded.clear()
        filled.clear()
        table = OutcomeTable(mechanism, SAMPLED_SP_GRID)
        audit(table, ("SP",))
        assert len(decoded) <= SAMPLED_SP_GRID.samples and set(decoded) <= drawn
        assert len(set(filled)) == SAMPLED_SP_FILLS[mechanism.name], mechanism.name
        assert set(table) == drawn, mechanism.name


def test_a_passing_sampled_sp_sweep_fills_at_most_three_misreports_per_line(monkeypatch):
    """Off the draws, a built-in's misreports are cut at the agent's
    critical value (the m-th highest of the others' values) into three
    order cells, and a mechanism that passes SP fills only the first
    report it reaches in each: at most three fills per (draw, agent) line
    of a sampled 5-agent grid. Some line reaches three, so the bound is
    met, not vacuous."""
    grid = GridSpace.from_range(MarketConfig(5, 2), 10, 2, mode=MODE_SAMPLED,
                                seed=0, samples=40)
    filled = []
    fill = OutcomeTable.fill

    def recorded(table, rank, scaled):
        filled.append(scaled)
        return fill(table, rank, scaled)

    monkeypatch.setattr(OutcomeTable, "fill", recorded)
    sp = POINTWISE["SP"].violations
    passing = [
        *(mechanism for mechanism in builtin_mechanisms()
          if mechanism.name not in ("pay_as_bid", "ev_pab(always_ev)")),
        no_trade_mechanism(1),
        selective_vickrey_mechanism(WinnerRule.efficient()),
        selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, Fraction(5, 2))),
    ]
    most = 0
    for mechanism in passing:
        table = OutcomeTable(mechanism, grid)
        for at in grid.profiles():
            table[at.rank]
            filled.clear()
            assert list(sp(table, at)) == [], mechanism.name
            lines = [[i for i, (v, w) in enumerate(zip(at.scaled, scaled)) if v != w]
                     for scaled in filled]
            per_agent = [sum(line == [i] for line in lines) for i in range(5)]
            assert len(lines) == sum(per_agent) and max(per_agent) <= 3, (mechanism.name, at)
            most = max(most, *per_agent)
    assert most == 3


def test_a_mechanism_without_breakpoints_fills_every_misreport():
    """A CUSTOM mechanism declares no breakpoints, so no misreport is
    skipped. Here the Vickrey winner pays 5 minus their report, so a
    winner's transfer falls as their report rises inside one order cell:
    at (1, 3, 1) on `SAMPLED_SP_GRID`, agent 0 reporting 4 wins and gains
    nothing, but reporting 5, above 3 like 4, gains 1. A skip that read
    no breakpoints as none to compare with would drop that witness."""
    vickrey = vickrey_mechanism()

    def fn(profile):
        x, t = vickrey.evaluate(profile)
        return x, tuple(5 - v if xi else ti for v, xi, ti in zip(profile.values, x, t))

    mechanism = Mechanism("falling_transfer", "CUSTOM", fn)
    table = OutcomeTable(mechanism, SAMPLED_SP_GRID)
    assert mechanism.breakpoints is None
    report = audit(table, ("SP",))["SP"]
    assert report.to_json() == {
        "axiom": "SP", "verdict": "FAIL", "profiles_checked": 30,
        "witness": {"profile": ["1", "3", "1"], "agent": 0, "misreport": "5",
                    "truthful_utility": "0", "misreport_utility": "1"},
    }
    lower = table.fill(SAMPLED_SP_GRID.point((4, 3, 1)).rank, (4, 3, 1))
    assert lower == ((1, 0, 0), (1, 0, 0))  # the lower report of the cell gains 0
    assert replay_witness(mechanism, "SP", report.witness, SAMPLED_SP_GRID)


# the caller owns the outcome table


def test_a_dropped_table_is_not_kept():
    """Nothing keeps a table its caller dropped: one mechanism audited on
    eight grids, through `CHECKERS["SP"]` and through tables of the caller's
    own, leaves no table on those grids reachable."""
    mechanism = vickrey_mechanism()
    grids = [GridSpace.from_range(MarketConfig(4, 2), top) for top in range(1, 9)]
    kept = []
    for grid in grids:
        assert CHECKERS["SP"](mechanism, grid).verdict == "PASS_EXHAUSTIVE"
        table = OutcomeTable(mechanism, grid)
        audit(table, ("SP",))
        assert len(table) == grid.size
        kept.append(weakref.ref(table))
    del table
    gc.collect()
    assert [ref() for ref in kept] == [None] * len(grids)
    alive = [o for o in gc.get_objects() if isinstance(o, OutcomeTable)]
    assert not [o for o in alive if any(o.grid is grid for grid in grids)]


def test_a_grid_scope_nom_witness_replays_from_its_own_table():
    """A grid-scope NOM replay sweeps the mechanism again on a table of its
    own: overwriting every entry of the audit's table with a no-trade
    outcome, under which nothing is manipulable, changes neither the
    refreshed witness nor the replay."""
    modes = random_pricing_table(GRID, random.Random(0))
    mechanism = ev_pab_mechanism(PricingRule.rule_table(CFG1, modes))
    table = OutcomeTable(mechanism, GRID)
    report = audit(table, ("NOM",))["NOM"]
    assert report.verdict == "FAIL" and report.witness["scope"] == "grid"
    assert refresh_witness(mechanism, "NOM", report.witness, GRID) == report.witness
    nobody = ((0,) * CFG1.n, (0,) * CFG1.n)
    for rank in table:
        table[rank] = nobody
    bounds = _nom_bounds(table)  # read off the overwritten table: no witness
    assert next(BY_BOUNDS["NOM"].violations(bounds), None) is None
    assert refresh_witness(mechanism, "NOM", report.witness, GRID) == report.witness
    assert replay_witness(mechanism, "NOM", report.witness, GRID)


def test_welfare_compare_refuses_tables_on_different_grids():
    """Two tables are compared only on one grid: an equal grid declared
    again is one, and another value set, market or sweep is refused."""
    one = OutcomeTable(vickrey_mechanism(), GRID)
    same = OutcomeTable(vickrey_mechanism(), GridSpace.shared(CFG1, range(4)))
    assert welfare_compare(one, same).relation == "EQUAL"
    sampled = GridSpace.shared(CFG1, (0, 1, 2, 3), mode=MODE_SAMPLED, samples=5)
    for other in (GRID5, GRID_M2, sampled):
        with pytest.raises(ValueError, match="^welfare_compare needs two tables on one grid$"):
            welfare_compare(one, OutcomeTable(pay_as_bid_mechanism(), other))


def test_sampled_mode_reports_pass_sampled():
    samp = GridSpace.shared(CFG1, (0, 1, 2, 3), mode=MODE_SAMPLED, seed=5, samples=50)
    assert CHECKERS["IR"](vickrey_mechanism(), samp).verdict == "PASS_SAMPLED"


# individual rationality and no subsidy


def test_ir_fee_violates():
    """A positive participation fee drags truthful utility below zero."""
    report = CHECKERS["IR"](no_trade_mechanism(1), GRID)
    assert report.verdict == "FAIL"
    assert report.witness["profile"] == (0, 0, 0)
    assert report.witness["agent"] == 0
    assert report.witness["utility"] == -1
    assert report.profiles_checked == 64


def test_ir_passes_for_price_takers():
    for mech in (vickrey_mechanism(), pay_as_bid_mechanism(), no_trade_mechanism(0)):
        assert CHECKERS["IR"](mech, GRID).verdict == "PASS_EXHAUSTIVE"


def test_no_subsidy_flags_negative_transfer():
    report = CHECKERS["NS"](no_trade_mechanism(-1), GRID)
    assert report.verdict == "FAIL"
    assert report.witness["transfer"] == -1
    assert CHECKERS["NS"](vickrey_mechanism(), GRID).verdict == "PASS_EXHAUSTIVE"


# strategyproofness


def test_sp_pay_as_bid_fails_with_lex_first_witness():
    """First violation in scan order: true (0,0,2), agent 2 shades to 1."""
    report = CHECKERS["SP"](pay_as_bid_mechanism(), GRID5)
    assert report.verdict == "FAIL"
    assert report.witness == {
        "profile": (0, 0, 2),
        "agent": 2,
        "misreport": 1,
        "truthful_utility": 0,
        "misreport_utility": 1,
    }


def test_sp_witness_replays_at_other_profiles():
    """Shading 4 down to 2 against (1,0) keeps the win and pockets the gap."""
    fresh = refresh_witness(
        pay_as_bid_mechanism(), "SP", {"profile": (4, 1, 0), "agent": 0, "misreport": 2},
        GRID5,
    )
    assert fresh is not None
    assert fresh["truthful_utility"] == 0
    assert fresh["misreport_utility"] == 2


def test_replay_refuses_a_negative_value():
    """A replay runs on the grid it is handed: a witness profile holding a
    negative value is refused as off the grid's value sets, and a negative
    misreport, which no grid holds, does not replay."""
    for axiom, witness in (
        ("SP", {"profile": (4, -1, 0), "agent": 0, "misreport": 2}),
        ("EE", {"profile": (4, -1, 0)}),
    ):
        with pytest.raises(ValueError, match="off the grid's value sets"):
            refresh_witness(pay_as_bid_mechanism(), axiom, witness, GRID5)
    witness = {"profile": (4, 1, 0), "agent": 0, "misreport": -1}
    assert refresh_witness(pay_as_bid_mechanism(), "SP", witness, GRID5) is None


def test_a_shrink_evaluates_no_profile_twice():
    """`shrink_witness` replays every step on one table of the grid, so a
    counted CUSTOM mechanism sees each profile at most once, though the
    walk lowers every coordinate of the SP witness."""
    calls = []

    def fn(profile):
        calls.append(profile.values)
        return pay_as_bid_mechanism().evaluate(profile)

    mech = Mechanism("counted", "CUSTOM", fn)
    witness = {"profile": (4, 1, 0), "agent": 0, "misreport": 2}
    assert shrink_witness(mech, "SP", witness, GRID5)["profile"] == (2, 0, 0)
    assert len(calls) > 5 and len(set(calls)) == len(calls)


def test_sp_passes_for_price_based_mechanisms():
    for mech in (
        vickrey_mechanism(),
        efficient_vickrey_mechanism(),
        selective_vickrey_mechanism(WinnerRule.strict()),
        no_trade_mechanism(0),
    ):
        assert CHECKERS["SP"](mech, GRID).verdict == "PASS_EXHAUSTIVE", mech.name


def test_sp_fails_for_always_ev_pricing():
    # efficient and not obviously manipulable, yet a loser can turn winner
    report = CHECKERS["SP"](ev_pab_mechanism(PricingRule.always_ev()), GRID)
    assert report.verdict == "FAIL"
    assert report.witness["profile"] == (0, 1, 3)
    assert report.witness["agent"] == 2
    assert report.witness["misreport"] == 2
    assert report.witness["misreport_utility"] == 1


# reference bundles and equal treatment


def test_find_reference_bundle_examples():
    aev = ev_pab_mechanism(PricingRule.always_ev())
    assert find_reference_bundle(aev, Profile(CFG1, (3, 2, 2))) == (1, 2)
    assert find_reference_bundle(vickrey_mechanism(), Profile(CFG1, (3, 2, 1))) is None
    assert find_reference_bundle(no_trade_mechanism(0), Profile(CFG1, (3, 2, 1))) == (0, 0)


def test_ee_vickrey_fails():
    """Canonical Vickrey breaks indifference: at (3,2,1) no single bundle
    leaves the winner and both losers equally well off."""
    report = CHECKERS["EE"](vickrey_mechanism(), GRID)
    assert report.verdict == "FAIL"
    assert report.witness["profile"] == (0, 1, 2)
    fresh = refresh_witness(vickrey_mechanism(), "EE", {"profile": (3, 2, 1)}, GRID)
    assert fresh is not None
    assert fresh["utilities"] == (1, 0, 0)


def test_ee_passes_for_uniform_outcomes():
    assert CHECKERS["EE"](pay_as_bid_mechanism(), GRID).verdict == "PASS_EXHAUSTIVE"
    strict = selective_vickrey_mechanism(WinnerRule.strict())
    assert CHECKERS["EE"](strict, GRID).verdict == "PASS_EXHAUSTIVE"
    assert CHECKERS["EE"](no_trade_mechanism(1), GRID).verdict == "PASS_EXHAUSTIVE"


def test_selective_reference_bundle_is_zero_or_priced_object():
    # the indifference point is either no trade or the object at the price
    for rule in (WinnerRule.strict(), WinnerRule.efficient(),
                 WinnerRule.dictatorial_threshold(0, 2)):
        mech = selective_vickrey_mechanism(rule)
        for point in GRID.profiles():
            p = Profile(GRID.config, point.values)
            ref = find_reference_bundle(mech, p)
            assert ref in ((0, 0), (1, vickrey_price(p.values, p.config.m)))


# efficiency


def test_efficiency_selective_fails_off_tail():
    report = CHECKERS["EFF"](selective_vickrey_mechanism(WinnerRule.strict()), GRID)
    assert report.verdict == "FAIL"
    assert report.witness["profile"] == (0, 1, 1)
    fresh = refresh_witness(
        selective_vickrey_mechanism(WinnerRule.strict()), "EFF", {"profile": (3, 2, 1)},
        GRID,
    )
    assert fresh["achieved"] == 0
    assert fresh["optimum"] == 3


def test_efficiency_passes_for_surplus_maximizers():
    assert CHECKERS["EFF"](efficient_vickrey_mechanism(), GRID).verdict == "PASS_EXHAUSTIVE"
    assert CHECKERS["EFF"](pay_as_bid_mechanism(), GRID).verdict == "PASS_EXHAUSTIVE"
    assert CHECKERS["EFF"](ev_pab_mechanism(PricingRule.always_ev()), GRID).verdict == "PASS_EXHAUSTIVE"


# obvious manipulability


def test_nom_truthful_bounds_examples():
    """Best case equals the valuation under EV pricing, zero under own-bid."""
    aev = ev_pab_mechanism(PricingRule.always_ev())
    assert aev.bounds(0, CFG1.m, 3, 3, 1) == (3, 0)
    assert pay_as_bid_mechanism().bounds(0, CFG1.m, 4, 4, 1) == (0, 0)
    assert no_trade_mechanism(0).bounds(0, CFG1.m, 2, 2, 1) == (0, 0)
    assert vickrey_mechanism().bounds(0, CFG1.m, 2, 2, 1) == (2, 0)


def test_nom_report_bounds_own_bid_shading():
    # reporting 2 with value 4 can win at price 2, never lose money
    assert pay_as_bid_mechanism().bounds(0, CFG1.m, 2, 4, 1) == (2, 0)
    # overbidding with value 0 risks paying the bid
    assert pay_as_bid_mechanism().bounds(0, CFG1.m, 2, 0, 1) == (0, -2)


def below_zero_dictator():
    """Opponents cannot report a negative threshold, so this dictator never wins."""
    return selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, -1))


def test_nom_bounds_of_a_dictator_below_zero_are_zero():
    assert below_zero_dictator().bounds(0, CFG1.m, 2, 2, 1) == (0, 0)
    report = CHECKERS["NOM"](below_zero_dictator(), GridSpace.shared(CFG1, [0]))
    assert report.details["truthful_bounds"] == {"0": ["0", "0"]}


def test_nom_pay_as_bid_obviously_manipulable():
    report = CHECKERS["NOM"](pay_as_bid_mechanism(), GRID)
    assert report.verdict == "FAIL"
    assert report.details["scope"] == "analytic"
    assert report.profiles_checked == 0
    w = report.witness
    assert (w["agent"], w["true_value"], w["misreport"]) == (0, 2, 1)
    assert w["direction"] == "SUP"
    assert w["truthful_bound"] == 0
    assert w["misreport_bound"] == 1
    assert w["realizing_opponents"] == (0, 0)


def test_nom_always_ev_passes_with_bounds_table():
    report = CHECKERS["NOM"](ev_pab_mechanism(PricingRule.always_ev()), GRID)
    assert report.verdict == "PASS_ANALYTIC"
    assert report.details["truthful_bounds"] == {
        "0": ["0", "0"],
        "1": ["1", "0"],
        "2": ["2", "0"],
        "3": ["3", "0"],
    }


def test_nom_truthful_bounds_are_given_only_when_every_agent_shares_them():
    """Agent 1 dictates at threshold 0: at value 2 their truthful best case
    is 2 while agent 0's is 0, so no one map states both. Bounds every
    agent shares keep their map (always-EV, in the test above)."""
    dictator = selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(1, 0))
    assert dictator.bounds(0, CFG1.m, 2, 2, 1) == (0, 0)
    assert dictator.bounds(1, CFG1.m, 2, 2, 1) == (2, 0)
    report = CHECKERS["NOM"](dictator, GRID)
    assert report.verdict == "PASS_ANALYTIC"
    assert "truthful_bounds" not in report.details


def test_nom_grid_route_matches_analytic_identity():
    report = CHECKERS["NOM"](opaque(pay_as_bid_mechanism()), GRID)
    assert report.verdict == "FAIL"
    assert report.details["scope"] == "grid"
    w = report.witness
    assert (w["agent"], w["true_value"], w["misreport"]) == (0, 2, 1)


def test_bound_witnesses_replay_exactly_through_their_generator():
    """Every NOM and BEST_CASE violation the checks' generators yield replays
    to itself, at analytic and at grid scope."""
    mechs = [pay_as_bid_mechanism(), vickrey_mechanism(), no_trade_mechanism(1),
             ev_pab_mechanism(PricingRule.threshold(1))]
    replayed = set()
    for mech in [*mechs, *map(opaque, mechs)]:
        bounds = _nom_bounds(OutcomeTable(mech, GRID))
        for name, axiom in BY_BOUNDS.items():
            if name == "BEST_CASE" and bounds.scope == "grid":
                continue  # grid evidence is NOT_CERTIFIED, never a witness
            for witness in axiom.violations(bounds):
                assert refresh_witness(mech, name, witness, GRID) == witness
                replayed.add((name, bounds.scope))
    assert replayed == {("NOM", "analytic"), ("NOM", "grid"), ("BEST_CASE", "analytic")}


def test_bound_witness_replays_only_at_the_mechanism_scope():
    pab = pay_as_bid_mechanism()
    grid_witness = CHECKERS["NOM"](opaque(pab), GRID).witness
    assert replay_witness(opaque(pab), "NOM", grid_witness, GRID)
    with pytest.raises(ValueError, match="NOM witness at grid scope cannot replay "
                       "on a mechanism with analytic bounds"):
        refresh_witness(pab, "NOM", grid_witness, GRID)
    gap = CHECKERS["BEST_CASE"](pab, GRID).witness
    assert "scope" not in gap and replay_witness(pab, "BEST_CASE", gap, GRID)
    with pytest.raises(ValueError, match="BEST_CASE witness at analytic scope"):
        refresh_witness(opaque(pab), "BEST_CASE", gap, GRID)


def test_sp_implies_nom_at_grid_scope():
    for mech in (
        vickrey_mechanism(),
        efficient_vickrey_mechanism(),
        selective_vickrey_mechanism(WinnerRule.strict()),
        no_trade_mechanism(0),
    ):
        assert CHECKERS["NOM"](opaque(mech), GRID).verdict == "PASS_SAMPLED", mech.name


def test_nom_custom_mechanism_takes_grid_route():
    report = CHECKERS["NOM"](grant_first_mechanism(), GRID)
    assert report.details["scope"] == "grid"


# best-case utility


def test_best_case_always_ev_attains_valuation():
    report = CHECKERS["BEST_CASE"](ev_pab_mechanism(PricingRule.always_ev()), GRID)
    assert report.verdict == "PASS_ANALYTIC"
    assert report.details["realizer"] == "all-zero opponents attain the bound"


def test_best_case_pay_as_bid_fails():
    """Own-bid pricing caps the truthful best case at zero, not the valuation."""
    report = CHECKERS["BEST_CASE"](pay_as_bid_mechanism(), GRID)
    assert report.verdict == "FAIL"
    assert report.witness == {"agent": 0, "value": 1, "best_case": 0}


def test_best_case_dictator_below_zero_passes_on_zero_grid():
    report = CHECKERS["BEST_CASE"](below_zero_dictator(), GridSpace.shared(CFG1, [0]))
    assert report.verdict == "PASS_ANALYTIC"


def test_best_case_requires_preconditions():
    report = CHECKERS["BEST_CASE"](grant_first_mechanism(), GRID)
    assert report.verdict == "NOT_APPLICABLE"
    assert "EFF" in report.details["reason"]


def test_best_case_black_box_not_certified():
    # grid evidence alone cannot bound utilities over all real opponents
    report = CHECKERS["BEST_CASE"](opaque(efficient_vickrey_mechanism()), GRID)
    assert report.verdict == "NOT_CERTIFIED"
    assert "reason" in report.details


# envy-freeness


def test_envy_freeness_passes_for_uniform_price():
    assert CHECKERS["EF"](
        selective_vickrey_mechanism(WinnerRule.strict()), GRID
    ).verdict == "PASS_EXHAUSTIVE"
    assert CHECKERS["EF"](
        ev_pab_mechanism(PricingRule.always_ev()), GRID
    ).verdict == "PASS_EXHAUSTIVE"


def test_envy_freeness_flags_free_grant():
    report = CHECKERS["EF"](grant_first_mechanism(), GRID)
    assert report.verdict == "FAIL"
    assert report.witness["profile"] == (0, 0, 1)
    assert report.witness["agent"] == 2
    assert report.witness["other"] == 0
    assert report.witness["other_bundle_utility"] == 1


def test_envy_freeness_own_bid_two_objects():
    """With two objects at own-bid prices the high bidder envies the low one."""
    neg = ev_pab_mechanism(PricingRule.threshold(-1))
    report = CHECKERS["EF"](neg, GRID_M2)
    assert report.verdict == "FAIL"
    fresh = refresh_witness(neg, "EF", {"profile": (3, 2, 0), "agent": 0, "other": 1}, GRID_M2)
    assert fresh["own_utility"] == 0
    assert fresh["other_bundle_utility"] == 1


# anonymity in welfare


def test_anonymity_dictatorial_rule_fails():
    dct = selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2))
    report = CHECKERS["AIW"](dct, GRID)
    assert report.verdict == "FAIL"
    assert report.witness["profile"] == (2, 2, 3)
    fresh = refresh_witness(dct, "AIW", {"profile": (3, 2, 2), "agent": 0, "other": 1}, GRID)
    assert fresh["utility"] == 1
    assert fresh["swapped_utility"] == 0
    assert fresh["swapped_profile"] == (2, 3, 2)


def test_anonymity_symmetric_rules_pass():
    for mech in (
        selective_vickrey_mechanism(WinnerRule.efficient()),
        selective_vickrey_mechanism(WinnerRule.strict()),
        no_trade_mechanism(1),
    ):
        assert CHECKERS["AIW"](mech, GRID).verdict == "PASS_EXHAUSTIVE"


def test_anonymity_needs_shared_grid():
    """A swap can leave such a grid, so the AIW generator itself refuses the
    table, and the public scan and audit refuse it like the checker.
    Read as if shared, the second grid gives vickrey a FAIL at (0, 0, 5)
    whose witness does not replay, and the third indexes past a value set."""
    grids = [
        ((0, 1), (0, 1), (0, 1, 2)),
        ((0, 1, 2), (0, 1, 2), (5, 6, 7)),
        ((0, 1), (0, 1, 2), (0, 1, 2, 3)),
    ]
    calls = [
        CHECKERS["AIW"],
        lambda mech, grid: audit(OutcomeTable(mech, grid), ("AIW",)),
        lambda mech, grid: scan(OutcomeTable(mech, grid), list(POINTWISE.values())),
    ]
    message = "^anonymity in welfare needs a shared value set across agents$"
    for values in grids:
        het = GridSpace(CFG1, values)
        for mech in builtin_mechanisms():
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call(mech, het)


# one sweep for several axioms



@pytest.mark.parametrize(
    "grid", [GRID, GridSpace.shared(CFG1, range(4), mode=MODE_SAMPLED, seed=3, samples=20)]
)
def test_one_scan_reports_what_each_axiom_reports_alone(grid):
    every = list(POINTWISE.values())
    mechs = [*builtin_mechanisms(), no_trade_mechanism(1), no_trade_mechanism(-1),
             ev_pab_mechanism(PricingRule.threshold(-1)), grant_first_mechanism(),
             selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2))]
    failed = set()
    for mech in mechs:
        reports = scan(OutcomeTable(mech, grid), every)
        assert reports == {axiom.name: CHECKERS[axiom.name](mech, grid) for axiom in every}
        failed |= {name for name, report in reports.items() if report.verdict == "FAIL"}
    assert failed == set(POINTWISE)


# welfare comparison


def test_welfare_compare_self_is_equal():
    table = OutcomeTable(ev_pab_mechanism(PricingRule.always_ev()), GRID)
    cmp = welfare_compare(table, table)
    assert cmp.relation == "EQUAL"
    assert cmp.strict_first is None and cmp.strict_second is None


def test_welfare_always_ev_dominates_iff_zero():
    """EV pricing forgives the price whenever possible; restricting it to the
    free case can only lower someone's utility."""
    first = ev_pab_mechanism(PricingRule.always_ev())
    second = ev_pab_mechanism(PricingRule.ev_iff_price_zero())
    cmp = welfare_compare(OutcomeTable(first, GRID), OutcomeTable(second, GRID))
    assert cmp.relation == "DOMINATES"
    assert cmp.strict_second is None
    assert cmp.profiles_checked == 64
    p = Profile(CFG1, (3, 1, 1))
    u_first = first.evaluate(p)
    u_second = second.evaluate(p)
    assert (u_first.x[0], u_first.t[0]) == (1, 1)
    assert (u_second.x[0], u_second.t[0]) == (1, 3)


def test_welfare_vickrey_dominates_no_trade():
    cmp = welfare_compare(
        OutcomeTable(vickrey_mechanism(), GRID), OutcomeTable(no_trade_mechanism(0), GRID)
    )
    assert cmp.relation == "DOMINATES"


def test_welfare_incomparable_dictators():
    first = selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2))
    second = selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(1, 2))
    cmp = welfare_compare(OutcomeTable(first, GRID), OutcomeTable(second, GRID))
    assert cmp.relation == "INCOMPARABLE"
    assert cmp.strict_first["profile"] == (3, 2, 2)
    assert cmp.strict_second["profile"] == (2, 3, 2)


def test_never_beaten_is_dominates_or_equal():
    aev = ev_pab_mechanism(PricingRule.always_ev())
    iff_zero = ev_pab_mechanism(PricingRule.ev_iff_price_zero())
    dictators = [
        selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(i, 2)) for i in (0, 1)
    ]
    pairs = [(aev, aev), (aev, iff_zero), (iff_zero, aev), tuple(dictators)]
    outcomes = [
        welfare_compare(OutcomeTable(first, GRID), OutcomeTable(second, GRID))
        for first, second in pairs
    ]
    assert [cmp.relation for cmp in outcomes] == [
        "EQUAL", "DOMINATES", "DOMINATED", "INCOMPARABLE"
    ]
    assert [cmp.never_beaten for cmp in outcomes] == [True, True, False, False]


# report plumbing


def test_witness_json_round_trip():
    cases = [
        ("SP", CHECKERS["SP"](pay_as_bid_mechanism(), GRID5).witness),
        ("EE", CHECKERS["EE"](vickrey_mechanism(), GRID).witness),
        ("NOM", CHECKERS["NOM"](pay_as_bid_mechanism(), GRID).witness),
        ("AIW", CHECKERS["AIW"](
            selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2)), GRID
        ).witness),
    ]
    for axiom, witness in cases:
        encoded = witness_to_json(witness)
        assert witness_from_json(encoded) == witness, axiom


def test_report_to_json_shape():
    report = CHECKERS["IR"](no_trade_mechanism(1), GRID)
    data = report.to_json()
    assert data["axiom"] == "IR"
    assert data["verdict"] == "FAIL"
    assert data["profiles_checked"] == 64
    assert data["witness"]["utility"] == "-1"


def test_replay_witness_accepts_real_and_rejects_doctored():
    witness = CHECKERS["SP"](pay_as_bid_mechanism(), GRID5).witness
    assert replay_witness(pay_as_bid_mechanism(), "SP", witness, GRID5)
    fake = dict(witness, misreport=Fraction(4))
    assert not replay_witness(pay_as_bid_mechanism(), "SP", fake, GRID5)
