"""Brute-force oracles for the analytic NOM bounds, the pointwise scans and
the outcome tables.

Nothing here goes through the checkers' per-profile definitions: the
oracles enumerate every identity with their own loops, so a scan, a
replay or a bound that drifts from the plain definition of its axiom
shows up as a disagreement. The outcome tables, filled from each
family's value-level outcome on scaled ints, are compared rank by rank
with `Mechanism.evaluate` on exact profiles. The rule walks on scaled
ints (the winner-table generator, the condition scan and the VALID and
UNCOMPROMISING walks) are compared with their definitions on exact
profiles. The characterization's "only if" is checked against every
EE+IR+NS+SP mechanism of a small market, enumerated outcome by outcome.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_feasible, random_pricing_table
from mechlab import (
    CHECKERS,
    Allocation,
    GridSpace,
    MarketConfig,
    Mechanism,
    PricingRule,
    Profile,
    WinnerRule,
    audit,
    builtin_mechanisms,
    check_uncompromising,
    efficient_vickrey_mechanism,
    ev_pab_mechanism,
    has_uniform_tail,
    no_trade_mechanism,
    pay_as_bid_mechanism,
    random_winner_rule_table,
    refresh_witness,
    replay_witness,
    selective_vickrey_mechanism,
    shrink_witness,
    utilities,
    validate_winner_rule,
    vickrey_mechanism,
    vickrey_price,
    witness_to_json,
)
from mechlab.axioms import (
    BY_BOUNDS,
    MODE_SAMPLED,
    POINTWISE,
    AxiomReport,
    OutcomeTable,
    _nom_bounds,
    _value_sets,
    scan,
)

# analytic NOM bounds


VALUES = (0, Fraction(1, 2), 1, 2, 3)
MARKETS = ((3, 1), (3, 2), (4, 2), (4, 3))


FAMILIES = {
    "vickrey": lambda market: vickrey_mechanism(),
    "efficient_vickrey": lambda market: efficient_vickrey_mechanism(),
    "pay_as_bid": lambda market: pay_as_bid_mechanism(),
    "no_trade(fee=1)": lambda market: no_trade_mechanism(1),
    "no_trade(fee=-1)": lambda market: no_trade_mechanism(-1),
    **{
        f"selective_vickrey({rule.label})": (
            lambda market, rule=rule: selective_vickrey_mechanism(rule)
        )
        for rule in (WinnerRule.empty(), WinnerRule.strict(), WinnerRule.efficient())
    },
    "selective_vickrey(dictator 0 above 1)": lambda market: selective_vickrey_mechanism(
        WinnerRule.dictatorial_threshold(0, 1)
    ),
    "selective_vickrey(dictator n-1 above 0)": lambda market: selective_vickrey_mechanism(
        WinnerRule.dictatorial_threshold(market.n - 1, 0)
    ),
    "selective_vickrey(dictator 0 above -1)": lambda market: selective_vickrey_mechanism(
        WinnerRule.dictatorial_threshold(0, -1)
    ),
    **{
        f"ev_pab({pricing.label})": lambda market, pricing=pricing: ev_pab_mechanism(pricing)
        for pricing in (
            PricingRule.always_ev(),
            PricingRule.ev_iff_price_zero(),
            PricingRule.threshold(-1),
            PricingRule.threshold(0),
            PricingRule.threshold(Fraction(3, 2)),
        )
    },
}


def iter_nom_violations(mechanism, grid):
    """Obvious manipulations in (agent, true value, misreport) order."""
    bounds = _nom_bounds(OutcomeTable(mechanism, grid))
    return BY_BOUNDS["NOM"].violations(_value_sets(grid), bounds)


def zero_report_realizer(market):
    """Opponents against which a zero report wins for free: all zero but
    the last, so the tie-break hands the spare objects to low indices."""
    return (Fraction(0),) * (market.n - 2) + (Fraction(1),)


def utility_at(mechanism, market, agent, report, opponents, true_value):
    values = list(opponents)
    values.insert(agent, report)
    x, t = mechanism.evaluate(Profile(market, values))
    return true_value * x[agent] - t[agent]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=8, deadline=None)
@given(
    market=st.sampled_from(MARKETS),
    values=st.sets(st.sampled_from(VALUES), min_size=1, max_size=4),
)
def test_analytic_nom_bounds_are_sound_and_attained(family, market, values):
    market = MarketConfig(*market)
    mechanism = FAMILIES[family](market)
    grid = GridSpace.shared(market, sorted(values))
    values = grid.shared_values
    for point in grid.profiles():
        profile = Profile(market, point.values)
        x, t = mechanism.evaluate(profile)
        for agent in range(market.n):
            for true_value in values:
                sup, inf = mechanism.bounds(
                    agent, market.m, profile.values[agent], true_value, 1
                )
                assert inf <= true_value * x[agent] - t[agent] <= sup
    for witness in iter_nom_violations(mechanism, grid):
        if witness["direction"] != "SUP":
            continue
        agent, report = witness["agent"], witness["misreport"]
        opponents = witness["realizing_opponents"]
        if report == 0:
            # The recorded all-zero realizer is wrong here; see the xfail below.
            opponents = zero_report_realizer(market)
        got = utility_at(
            mechanism, market, agent, report, opponents, witness["true_value"]
        )
        assert got == witness["misreport_bound"], witness


@pytest.mark.xfail(
    strict=True,
    reason="a zero report's SUP witness records all-zero opponents, at which "
    "the zero report loses; the recorded bytes are pinned by the benchmark "
    "reference, so the fix waits for a reference refresh",
)
def test_zero_report_sup_witness_replays_at_its_realizer():
    grid = GridSpace.shared(MarketConfig(4, 2), range(6))
    mechanism = pay_as_bid_mechanism()
    witness = next(iter_nom_violations(mechanism, grid))
    assert (witness["direction"], witness["misreport"]) == ("SUP", 0)
    got = utility_at(
        mechanism,
        grid.config,
        witness["agent"],
        witness["misreport"],
        witness["realizing_opponents"],
        witness["true_value"],
    )
    assert got == witness["misreport_bound"]


# closed-form bounds at a grid's scale


HALF_STEPS = tuple(Fraction(k, 2) for k in range(7))  # 0, 1/2, ..., 3


def closed_form_mechanisms():
    """Every family with closed-form bounds, with constants off the grid's
    denominator and below zero."""
    return [
        *builtin_mechanisms(),
        no_trade_mechanism(Fraction(1, 3)),
        no_trade_mechanism(-1),
        *(
            selective_vickrey_mechanism(rule)
            for rule in (
                WinnerRule.dictatorial_threshold(0, Fraction(2, 3)),
                WinnerRule.dictatorial_threshold(0, -1),
                WinnerRule.empty(),
                WinnerRule.strict(),
                WinnerRule.efficient(),
            )
        ),
        ev_pab_mechanism(PricingRule.threshold(Fraction(1, 3))),
        ev_pab_mechanism(PricingRule.threshold(-1)),
    ]


@pytest.mark.parametrize("market", MARKETS, ids=map(str, MARKETS))
def test_closed_form_bounds_scale_with_their_arguments(market):
    """bounds(a, m, s*r, s*v, s) == s * bounds(a, m, r, v, 1): the integer
    sweep compares the bounds at the grid's scale, so this identity is
    what keeps its verdicts those of the exact values."""
    market = MarketConfig(*market)
    for mechanism in closed_form_mechanisms():
        bounds = mechanism.bounds
        for agent, report, value in itertools.product(market.agents, HALF_STEPS, HALF_STEPS):
            exact = bounds(agent, market.m, report, value, 1)
            for scale in (1, 2, 6):
                got = bounds(agent, market.m, scale * report, scale * value, scale)
                assert got == tuple(scale * b for b in exact), (mechanism.name, agent, scale)


def test_analytic_bounds_on_a_half_step_grid_are_ints():
    """Each analytic bound NOM and BEST_CASE compare for a built-in family
    on a half-step grid is an int: no `Fraction` is built until a witness
    or a detail is written."""
    grid = GridSpace.from_range(MarketConfig(4, 2), 3, 2)
    for mechanism in builtin_mechanisms():
        bounds = _nom_bounds(OutcomeTable(mechanism, grid))
        assert (bounds.scope, bounds.scale) == ("analytic", 2)
        for agent, ups in enumerate(grid.scaled):
            for report, value in itertools.product(ups, ups):
                sup, inf, *_ = bounds.at(agent, report, value)
                assert (type(sup), type(inf)) == (int, int), (mechanism.name, agent)


# NOM, BEST_CASE, EFF, IR and NS on a half-step grid, for constants that stay
# a `Fraction` at the grid's scale and a grid-scope pricing table: the
# digest of the reports as the exact-value bound sweep printed them.
OFF_SCALE_DIGEST = "4485711a5e46300dca70ea3afdf9b221bbcc40926a9bd8a6d7ab3f447b676012"


def test_off_scale_bound_reports_keep_their_bytes():
    market = MarketConfig(3, 1)
    half = GridSpace.from_range(market, 3, 2)
    grids = (half, GridSpace.from_range(market, 3, 2, mode=MODE_SAMPLED, seed=0, samples=40))
    modes = random_pricing_table(half, random.Random(0))
    names = ("NOM", "BEST_CASE", "EFF", "IR", "NS")
    doc = [
        [grid.mode, mechanism.name,
         {k: r.to_json() for k, r in audit(OutcomeTable(mechanism, grid), names).items()}]
        for grid in grids
        for mechanism in (
            no_trade_mechanism(Fraction(1, 3)),
            selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, Fraction(2, 3))),
            ev_pab_mechanism(PricingRule.threshold(Fraction(1, 3))),
            ev_pab_mechanism(PricingRule.threshold(-1)),
            ev_pab_mechanism(PricingRule.rule_table(market, modes)),
        )
    ]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == OFF_SCALE_DIGEST


# pointwise scans against brute force

IDENTITY = {
    "IR": ("agent",),
    "NS": ("agent",),
    "SP": ("agent", "misreport"),
    "EE": (),
    "EFF": (),
    "EF": ("agent", "other"),
    "AIW": ("agent", "other"),
}

GRIDS = (
    GridSpace.shared(MarketConfig(3, 1), (0, 1, 2, 3)),
    GridSpace.shared(MarketConfig(4, 2), (0, 1, 2)),
    # A sample arrives out of order, and its smallest violating profile
    # can hold several violations, so the within-profile order shows.
    GridSpace.shared(MarketConfig(3, 1), range(6), mode=MODE_SAMPLED, seed=2, samples=30),
    # Values in steps of 1/2, so outcomes are scaled by a denominator of 2.
    GridSpace.from_range(MarketConfig(3, 1), 2, 2),
    # Value sets of different sizes, so each agent's rank stride differs.
    GridSpace(MarketConfig(3, 1), ((0, 2), (0, Fraction(1, 2), 1), (0, 1, 2, 3))),
    # A sampled grid in halves, where the 1/3 fee is no multiple of 1/2.
    GridSpace.shared(
        MarketConfig(4, 2), (0, Fraction(1, 2), 1, 2), mode=MODE_SAMPLED, seed=7, samples=40
    ),
)


def oracle_mechanisms(grid):
    """The built-in tour, fee variants that break IR and NS (one of them
    a fee off every grid's denominator), and one seeded rule table."""
    table = random_winner_rule_table(grid, random.Random(f"oracle:{grid.config}"))
    return [
        *builtin_mechanisms(),
        no_trade_mechanism(1),
        no_trade_mechanism(-1),
        no_trade_mechanism("1/3"),
        selective_vickrey_mechanism(WinnerRule.rule_table(grid.config, table)),
    ]


def brute_violations(axiom, mechanism, grid):
    """Every violation of `axiom` on the grid, by direct enumeration."""
    market = grid.config
    agents = range(market.n)
    for combo in sorted({profile.values for profile in grid.profiles()}):
        profile = Profile(market, combo)
        x, t = allocation = mechanism.evaluate(profile)
        us = utilities(allocation, profile)
        base = {"profile": combo}
        if axiom == "IR":
            for i in agents:
                if us[i] < 0:
                    yield {**base, "agent": i, "utility": us[i]}
        elif axiom == "NS":
            for i in agents:
                if t[i] < 0:
                    yield {**base, "agent": i, "transfer": t[i]}
        elif axiom == "SP":
            for i in agents:
                for report in grid.values[i]:
                    lied = list(combo)
                    lied[i] = report
                    lied_x, lied_t = mechanism.evaluate(Profile(market, lied))
                    gained = combo[i] * lied_x[i] - lied_t[i]
                    if gained > us[i]:
                        yield {
                            **base,
                            "agent": i,
                            "misreport": report,
                            "truthful_utility": us[i],
                            "misreport_utility": gained,
                        }
        elif axiom == "EE":
            indifferent = any(
                all(v * ref_x - ref_t == u for v, u in zip(combo, us))
                for ref_x, ref_t in ((0, -us[0]), (1, combo[0] - us[0]))
            )
            if not indifferent:
                yield {**base, "utilities": us}
        elif axiom == "EFF":
            achieved = sum((v for xi, v in zip(x, combo) if xi == 1), Fraction(0))
            optimum = sum(sorted(combo, reverse=True)[: market.m], Fraction(0))
            if achieved != optimum:
                yield {**base, "achieved": achieved, "optimum": optimum}
        elif axiom == "EF":
            for i, j in itertools.permutations(agents, 2):
                envied = combo[i] * x[j] - t[j]
                if envied > us[i]:
                    yield {
                        **base,
                        "agent": i,
                        "other": j,
                        "own_utility": us[i],
                        "other_bundle_utility": envied,
                    }
        elif axiom == "AIW":
            for i, j in itertools.permutations(agents, 2):
                swapped = list(combo)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                swapped_x, swapped_t = mechanism.evaluate(Profile(market, swapped))
                theirs = combo[i] * swapped_x[j] - swapped_t[j]
                if theirs != us[i]:
                    yield {
                        **base,
                        "agent": i,
                        "other": j,
                        "swapped_profile": tuple(swapped),
                        "utility": us[i],
                        "swapped_utility": theirs,
                    }


@pytest.mark.parametrize("axiom", sorted(IDENTITY))
def test_scan_and_replay_agree_with_brute_force(axiom):
    """Witnesses are compared in their JSON form: an int where the oracle
    has a Fraction compares equal in Python but prints differently."""
    failures = 0
    for grid in GRIDS:
        if axiom == "AIW" and not grid.is_shared:
            continue  # a swap leaves a heterogeneous grid
        for mechanism in oracle_mechanisms(grid):
            found = list(brute_violations(axiom, mechanism, grid))
            report = CHECKERS[axiom](mechanism, grid)
            assert report.profiles_checked == grid.size if grid.samples == 0 else grid.samples
            if not found:
                assert report.verdict == grid.pass_verdict, mechanism.name
                continue
            failures += 1
            first = min(
                found, key=lambda w: (w["profile"], *(w[k] for k in IDENTITY[axiom]))
            )
            assert report.verdict == "FAIL", mechanism.name
            assert witness_to_json(report.witness) == witness_to_json(first), mechanism.name
            for witness in found:
                fresh = refresh_witness(mechanism, axiom, witness, grid)
                assert witness_to_json(fresh) == witness_to_json(witness)
            shrunk = shrink_witness(mechanism, axiom, first, grid)
            assert replay_witness(mechanism, axiom, shrunk, grid), mechanism.name
    assert failures, f"no mechanism violates {axiom}; the oracle is vacuous"


AUDITED_NAMES = (
    tuple(CHECKERS),
    ("BEST_CASE",),
    ("SP", "BEST_CASE", "EE"),
    ("NOM",),
    ("SP", "NOM", "SP", "BEST_CASE", "IR", "BEST_CASE"),
)


@pytest.mark.parametrize("grid", [GRIDS[0], GRIDS[2]], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("names", AUDITED_NAMES, ids=["all", "best-case", "sp-best-case-ee",
                                                       "nom", "repeated"])
def test_audit_equals_the_one_axiom_checkers(grid, names):
    """One sweep per mechanism gives each axiom the report its checker gives
    alone, for the oracle mechanisms and a grid-scope EV_PAB pricing table,
    whose BEST_CASE precondition holds, so it reads the bounds NOM reads.
    BEST_CASE is NOT_APPLICABLE exactly when EFF, IR or NS fails alone."""
    modes = random_pricing_table(grid, random.Random(f"audit:{grid.config}"))
    for mechanism in [
        *oracle_mechanisms(grid),
        ev_pab_mechanism(PricingRule.rule_table(grid.config, modes)),
    ]:
        audited = audit(OutcomeTable(mechanism, grid), names)
        assert list(audited) == list(dict.fromkeys(names))
        assert audited == {name: CHECKERS[name](mechanism, grid) for name in names}
        if "BEST_CASE" in audited:
            failing = any(
                CHECKERS[k](mechanism, grid).verdict == "FAIL" for k in ("EFF", "IR", "NS")
            )
            assert (audited["BEST_CASE"].verdict == "NOT_APPLICABLE") == failing


# the scan's skip rule against a scan that runs every axiom at every draw


SKIP_GRIDS = (
    GRIDS[2],
    GRIDS[5],
    # Two values and many draws: each profile is drawn again and again.
    GridSpace.shared(MarketConfig(3, 1), (0, 1), mode=MODE_SAMPLED, seed=1, samples=60),
)


def reference_scan(table, axioms):
    """Each axiom's report from its generator run at every draw, keeping
    the least key, and whether some later draw lowered the first key."""
    grid = table.grid
    best, lowered, count = {}, False, 0
    for at in grid.profiles():
        count += 1
        for axiom in axioms:
            hit = next(axiom.violations(table, at), None)
            if hit is not None:
                key = (at.rank, *(hit[f] for f in axiom.identity))
                if axiom.name not in best or key < best[axiom.name][0]:
                    lowered |= axiom.name in best
                    best[axiom.name] = (key, hit)
    reports = {
        axiom.name: AxiomReport(axiom.name, "FAIL", best[axiom.name][1], count)
        if axiom.name in best
        else AxiomReport(axiom.name, grid.pass_verdict, None, count)
        for axiom in axioms
    }
    return reports, lowered


@pytest.mark.parametrize("grid", SKIP_GRIDS, ids=["0..5", "halves", "two-values"])
def test_scan_skips_only_draws_that_cannot_lower_a_key(grid):
    """An axiom runs only at draws ranked below its witness; on samples
    that repeat and reorder profiles, every report equals the one a scan
    running every axiom at every draw gives."""
    ranks = [at.rank for at in grid.profiles()]
    assert ranks != sorted(ranks)  # drawn out of rank order
    assert (len(set(ranks)) < len(ranks)) == (grid is not GRIDS[5])  # the others repeat draws
    every = list(POINTWISE.values())
    failed = lowered = 0
    for mechanism in oracle_mechanisms(grid):
        reports = scan(OutcomeTable(mechanism, grid), every)
        want, later = reference_scan(OutcomeTable(mechanism, grid), every)
        assert reports == want, mechanism.name
        failed += sum(report.verdict == "FAIL" for report in reports.values())
        lowered += later
    assert failed and lowered, "no draw after a first witness lowered a key"


# grid-scope NOM bounds against the drawn profiles


def tied_mechanism(seed):
    """A CUSTOM mechanism whose outcome at each profile is drawn from the
    bundles (0, 0), (0, 1), (1, 0) and (1, 1), so at a true value of 0 or 1
    two bundles often tie on an agent's utility."""

    def fn(profile):
        rng = random.Random(f"{seed}:{profile.values}")
        n, m = profile.config.n, profile.config.m
        winners = set(rng.sample(range(n), rng.randint(0, m)))
        x = tuple(int(i in winners) for i in range(n))
        return Allocation(x, tuple(rng.choice((0, 1)) for _ in range(n)))

    return Mechanism(f"tied({seed})", "CUSTOM", fn)


def drawn_bounds(mechanism, grid, agent, report, true_value):
    """The agent's (sup, inf, sup realizer, inf realizer) at `true_value`
    over the drawn profiles where they report `report`, by brute force: a
    realizer is the opponents of the least-ranked profile attaining the
    bound. Also whether a draw ranked below the first one attaining a bound
    attains it later, where only the tie-break names the realizer."""
    drawn = []  # (utility, rank, opponents) in draw order
    for at in grid.profiles():
        if at.values[agent] == report:
            x, t = mechanism.evaluate(Profile(grid.config, at.values))
            opponents = at.values[:agent] + at.values[agent + 1:]
            drawn.append((true_value * x[agent] - t[agent], at.rank, opponents))
    if not drawn:
        return None, False
    bounds, reordered = [], False
    for bound in (max, min):
        u = bound(d[0] for d in drawn)
        attaining = [d for d in drawn if d[0] == u]
        least = min(attaining, key=lambda d: d[1])
        reordered |= least[1] < attaining[0][1]
        bounds.append((u, least[2]))
    (sup, sup_at), (inf, inf_at) = bounds
    return (sup, inf, sup_at, inf_at), reordered


@pytest.mark.parametrize("grid", SKIP_GRIDS, ids=["0..5", "halves", "two-values"])
def test_grid_scope_bounds_name_the_least_ranked_realizer(grid):
    """`_nom_bounds` on a mechanism without closed-form bounds gives, for
    every agent, report and true value, the sup and inf of the utility over
    the drawn profiles and the least-ranked profile attaining each, however
    the sample orders its draws; a report never drawn gives None."""
    mechanisms = [
        *(tied_mechanism(seed) for seed in range(4)),
        *(Mechanism(f"opaque({m.name})", "CUSTOM", m.evaluate)
          for m in oracle_mechanisms(grid)),
    ]
    reordered = 0
    for mechanism in mechanisms:
        bounds = _nom_bounds(OutcomeTable(mechanism, grid))
        assert bounds.scope == "grid"
        for agent, values in enumerate(grid.values):
            for report, r in zip(values, grid.scaled[agent]):
                for true_value, v in zip(values, grid.scaled[agent]):
                    want, later = drawn_bounds(mechanism, grid, agent, report, true_value)
                    got = bounds.at(agent, r, v)
                    if want is None:
                        assert got is None
                        continue
                    sup, inf, sup_at, inf_at = got
                    assert (bounds.exact(sup), bounds.exact(inf), sup_at, inf_at) == want, (
                        mechanism.name, agent, report, true_value
                    )
                    reordered += later
    assert reordered, "no bound was attained first at a draw ranked above a later one"


def test_every_outcome_on_the_swept_grids_is_feasible():
    """One indicator and one transfer per agent, at most m objects handed
    out, by every mechanism the oracle sweeps: the six built-in families
    among them."""
    for grid in GRIDS:
        for mechanism in oracle_mechanisms(grid):
            for point in grid.profiles():
                profile = Profile(grid.config, point.values)
                allocation = mechanism.evaluate(profile)
                assert is_feasible(allocation, grid.config), (mechanism.name, profile)


def test_sp_witness_with_an_off_grid_misreport_replays():
    """A misreport the grid never holds is replayed as recorded: at
    (0, 0, 3) pay-as-bid charges agent 2 its report, so 1/3 beats truth."""
    grid = GridSpace.shared(MarketConfig(3, 1), (0, 1, 2, 3))
    mechanism = pay_as_bid_mechanism()
    witness = {"profile": (0, 0, 3), "agent": 2, "misreport": Fraction(1, 3)}
    fresh = refresh_witness(mechanism, "SP", witness, grid)
    with_misreport = GridSpace.shared(grid.config, (0, Fraction(1, 3), 3))
    (expected,) = (
        w
        for w in brute_violations("SP", mechanism, with_misreport)
        if all(w[k] == witness[k] for k in witness)
    )
    assert witness_to_json(fresh) == witness_to_json(expected)
    assert witness_to_json(fresh)["misreport_utility"] == "8/3"


# outcome tables against evaluate


def half_step(values):
    """Each value set with the midpoint of every two neighbouring values added."""
    return tuple(
        tuple(sorted({*vals, *((a + b) / 2 for a, b in zip(vals, vals[1:]))}))
        for vals in values
    )


def differential_mechanisms(grid):
    """Every built-in family, and each family constant and rule table in a
    form whose scaled value can fall off the grid's denominator."""
    rng = random.Random(f"differential:{grid.config}")
    winners = random_winner_rule_table(grid, rng)
    modes = random_pricing_table(grid, rng)
    return [
        *builtin_mechanisms(),
        no_trade_mechanism("1/3"),
        selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, "1/2")),
        selective_vickrey_mechanism(WinnerRule.rule_table(grid.config, winners)),
        ev_pab_mechanism(PricingRule.ev_iff_price_zero()),
        ev_pab_mechanism(PricingRule.threshold("1/2")),
        ev_pab_mechanism(PricingRule.rule_table(grid.config, modes)),
    ]


@pytest.mark.parametrize("grid", GRIDS, ids=range(len(GRIDS)))
def test_every_table_rank_equals_evaluate_with_its_transfers_scaled(grid):
    """At every rank of a table on the grid's value sets and on their
    half-step refinement, the entry is `evaluate` at that profile with each
    transfer multiplied by the table's scale: an int when that is whole,
    the exact `Fraction` otherwise. `exact` maps each transfer back."""
    market = grid.config
    for values in (grid.values, half_step(grid.values)):
        for mechanism in differential_mechanisms(grid):
            space = GridSpace(market, values)
            table = OutcomeTable(mechanism, space)
            for rank, combo in enumerate(itertools.product(*values)):
                x, t = mechanism.evaluate(Profile(market, combo))
                scaled = tuple(ti * space.scale for ti in t)
                want = tuple(s.numerator if s.denominator == 1 else s for s in scaled)
                got_x, got_t = table[rank]
                assert (got_x, got_t) == (x, want), (mechanism.name, combo)
                assert list(map(type, got_t)) == list(map(type, want)), (mechanism.name, combo)
                assert tuple(map(table.exact, got_t)) == t, (mechanism.name, combo)


@pytest.mark.parametrize("grid", [GRIDS[2], GRIDS[5]], ids=["whole", "halves"])
def test_value_fed_fills_equal_decoded_fills(grid):
    """SP misreports are filled from the drawn point's values, not decoded
    from their rank. After a sampled SP and AIW audit on the grid and on
    its half-step refinement, every entry of the shared table is what a
    fresh table decodes at that rank, and `evaluate` at its profile with
    each transfer scaled, of the same types."""
    market = grid.config
    for values in (grid.values, half_step(grid.values)):
        space = GridSpace(market, values, mode=MODE_SAMPLED, seed=grid.seed, samples=grid.samples)
        for mechanism in differential_mechanisms(grid):
            table, fresh = OutcomeTable(mechanism, space), OutcomeTable(mechanism, space)
            audit(table, ("SP", "AIW"))
            assert len(table) > space.samples, mechanism.name
            for rank, (got_x, got_t) in table.items():
                combo = tuple(vals[rank // step % len(vals)]
                              for vals, step in zip(space.values, space.stride))
                x, t = mechanism.evaluate(Profile(market, combo))
                scaled = tuple(ti * space.scale for ti in t)
                want = tuple(s.numerator if s.denominator == 1 else s for s in scaled)
                assert (got_x, got_t) == fresh[rank] == (x, want), (mechanism.name, combo)
                assert list(map(type, got_t)) == list(map(type, want)), (mechanism.name, combo)
                assert list(map(type, fresh[rank][1])) == list(map(type, want))


# rule-table walks against their definitions on exact profiles


def fraction_strict_winners(profile):
    price = vickrey_price(profile.values, profile.config.m)
    return frozenset(i for i, v in enumerate(profile.values) if v > price)


def fraction_winner_rule_table(grid, rng):
    """`random_winner_rule_table` as written on `Profile`s and `Fraction`
    sorts: the oracle for the walk on scaled ints."""
    market = grid.config
    entries = {}
    for point in grid.profiles():
        profile = Profile(market, point.values)
        if not has_uniform_tail(profile.values, profile.config.m):
            continue
        if rng.random() < 0.5:
            continue
        price = vickrey_price(profile.values, profile.config.m)
        required = fraction_strict_winners(profile)
        tied = sorted(
            i for i, v in enumerate(profile.values) if v >= price and i not in required
        )
        rng.shuffle(tied)
        take = rng.randint(0, min(market.m - len(required), len(tied)))
        chosen = frozenset(required | set(tied[:take]))
        if chosen:
            entries[profile.values] = chosen
    closed = True
    while closed:
        closed = False
        for values in sorted(entries):
            selected = entries[values]
            profile = Profile(market, values)
            price = vickrey_price(profile.values, profile.config.m)
            for i in sorted(selected):
                for alt in grid.values[i]:
                    if alt <= price or alt == values[i]:
                        continue
                    raised = profile.with_value(i, alt)
                    need = frozenset({i}) | fraction_strict_winners(raised)
                    have = entries.get(raised.values, frozenset())
                    if not need <= have:
                        entries[raised.values] = have | need
                        closed = True
    return entries


def fraction_condition_violation(market, values, selected):
    """The first violated selection condition (i)-(iv) on an exact profile."""
    profile = Profile(market, values)
    witness = {"profile": values, "winners": sorted(selected)}
    if selected and not has_uniform_tail(profile.values, profile.config.m):
        return "(i) selection off a uniform-tail profile", witness
    if any(i < 0 or i >= market.n for i in selected):
        return "(ii) selected agent index out of range", witness
    price = vickrey_price(profile.values, profile.config.m)
    if any(profile.values[i] < price for i in selected):
        return "(ii) selected agent valued below the price", witness
    if selected and not fraction_strict_winners(profile) <= selected:
        return "(iii) agent above the price left unselected", witness
    if len(selected) > market.m:
        return "(iv) more winners than objects", witness
    return None


def fraction_dropped(rule, grid):
    """UNCOMPROMISING's raise at one exact profile: the first selected agent
    a raise to a grid value above the price drops, as a hit."""

    def dropped(values, selected):
        profile = Profile(grid.config, values)
        price = vickrey_price(profile.values, profile.config.m)
        for i in sorted(selected):
            for raised in grid.values[i]:
                if raised > price and i not in frozenset(
                    rule.pick(profile.with_value(i, raised).values, grid.config, 1)
                ):
                    witness = {"profile": values, "agent": i, "raised_value": raised}
                    return "selected agent dropped after raising their report", witness
        return None

    return dropped


def fraction_walk(entries, violation):
    """(entries checked, first hit) over exact (values, selected) entries."""
    checked = 0
    for values, selected in entries:
        checked += 1
        hit = violation(values, selected)
        if hit is not None:
            return checked, hit
    return checked, None


def fraction_entries(rule, grid=None):
    """A table's entries in sorted order, those on the grid's value sets
    when a grid is given; for a rule without a table, its selection at each
    profile the grid sweeps."""
    if rule.table is None:
        return ((p.values, frozenset(rule.pick(p.values, grid.config, 1))) for p in grid.profiles())
    keys = sorted(rule.table)
    if grid is not None:
        keys = [k for k in keys if all(v in vals for v, vals in zip(k, grid.values))]
    return ((key, rule.table[key]) for key in keys)


def arbitrary_winner_table(grid, rng):
    """Random winner lists at a random third of the grid's profiles, an
    index one past the last agent among the candidates: most break some
    condition."""
    n, m = grid.config.n, grid.config.m
    return {
        p.values: rng.sample(range(n + 1), rng.randint(0, m + 1))
        for p in grid.profiles()
        if rng.random() < 1 / 3
    }


# Keys in thirds, and in halves and thirds at once, for the condition scan.
THIRDS = (
    GridSpace.from_range(MarketConfig(3, 1), 1, 3),
    GridSpace(MarketConfig(3, 1), ((0, Fraction(1, 3), 1), (0, Fraction(1, 2)), (0, Fraction(2, 3)))),
)


@pytest.mark.parametrize("grid", GRIDS, ids=range(len(GRIDS)))
def test_generated_winner_tables_match_the_fraction_generator(grid):
    """Same entries, in the same insertion order, keyed by the grid's exact
    values, and the same rng calls: the streams agree after the walk."""
    for seed in range(8):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = random_winner_rule_table(grid, got_rng)
        want = fraction_winner_rule_table(grid, want_rng)
        assert list(got.items()) == list(want.items()), seed
        assert {type(v) for key in got for v in key} <= {Fraction}
        assert got_rng.random() == want_rng.random(), seed


def test_condition_scan_matches_the_fraction_conditions():
    """`WinnerRule.conditions` on scaled keys gives the entries checked and
    the first hit the exact check gives, on every swept grid and on tables
    keyed in thirds. Every condition the exact check can report occurs, and
    so does a pass; a selection below the price is never reported as such,
    since (i) refuses it first."""
    seen = set()
    for grid in (*GRIDS, *THIRDS):
        market = grid.config
        rng = random.Random(f"conditions:{grid.values}")
        tables = [random_winner_rule_table(grid, rng) for _ in range(3)]
        tables += [arbitrary_winner_table(grid, rng) for _ in range(30)]
        for table in tables:
            rule = WinnerRule.rule_table(market, table)
            want = fraction_walk(
                fraction_entries(rule), partial(fraction_condition_violation, market)
            )
            assert rule.conditions == want, table
            seen.add(None if want[1] is None else want[1][0])
    assert "(ii) selected agent valued below the price" not in seen
    assert len(seen) == 5, seen


def as_walk(report):
    """A rule check's report as a walk's (entries checked, first hit)."""
    if report.witness is None:
        return report.profiles_checked, None
    return report.profiles_checked, (report.details["condition"], report.witness)


@pytest.mark.parametrize("grid", GRIDS, ids=range(len(GRIDS)))
def test_rule_checks_match_the_fraction_walks(grid):
    """UNCOMPROMISING on tables (seeded and with entries dropped), and VALID
    and UNCOMPROMISING on the same tables walked without a table or bounds,
    give the verdicts, counts and witnesses of the walks on exact profiles."""
    market = grid.config
    rng = random.Random(f"walks:{grid.values}")
    verdicts = set()
    for _ in range(4):
        table = random_winner_rule_table(grid, rng)
        kept = {key: table[key] for key in sorted(table) if rng.random() < 0.7}
        for entries in (table, kept, arbitrary_winner_table(grid, rng)):
            tabled = WinnerRule.rule_table(market, entries)
            walked = WinnerRule("walked", tabled.pick, None, dict)
            for rule in (tabled, walked):
                report = check_uncompromising(rule, grid)
                want = fraction_walk(fraction_entries(rule, grid), fraction_dropped(rule, grid))
                assert as_walk(report) == want, entries
                verdicts.add(report.verdict)
            report = validate_winner_rule(walked, grid)
            want = fraction_walk(
                fraction_entries(walked, grid), partial(fraction_condition_violation, market)
            )
            assert as_walk(report) == want, entries
    assert "FAIL" in verdicts and len(verdicts) > 1, verdicts


# the characterization's "only if"


def ee_ir_ns_outcomes(values):
    """Every (x, t) with one object that is EE, IR and NS at `values`.

    IR and NS leave a loser paying 0, so EE's reference bundle is either
    (0, 0), where the winner pays their own value, or (1, p), where every
    loser values the object at p and the winner pays p <= their value.
    """
    n = len(values)
    outcomes = {((0,) * n, (0,) * n)}
    for i, v in enumerate(values):
        x = tuple(int(j == i) for j in range(n))
        losers = {w for j, w in enumerate(values) if j != i}
        prices = {v} | {p for p in losers if len(losers) == 1 and p <= v}
        outcomes.update((x, tuple(p if j == i else 0 for j in range(n))) for p in prices)
    return sorted(outcomes)


def sp_mechanisms(n, values):
    """Every EE+IR+NS+SP mechanism on `values`, one object: each is the
    tuple of its outcomes over the profiles in lexicographic order. A
    profile's outcome is checked for SP against the profiles already
    assigned that differ from it in one agent's value."""
    profiles = list(itertools.product(values, repeat=n))
    neighbours = [
        [(j, i) for j, q in enumerate(profiles[:k]) for i in range(n)
         if p[:i] + p[i + 1:] == q[:i] + q[i + 1:]]
        for k, p in enumerate(profiles)
    ]
    chosen = [None] * len(profiles)

    def gains(true, honest, lie, i):
        (x, t), (dx, dt) = honest, lie
        return true[i] * dx[i] - dt[i] > true[i] * x[i] - t[i]

    def extend(k):
        if k == len(profiles):
            yield tuple(chosen)
            return
        for outcome in ee_ir_ns_outcomes(profiles[k]):
            if not any(
                gains(profiles[k], outcome, chosen[j], i)
                or gains(profiles[j], chosen[j], outcome, i)
                for j, i in neighbours[k]
            ):
                chosen[k] = outcome
                yield from extend(k + 1)

    return extend(0)


def only_if_sets(top):
    """For (2,1) with V = 0..top-1: the number of EE+IR+NS+SP mechanisms on
    0..top, their restrictions to V, the number of candidate rule tables on
    V, and the selective Vickrey mechanisms of those tables that VALID and
    UNCOMPROMISING pass, each a tuple of outcomes over V."""
    market = MarketConfig(2, 1)
    inner = list(itertools.product(range(top), repeat=2))
    outer = list(itertools.product(range(top + 1), repeat=2))
    at_inner = [outer.index(p) for p in inner]
    restrictions = set()
    count = 0
    for mechanism in sp_mechanisms(2, range(top + 1)):
        count += 1
        restrictions.add(tuple(mechanism[k] for k in at_inner))

    grid = GridSpace.shared(market, range(top))

    def selections(values):
        """Nobody, or one agent holding every value above the price."""
        price = vickrey_price(values, market.m)
        above = [i for i, v in enumerate(values) if v > price]
        tied = [i for i, v in enumerate(values) if v == price]
        return [(), *([tuple(above)] if above else [(i,) for i in tied])]

    candidates = 0
    members = set()
    for picks in itertools.product(*map(selections, inner)):
        candidates += 1
        rule = WinnerRule.rule_table(market, {p: w for p, w in zip(inner, picks) if w})
        if all(
            check(rule, grid).verdict.startswith("PASS")
            for check in (validate_winner_rule, check_uncompromising)
        ):
            mechanism = selective_vickrey_mechanism(rule)
            members.add(tuple(
                tuple(map(tuple, mechanism.evaluate(Profile(market, p)))) for p in inner
            ))
    return count, restrictions, candidates, members


def test_only_if_holds_below_the_grid_top():
    """Every EE+IR+NS+SP mechanism of (2,1) on 0..3, restricted to 0..2, is a
    selective Vickrey mechanism whose rule table VALID and UNCOMPROMISING
    pass, and every such mechanism arises. On 0..2 alone 483 of the 675
    mechanisms lie outside the class: a winner at the grid's top may pay
    their own value, as no higher report exists to deviate to."""
    count, restrictions, candidates, members = only_if_sets(3)
    assert (count, len(restrictions)) == (10125, 192)
    assert (candidates, len(members)) == (1728, 192)
    assert restrictions == members
    on_inner = list(sp_mechanisms(2, range(3)))
    assert len(on_inner) == 675
    assert sum(mechanism not in members for mechanism in on_inner) == 483


@pytest.mark.slow
def test_only_if_holds_below_the_grid_top_of_0_to_4():
    """The same oracle one value up: the 151,875 EE+IR+NS+SP mechanisms of
    (2,1) on 0..4 restrict to exactly the 1,536 class members on 0..3."""
    count, restrictions, candidates, members = only_if_sets(4)
    assert (count, len(restrictions)) == (151875, 1536)
    assert (candidates, len(members)) == (331776, 1536)
    assert restrictions == members
