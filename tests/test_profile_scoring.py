"""The blocked trajectory-table scorer against the per-profile recursion.

The oracle below is the enumeration the package used before profiles were
scored in blocks: a recursion over the trajectory tree, one profile at a
time, with the expected cost an fsum over the trajectories of nonzero
probability.  The table scorer multiplies the same factors in the same
order, so every exact cost and every brute-force report must agree bit for
bit, not merely to rounding.  The brute-force ranking's plain row sums
must bracket each exact cost within their bounds.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from pbpsolve import (
    FiniteTeamModel,
    StrategyProfile,
    brute_force_pbp,
    expected_cost,
    joint_measure_original,
    payoff_equivalence,
    profile_count,
    random_model,
    rnd_process,
    uniform_profile,
    verify_martingale,
)
from pbpsolve import measure_change

ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# the oracle: per-profile recursion over the trajectory tree
# ---------------------------------------------------------------------------

def _split(idx, sizes):
    out = []
    for s in reversed(sizes):
        out.append(idx % s)
        idx //= s
    return tuple(reversed(out))


def _oracle_joint_action(model, profile, period, observations, actions):
    components = []
    for j in range(model.stations):
        key = []
        for kind, s, m in model.info[j][period]:
            if kind == "y":
                key.append(_split(observations[s], model.obs_sizes)[m])
            else:
                key.append(_split(actions[s], model.action_sizes)[m])
        components.append(int(profile.maps[j][period][tuple(key)]))
    idx = 0
    for c, s in zip(components, model.action_sizes):
        idx = idx * s + c
    return idx


def _oracle_enumerate(model, profile):
    """Yield (states, observations, actions, p, p_ref, thetas) per trajectory."""
    n = model.horizon

    def recurse(t, states, observations, actions, p_orig, p_ref, lam, mart, thetas):
        if t == n:
            yield (tuple(states), tuple(observations), tuple(actions), p_orig, p_ref,
                   tuple(thetas))
            return
        u = _oracle_joint_action(model, profile, t, observations, actions)
        if t == 0:
            state_probs = model.initial
            ref_probs = model.initial
        else:
            state_probs = model.transitions[t - 1][states[-1], actions[-1]]
            ref_probs = model.state_reference[t - 1]
        for x in range(model.num_states):
            px = float(state_probs[x])
            rx = float(ref_probs[x])
            if rx == 0.0:
                continue
            mart_new = mart if t == 0 else mart * (px / rx)
            q = model.observations[t][x, u]
            phi = model.obs_reference[t]
            for y in range(model.total_obs):
                qy = float(q[y])
                py = float(phi[y])
                lam_new = lam * (qy / py)
                yield from recurse(
                    t + 1, states + [x], observations + [y], actions + [u],
                    p_orig * px * qy, p_ref * rx * py, lam_new, mart_new,
                    thetas + [lam_new * mart_new],
                )

    yield from recurse(0, [], [], [], 1.0, 1.0, 1.0, 1.0, [])


def _stage(model, states, actions):
    return [float(model.stage_costs[t][states[t], actions[t]]) for t in range(model.horizon)]


def oracle_expected_cost(model, profile):
    terms = []
    for states, _, actions, p, _, _ in _oracle_enumerate(model, profile):
        if p == 0.0:
            continue
        terminal = float(model.terminal_cost[states[-1]])
        terms.append(p * math.fsum(_stage(model, states, actions) + [terminal]))
    return math.fsum(terms)


def oracle_payoff_equivalence(model, profile):
    original_terms, reference_terms = [], []
    for states, _, actions, p, p_ref, thetas in _oracle_enumerate(model, profile):
        stage = _stage(model, states, actions)
        terminal = float(model.terminal_cost[states[-1]])
        original_terms.append(p * math.fsum(stage + [terminal]))
        weighted = [stage[t] * thetas[t] for t in range(model.horizon)]
        weighted.append(terminal * thetas[-1])
        reference_terms.append(p_ref * math.fsum(weighted))
    return math.fsum(original_terms), math.fsum(reference_terms)


def oracle_martingale(model, profile):
    """(unit_mean_error, conditional_error) by a recursion over the trajectory
    tree that multiplies as the table does: lam (q / phi), mart (P / Psi),
    (p_ref r) phi, and (r phi) Theta for a conditional term."""
    n = model.horizon
    unit_terms = [[] for _ in range(n)]
    conditional_error = 0.0

    def recurse(t, states, observations, actions, p_ref, lam, mart, theta_prev):
        nonlocal conditional_error
        if t == n:
            return
        u = _oracle_joint_action(model, profile, t, observations, actions)
        if t == 0:
            state_probs = ref_probs = model.initial
        else:
            state_probs = model.transitions[t - 1][states[-1], actions[-1]]
            ref_probs = model.state_reference[t - 1]
        conditional_terms = []
        for x in range(model.num_states):
            px = float(state_probs[x])
            rx = float(ref_probs[x])
            if rx == 0.0:
                continue
            mart_new = mart if t == 0 else mart * (px / rx)
            for y in range(model.total_obs):
                py = float(model.obs_reference[t][y])
                lam_new = lam * (float(model.observations[t][x, u, y]) / py)
                theta = lam_new * mart_new
                p_new = p_ref * rx * py
                unit_terms[t].append(p_new * theta)
                conditional_terms.append(rx * py * theta)
                recurse(t + 1, states + [x], observations + [y], actions + [u],
                        p_new, lam_new, mart_new, theta)
        conditional_error = max(conditional_error,
                                abs(math.fsum(conditional_terms) - theta_prev))

    recurse(0, [], [], [], 1.0, 1.0, 1.0, 1.0)
    unit_mean_error = max(abs(math.fsum(terms) - 1.0) for terms in unit_terms)
    return unit_mean_error, conditional_error


def oracle_rnd_process(model, profile, states, observations):
    """The scalar loop rnd_process ran before it read the table kernel."""
    lam = 1.0
    mart = 1.0
    actions = []
    lams, marts, thetas = [], [], []
    for t in range(model.horizon):
        u = _oracle_joint_action(model, profile, t, observations, actions)
        actions.append(u)
        x = int(states[t])
        y = int(observations[t])
        if t > 0:
            mart *= float(model.transitions[t - 1][states[t - 1], actions[t - 1], x]) / float(
                model.state_reference[t - 1][x]
            )
        lam *= float(model.observations[t][x, u, y]) / float(model.obs_reference[t][y])
        lams.append(lam)
        marts.append(mart)
        thetas.append(lam * mart)
    return lams, marts, thetas


def oracle_strategy_space(model, station):
    per_period = []
    for t in range(model.horizon):
        shape = model.info_shape(station, t)
        configs = math.prod(shape)
        per_period.append([
            np.asarray(a, dtype=int).reshape(shape)
            for a in itertools.product(range(model.action_sizes[station]), repeat=configs)
        ])
    return [tuple(choice) for choice in itertools.product(*per_period)]


def oracle_profiles(model):
    spaces = [oracle_strategy_space(model, j) for j in range(model.stations)]
    keys = list(itertools.product(*(range(len(s)) for s in spaces)))
    profiles = [StrategyProfile(maps=tuple(spaces[j][k[j]] for j in range(model.stations)))
                for k in keys]
    return spaces, keys, profiles


def oracle_brute_force(model, tol=1e-12, costs=None):
    """The report from every profile's oracle cost; costs, if given, are
    those costs in profile order."""
    spaces, keys, profiles = oracle_profiles(model)
    if costs is None:
        costs = [oracle_expected_cost(model, prof) for prof in profiles]
    costs = dict(zip(keys, costs))
    best_key = min(costs, key=lambda k: costs[k])
    best_cost = costs[best_key]
    scale = max(1.0, abs(best_cost))
    global_keys = [k for k, c in costs.items() if c <= best_cost + tol * scale]
    worst_gain = -math.inf
    for key in global_keys:
        for j in range(model.stations):
            for alt in range(len(spaces[j])):
                if alt == key[j]:
                    continue
                alt_key = tuple(alt if jj == j else key[jj] for jj in range(model.stations))
                worst_gain = max(worst_gain, costs[key] - costs[alt_key])
    if worst_gain == -math.inf:
        worst_gain = 0.0
    return dict(
        best_cost=best_cost,
        best_maps=profiles[keys.index(best_key)].maps,
        num_profiles=len(keys),
        num_global_optima=len(global_keys),
        worst_deviation_gain=worst_gain,
        pbp_holds=bool(worst_gain <= tol * scale),
    )


# ---------------------------------------------------------------------------
# generated models
# ---------------------------------------------------------------------------

def bits(value: float) -> str:
    """Exact representation, distinguishing -0.0 from 0.0."""
    return float(value).hex()


def ranked_costs(model):
    """The ranking pass's row sums and bounds over every profile."""
    tables = (
        measure_change._trajectory_table(model),
        measure_change._map_tables(model),
        measure_change._code_costs(model),
    )
    return measure_change._all_profile_costs(model, tables)


def assert_ranking_brackets(model, costs):
    """Every exact cost lies between the float ends of its ranked sum's bound."""
    sums, bounds = ranked_costs(model)
    costs = np.array(costs)
    assert np.all(sums - bounds <= costs) and np.all(costs <= sums + bounds)


def assert_report_matches_the_recursion(model, tol=1e-12, costs=None):
    got = brute_force_pbp(model, tol=tol)
    want = oracle_brute_force(model, tol=tol, costs=costs)
    assert bits(got.best_cost) == bits(want["best_cost"])
    assert bits(got.worst_deviation_gain) == bits(want["worst_deviation_gain"])
    assert got.num_profiles == want["num_profiles"]
    assert got.num_global_optima == want["num_global_optima"]
    assert got.pbp_holds == want["pbp_holds"]
    assert got.tol == tol
    for got_station, want_station in zip(got.best_profile.maps, want["best_maps"]):
        for a, b in zip(got_station, want_station):
            assert a.shape == b.shape and np.array_equal(a, b)


@st.composite
def small_models(draw) -> FiniteTeamModel:
    """random_model shapes with horizon 1-3 and 1-2 stations, optionally
    with an initial state of zero probability, negative costs, and every
    station reading another station's previous action."""
    horizon = draw(st.integers(1, 3))
    stations = draw(st.integers(1, 2))
    num_states = draw(st.integers(1, 3))
    obs_sizes = tuple(draw(st.integers(1, 2)) for _ in range(stations))
    action_sizes = tuple(draw(st.integers(1, 2)) for _ in range(stations))
    model = random_model(
        draw(st.integers(0, 2**31 - 1)),
        horizon=horizon,
        num_states=num_states,
        obs_sizes=obs_sizes,
        action_sizes=action_sizes,
        max_info_items=draw(st.integers(0, 2)),
    )
    changes: dict = {}
    if horizon > 1 and draw(st.booleans()):
        changes["info"] = tuple(
            ((),) + tuple((("u", t - 1, (j + 1) % stations),) for t in range(1, horizon))
            for j in range(stations)
        )
    if num_states > 1 and draw(st.booleans()):
        initial = model.initial.copy()
        initial[draw(st.integers(0, num_states - 1))] = 0.0
        changes["initial"] = initial / initial.sum()
    if draw(st.booleans()):
        changes["stage_costs"] = tuple(c - 0.75 for c in model.stage_costs)
        changes["terminal_cost"] = model.terminal_cost - 0.75
    model = dataclasses.replace(model, **changes)
    assume((num_states * model.total_obs) ** horizon <= 512)
    assume(profile_count(model) <= 64)
    event(f"horizon {horizon}, {stations} station(s)")
    for name in changes:
        event(f"changed {name}")
    if any(kind == "u" for station in model.info for items in station for kind, _, _ in items):
        event("reads an action")
    return model


@st.composite
def ranking_edge_models(draw) -> FiniteTeamModel:
    """Models whose costs test the brute-force ranking at its edges: costs on
    a coarse dyadic grid (exact ties everywhere), costs one ulp apart,
    negative costs, and models with a single trajectory (rows of one cell)."""
    kind = draw(st.sampled_from(["dyadic", "ulp", "negative", "one trajectory"]))
    event(kind)
    if kind == "one trajectory":
        stations = draw(st.integers(1, 2))
        model = random_model(
            draw(st.integers(0, 2**31 - 1)),
            horizon=draw(st.integers(1, 3)),
            num_states=1,
            obs_sizes=(1,) * stations,
            action_sizes=tuple(draw(st.integers(1, 3)) for _ in range(stations)),
        )
        assume(profile_count(model) <= 64)
        return model
    model = draw(small_models())
    costs = (*model.stage_costs, model.terminal_cost)
    if kind == "dyadic":
        costs = [np.floor(c * 2.0) / 2.0 for c in costs]
    elif kind == "ulp":
        costs = [1.0 + np.floor(c * 2.0) * math.ulp(1.0) for c in costs]
    else:
        costs = [-(c + 1.0) for c in costs]
    return dataclasses.replace(model, stage_costs=tuple(costs[:-1]), terminal_cost=costs[-1])


# ---------------------------------------------------------------------------
# the (station, period) map tables
# ---------------------------------------------------------------------------

@ORACLE_SETTINGS
@given(small_models())
def test_each_map_table_lists_every_map_once_in_product_order(model):
    tables = measure_change._map_tables(model)
    assert [len(station) for station in tables] == [model.horizon] * model.stations
    for j, station in enumerate(tables):
        for t, rows in enumerate(station):
            configs = math.prod(model.info_shape(j, t))
            assert rows.shape == (model.action_sizes[j] ** configs, configs)
            # C-contiguous, so the flat view the scorer gathers from is no copy
            assert rows.flags.c_contiguous
            want = itertools.product(range(model.action_sizes[j]), repeat=configs)
            assert rows.tolist() == [list(m) for m in want]


def test_two_stations_reading_each_others_action_over_three_periods():
    """1,024 profiles: each station reads the other's previous action."""
    model = random_model(8, horizon=3, num_states=2, obs_sizes=(2, 1), action_sizes=(2, 2))
    model = dataclasses.replace(model, info=tuple(
        ((),) + tuple((("u", t - 1, 1 - j),) for t in range(1, 3)) for j in range(2)
    ))
    assert profile_count(model) == 1024
    tables = measure_change._map_tables(model)
    assert [[len(rows) for rows in station] for station in tables] == [[2, 4, 4]] * 2
    _, _, profiles = oracle_profiles(model)
    costs = [oracle_expected_cost(model, p) for p in profiles]
    assert_ranking_brackets(model, costs)
    assert_report_matches_the_recursion(model, costs=costs)


# ---------------------------------------------------------------------------
# bit-for-bit agreement
# ---------------------------------------------------------------------------

@ORACLE_SETTINGS
@given(small_models())
def test_every_profile_cost_matches_the_recursion(model):
    _, _, profiles = oracle_profiles(model)
    costs = [oracle_expected_cost(model, p) for p in profiles]
    assert_ranking_brackets(model, costs)
    assert_report_matches_the_recursion(model, costs=costs)
    assert [bits(expected_cost(model, p)) for p in profiles] == [bits(c) for c in costs]


@ORACLE_SETTINGS
@given(small_models())
def test_brute_force_report_matches_the_recursion(model):
    assert_report_matches_the_recursion(model)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ranking_edge_models(), st.sampled_from([0.0, 1e-12, 1e-3]))
def test_brute_force_report_matches_the_recursion_at_the_ranking_edges(model, tol):
    assert_report_matches_the_recursion(model, tol=tol)


def test_brute_force_builds_each_scoring_table_once(monkeypatch):
    """The ranking pass, the exact pass and the best profile's read-out
    share one trajectory table, one set of map tables and one code-cost
    table."""
    model = random_model(1, horizon=2, num_states=3, obs_sizes=(3, 2), action_sizes=(2, 2))
    calls = {"_trajectory_table": 0, "_map_tables": 0, "_code_costs": 0}
    for name in calls:
        def counting(model, _build=getattr(measure_change, name), _name=name):
            calls[_name] += 1
            return _build(model)

        monkeypatch.setattr(measure_change, name, counting)
    brute_force_pbp(model)
    assert calls == {"_trajectory_table": 1, "_map_tables": 1, "_code_costs": 1}


@ORACLE_SETTINGS
@given(small_models())
def test_block_size_changes_no_bit(model):
    runs = []
    for cells in (1, 7, 1 << 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measure_change, "_BLOCK_CELLS", cells)
            runs.append([[bits(c) for c in a] for a in ranked_costs(model)])
    assert runs[0] == runs[1] == runs[2]


@ORACLE_SETTINGS
@given(small_models(), st.integers(0, 2**32 - 1))
def test_payoff_equivalence_and_joint_law_match_the_recursion(model, pick):
    _, _, profiles = oracle_profiles(model)
    profile = profiles[pick % len(profiles)]
    report = payoff_equivalence(model, profile)
    original, via_reference = oracle_payoff_equivalence(model, profile)
    assert bits(report.original) == bits(original)
    assert bits(report.via_reference) == bits(via_reference)
    law = joint_measure_original(model, profile)
    want = {(s, o, a): p for s, o, a, p, _, _ in _oracle_enumerate(model, profile)}
    assert list(law) == list(want)
    assert [bits(p) for p in law.values()] == [bits(p) for p in want.values()]


@ORACLE_SETTINGS
@given(small_models(), st.integers(0, 2**32 - 1))
def test_martingale_errors_match_the_recursion(model, pick):
    _, _, profiles = oracle_profiles(model)
    profile = profiles[pick % len(profiles)]
    report = verify_martingale(model, profile)
    unit_mean_error, conditional_error = oracle_martingale(model, profile)
    assert bits(report.unit_mean_error) == bits(unit_mean_error)
    assert bits(report.conditional_error) == bits(conditional_error)


@pytest.mark.parametrize("seed", [0, 3, 11, 577090037])
def test_rnd_process_matches_the_scalar_loop_on_every_path(seed):
    model = random_model(seed, horizon=3, num_states=2, obs_sizes=(2, 2),
                         action_sizes=(2, 1))
    _, _, profiles = oracle_profiles(model)
    for profile in profiles[:: max(1, len(profiles) // 5)]:
        for states in itertools.product(range(model.num_states), repeat=model.horizon):
            for obs in itertools.product(range(model.total_obs), repeat=model.horizon):
                path = rnd_process(model, profile, states, obs)
                lams, marts, thetas = oracle_rnd_process(model, profile, states, obs)
                assert [bits(v) for v in path.lambda_path] == [bits(v) for v in lams]
                assert [bits(v) for v in path.martingale_path] == [bits(v) for v in marts]
                assert [bits(v) for v in path.thetas] == [bits(v) for v in thetas]


# ---------------------------------------------------------------------------
# the change-of-measure identities on many models
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_models(), st.integers(0, 2**32 - 1))
def test_identities_hold_on_random_models(model, pick):
    _, _, profiles = oracle_profiles(model)
    profile = profiles[pick % len(profiles)]
    martingale = verify_martingale(model, profile)
    assert martingale.passed, martingale
    payoff = payoff_equivalence(model, profile)
    assert payoff.passed, payoff


def test_a_benchmark_shaped_model_matches_the_recursion_across_blocks():
    """1,024 profiles on 324 trajectories span several blocks."""
    model = random_model(577090037, horizon=2, num_states=3, obs_sizes=(3, 2),
                         action_sizes=(2, 2))
    assert profile_count(model) == 1024
    assert measure_change._BLOCK_CELLS // 324 < 1024
    _, _, profiles = oracle_profiles(model)
    costs = [oracle_expected_cost(model, p) for p in profiles]
    assert_ranking_brackets(model, costs)
    assert_report_matches_the_recursion(model, costs=costs)


def test_a_model_with_more_path_codes_than_a_block_matches_the_recursion():
    """28**3 path codes are more than a block holds, so no cost table is built."""
    model = random_model(11, horizon=3, num_states=7, obs_sizes=(2, 1),
                         action_sizes=(2, 2), max_info_items=1)
    assert (model.num_states * model.total_actions) ** model.horizon > measure_change._BLOCK_CELLS
    assert measure_change._code_costs(model) is None
    assert profile_count(model) == 128
    _, _, profiles = oracle_profiles(model)
    costs = [oracle_expected_cost(model, p) for p in profiles]
    assert_ranking_brackets(model, costs)
    assert_report_matches_the_recursion(model, costs=costs)


def test_a_path_sum_that_overflows_off_the_profile_changes_no_bit():
    """Paths that play action 1 in both periods sum 1e308 twice, past the
    float range; a profile that never plays it is scored as before."""
    model = random_model(1, horizon=2, num_states=2, obs_sizes=(2,), action_sizes=(2,))
    model = dataclasses.replace(
        model, stage_costs=tuple(np.array([[0.5, 1e308], [0.25, 1e308]]) for _ in range(2))
    )
    profile = uniform_profile(model)
    assert bits(expected_cost(model, profile)) == bits(oracle_expected_cost(model, profile))
    report = payoff_equivalence(model, profile)
    original, via_reference = oracle_payoff_equivalence(model, profile)
    assert bits(report.original) == bits(original)
    assert bits(report.via_reference) == bits(via_reference)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_models())
def test_renumbering_the_path_codes_changes_no_bit(model):
    plain = [[bits(c) for c in a] for a in ranked_costs(model)]
    code_space = (model.num_states * model.total_actions) ** model.horizon
    with pytest.MonkeyPatch.context() as mp:
        # renumber before every period, as a model too large for int64 codes
        # would; a block below the code space builds no cost table
        mp.setattr(measure_change, "_CODE_LIMIT", 1)
        mp.setattr(measure_change, "_BLOCK_CELLS", code_space - 1)
        assert measure_change._code_costs(model) is None
        renumbered = [[bits(c) for c in a] for a in ranked_costs(model)]
    assert renumbered == plain
