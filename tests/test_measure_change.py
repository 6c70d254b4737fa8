"""Finite-model enumeration, likelihood ratios, and optimality checks."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from pbpsolve import (
    FiniteTeamModel,
    StrategyProfile,
    brute_force_pbp,
    expected_cost,
    identity_model,
    joint_measure_original,
    load_model,
    model_from_dict,
    model_to_dict,
    payoff_equivalence,
    profile_count,
    random_model,
    rnd_process,
    uniform_profile,
    verify_martingale,
)
from pbpsolve.errors import ConfigurationError


def _trivial_model(**overrides) -> FiniteTeamModel:
    """One state, one station, binary obs/actions, horizon 1, uniform laws."""
    fields = dict(
        horizon=1,
        num_states=1,
        obs_sizes=(2,),
        action_sizes=(2,),
        initial=[1.0],
        transitions=(),
        observations=(np.full((1, 2, 2), 0.5),),
        obs_reference=(np.array([0.5, 0.5]),),
        state_reference=(),
        stage_costs=(np.zeros((1, 2)),),
        terminal_cost=np.zeros(1),
        info=(((),),),
    )
    fields.update(overrides)
    return FiniteTeamModel(**fields)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_observation_rows_must_be_stochastic():
    with pytest.raises(ConfigurationError, match="observation kernel 0"):
        _trivial_model(observations=(np.full((1, 2, 2), 0.4),))


def test_negative_entries_are_rejected():
    with pytest.raises(ConfigurationError, match="negative"):
        _trivial_model(observations=(np.array([[[-0.5, 1.5]] * 2]),))


def test_references_must_have_full_support():
    with pytest.raises(ConfigurationError, match="full support"):
        _trivial_model(obs_reference=(np.array([1.0, 0.0]),))


def test_info_must_be_strictly_causal():
    with pytest.raises(ConfigurationError, match="causal"):
        _trivial_model(info=(((("y", 0, 0),),),))


def test_a_two_item_info_entry_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="info"):
        _trivial_model(horizon=1, info=(((("y", 0),),),))


def test_info_station_index_is_checked():
    m = identity_model()
    with pytest.raises(ConfigurationError, match="out of range"):
        FiniteTeamModel(**{**_model_fields(m), "info": (((), (("y", 0, 3),)),)})


def test_profile_shape_is_checked():
    model = identity_model()
    bad = StrategyProfile(maps=((np.array(0), np.array(0)),))
    with pytest.raises(ConfigurationError, match="map shape"):
        expected_cost(model, bad)


def _model_fields(m: FiniteTeamModel) -> dict:
    return dict(
        horizon=m.horizon,
        num_states=m.num_states,
        obs_sizes=m.obs_sizes,
        action_sizes=m.action_sizes,
        initial=m.initial,
        transitions=m.transitions,
        observations=m.observations,
        obs_reference=m.obs_reference,
        state_reference=m.state_reference,
        stage_costs=m.stage_costs,
        terminal_cost=m.terminal_cost,
        info=m.info,
    )


def test_info_shapes_of_the_bundled_example():
    m = identity_model()
    assert m.stations == 1
    assert m.info_shape(0, 0) == ()
    assert m.info_shape(0, 1) == (2,)


# ---------------------------------------------------------------------------
# exhaustive joint law
# ---------------------------------------------------------------------------

def test_singleton_model_has_one_trajectory():
    m = _trivial_model(
        obs_sizes=(1,),
        action_sizes=(1,),
        observations=(np.ones((1, 1, 1)),),
        obs_reference=(np.ones(1),),
        stage_costs=(np.zeros((1, 1)),),
    )
    law = joint_measure_original(m, uniform_profile(m))
    assert law == {((0,), (0,), (0,)): 1.0}


def test_deterministic_observation_collapses_the_support():
    law = joint_measure_original(identity_model(), uniform_profile(identity_model()))
    # reference-possible but original-null entries are listed with weight 0
    support = {key: p for key, p in law.items() if p > 0.0}
    # u = 0 always: the state never flips and the observation echoes it
    assert support == {
        ((0, 0), (0, 0), (0, 0)): 0.5,
        ((1, 1), (1, 1), (0, 0)): 0.5,
    }


def test_product_model_matches_a_nested_loop_oracle():
    init = np.array([0.3, 0.7])
    trans_row = np.array([0.25, 0.75])
    obs_row = np.array([0.6, 0.4])
    m = FiniteTeamModel(
        horizon=2,
        num_states=2,
        obs_sizes=(2,),
        action_sizes=(2,),
        initial=init,
        transitions=(np.broadcast_to(trans_row, (2, 2, 2)).copy(),),
        observations=tuple(np.broadcast_to(obs_row, (2, 2, 2)).copy() for _ in range(2)),
        obs_reference=(np.array([0.5, 0.5]),) * 2,
        state_reference=(np.array([0.5, 0.5]),),
        stage_costs=(np.zeros((2, 2)),) * 2,
        terminal_cost=np.zeros(2),
        info=(((), ()),),
    )
    law = joint_measure_original(m, uniform_profile(m))
    for x1 in range(2):
        for y1 in range(2):
            for x2 in range(2):
                for y2 in range(2):
                    want = init[x1] * obs_row[y1] * trans_row[x2] * obs_row[y2]
                    got = law[((x1, x2), (y1, y2), (0, 0))]
                    assert got == pytest.approx(want, rel=1e-14)


def test_joint_law_is_a_probability_measure():
    m = random_model(3, horizon=2, num_states=3, obs_sizes=(2,), action_sizes=(3,))
    law = joint_measure_original(m, uniform_profile(m))
    assert abs(math.fsum(law.values()) - 1.0) < 1e-13
    assert all(p >= 0.0 for p in law.values())


def test_trajectory_cap_is_enforced():
    m = random_model(0, horizon=8, num_states=4, obs_sizes=(4,), action_sizes=(2,))
    with pytest.raises(ConfigurationError, match="trajectories"):
        joint_measure_original(m, uniform_profile(m))


def test_trajectory_cap_is_enforced_on_every_enumeration():
    m = random_model(0, horizon=8, num_states=3, obs_sizes=(3,), action_sizes=(1,))
    profile = uniform_profile(m)
    for check in (expected_cost, payoff_equivalence, verify_martingale):
        with pytest.raises(ConfigurationError, match="43046721 trajectories"):
            check(m, profile)
    with pytest.raises(ConfigurationError, match="43046721 trajectories"):
        brute_force_pbp(m)


# ---------------------------------------------------------------------------
# likelihood-ratio paths
# ---------------------------------------------------------------------------

def test_ratio_is_identically_one_when_laws_equal_references():
    phi = np.array([0.3, 0.7])
    psi = np.array([0.6, 0.4])
    m = FiniteTeamModel(
        horizon=2,
        num_states=2,
        obs_sizes=(2,),
        action_sizes=(2,),
        initial=np.array([0.5, 0.5]),
        transitions=(np.broadcast_to(psi, (2, 2, 2)).copy(),),
        observations=tuple(np.broadcast_to(phi, (2, 2, 2)).copy() for _ in range(2)),
        obs_reference=(phi.copy(),) * 2,
        state_reference=(psi.copy(),),
        stage_costs=(np.zeros((2, 2)),) * 2,
        terminal_cost=np.zeros(2),
        info=(((), ()),),
    )
    profile = uniform_profile(m)
    for states in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for obs in [(0, 0), (1, 1), (0, 1)]:
            path = rnd_process(m, profile, states, obs)
            assert np.array_equal(path.thetas, np.ones(2))
            assert np.array_equal(path.lambda_path, np.ones(2))
            assert np.array_equal(path.martingale_path, np.ones(2))


def test_deterministic_kernels_with_uniform_references():
    m = identity_model()
    profile = uniform_profile(m)
    # on-support path: state stays, observation echoes it
    path = rnd_process(m, profile, (1, 1), (1, 1))
    # each deterministic observation against a half-half reference doubles
    # the ratio, and the deterministic transition doubles it again
    assert path.lambda_path.tolist() == [2.0, 4.0]
    assert path.martingale_path.tolist() == [1.0, 2.0]
    assert path.thetas.tolist() == [2.0, 8.0]
    # off-support path: the trajectory is impossible, so the ratio dies
    dead = rnd_process(m, profile, (0, 1), (0, 1))
    assert dead.thetas[-1] == 0.0


def test_first_martingale_factor_is_one_by_convention():
    m = random_model(9, horizon=3, num_states=2)
    profile = uniform_profile(m)
    path = rnd_process(m, profile, (0, 1, 0), (1, 0, 1))
    assert path.martingale_path[0] == 1.0
    assert np.all(path.thetas >= 0.0)
    assert np.all(np.isfinite(path.thetas))


def test_path_length_is_checked():
    m = identity_model()
    with pytest.raises(ConfigurationError, match="length"):
        rnd_process(m, uniform_profile(m), (0,), (0, 0))


@pytest.mark.parametrize(
    "states, observations",
    [
        ((-1, 1), (1, 1)),  # a negative index would wrap to the last state
        ((5, 1), (1, 1)),
        ((0, 2), (1, 1)),
        ((0, 1), (-1, 1)),
        ((0, 1), (1, 2)),
        ((0.0, 1), (1, 1)),
        ((0, 1), (1, 0.5)),
        ((0, "1"), (1, 1)),
        ((0, 1), (np.float64(1.0), 1)),
    ],
)
def test_path_indices_are_checked(states, observations):
    m = identity_model()
    with pytest.raises(ConfigurationError, match="(state|observation)s must"):
        rnd_process(m, uniform_profile(m), states, observations)


def test_integer_like_path_indices_are_accepted():
    m = identity_model()
    path = rnd_process(m, uniform_profile(m), np.array([1, 1]), (np.int8(1), 1))
    assert path.thetas.tolist() == [2.0, 8.0]


# ---------------------------------------------------------------------------
# martingale identities
# ---------------------------------------------------------------------------

def test_dyadic_model_verifies_exactly():
    m = identity_model()
    report = verify_martingale(m, uniform_profile(m))
    assert report.unit_mean_error == 0.0
    assert report.conditional_error == 0.0
    assert report.passed


def test_random_models_verify_to_machine_precision():
    for seed in (0, 1, 2, 7, 19):
        m = random_model(seed, horizon=3, num_states=2)
        report = verify_martingale(m, uniform_profile(m))
        assert report.passed, f"seed {seed}: {report}"
        assert report.unit_mean_error <= 1e-12
        assert report.conditional_error <= 1e-12


def test_corrupted_transition_mass_is_detected():
    m = random_model(5, horizon=2, num_states=2)
    # bypass construction-time validation to plant leaked probability mass
    object.__setattr__(m, "transitions", (m.transitions[0] * 0.9,))
    report = verify_martingale(m, uniform_profile(m))
    assert not report.passed
    assert report.unit_mean_error > 0.05


def test_corrupted_observation_mass_is_detected():
    m = random_model(5, horizon=2, num_states=2)
    object.__setattr__(m, "observations", (m.observations[0] * 1.1, m.observations[1]))
    report = verify_martingale(m, uniform_profile(m))
    assert not report.passed


# ---------------------------------------------------------------------------
# payoff equivalence and expected cost
# ---------------------------------------------------------------------------

def test_dyadic_costs_transfer_exactly():
    m = identity_model()
    report = payoff_equivalence(m, uniform_profile(m))
    assert report.difference == 0.0
    assert report.passed
    assert report.original == 1.0


def test_random_costs_transfer_to_machine_precision():
    for seed in (0, 4, 8):
        m = random_model(seed, horizon=3, num_states=2, obs_sizes=(2,), action_sizes=(2,))
        report = payoff_equivalence(m, uniform_profile(m))
        assert report.passed, f"seed {seed}: {report}"
        assert report.difference <= 1e-12


def test_zero_costs_give_zero_both_ways():
    m = _trivial_model()
    report = payoff_equivalence(m, uniform_profile(m))
    assert report.original == 0.0 and report.via_reference == 0.0


def test_expected_cost_of_the_bundled_example():
    m = identity_model()
    assert expected_cost(m, uniform_profile(m)) == 1.0
    optimal = StrategyProfile(maps=((np.array(0), np.array([0, 1])),))
    assert expected_cost(m, optimal) == 0.5


def test_cross_station_action_information_is_routed():
    # station 1 copies station 0's earlier action, read through the info
    # pattern; the joint action packs station 0 in the slow digit
    e2 = np.zeros((1, 4, 4))
    e2[:, :, 2] = 1.0
    m = FiniteTeamModel(
        horizon=2,
        num_states=1,
        obs_sizes=(2, 2),
        action_sizes=(2, 2),
        initial=[1.0],
        transitions=(np.ones((1, 4, 1)),),
        observations=(e2, e2),
        obs_reference=(np.full(4, 0.25),) * 2,
        state_reference=([1.0],),
        stage_costs=(np.zeros((1, 4)),) * 2,
        terminal_cost=np.zeros(1),
        info=(
            ((), ()),
            ((), (("u", 0, 0),)),
        ),
    )
    profile = StrategyProfile(
        maps=(
            (np.array(1), np.array(0)),
            (np.array(0), np.array([0, 1])),
        )
    )
    law = joint_measure_original(m, profile)
    support = [(key, p) for key, p in law.items() if p > 0.0]
    assert len(support) == 1
    (states, obs, actions), prob = support[0]
    assert prob == 1.0
    first_joint, second_joint = actions
    assert first_joint == 1 * 2 + 0
    assert second_joint == 0 * 2 + 1


# ---------------------------------------------------------------------------
# brute-force optimality
# ---------------------------------------------------------------------------

def test_brute_force_on_the_bundled_example():
    report = brute_force_pbp(identity_model())
    assert report.num_profiles == 8
    assert report.best_cost == 0.5
    assert report.num_global_optima == 1
    assert report.worst_deviation_gain == -0.25
    assert report.pbp_holds
    best = report.best_profile.maps[0]
    assert best[0] == np.array(0)
    assert best[1].tolist() == [0, 1]


def test_constant_cost_makes_every_profile_optimal():
    m = _trivial_model(stage_costs=(np.full((1, 2), 3.0),), terminal_cost=np.array([1.0]))
    report = brute_force_pbp(m)
    assert report.best_cost == 4.0
    assert report.num_global_optima == report.num_profiles == 2
    assert report.worst_deviation_gain == 0.0
    assert report.pbp_holds


def test_global_optima_are_person_by_person_optimal_in_teams():
    for seed in (1, 2, 3):
        m = random_model(seed, horizon=2, num_states=2, obs_sizes=(2, 2), action_sizes=(2, 2))
        report = brute_force_pbp(m)
        assert report.pbp_holds, f"seed {seed}: gain {report.worst_deviation_gain}"


def test_profile_cap_is_enforced():
    m = _trivial_model(
        horizon=2,
        obs_sizes=(27,),
        action_sizes=(3,),
        observations=(np.full((1, 3, 27), 1.0 / 27.0),) * 2,
        obs_reference=(np.full(27, 1.0 / 27.0),) * 2,
        transitions=(np.ones((1, 3, 1)),),
        state_reference=([1.0],),
        stage_costs=(np.zeros((1, 3)),) * 2,
        info=(((), (("y", 0, 0),)),),
    )
    assert profile_count(m) == 3 ** 28
    with pytest.raises(ConfigurationError, match="profiles"):
        brute_force_pbp(m)


# ---------------------------------------------------------------------------
# serialization and generators
# ---------------------------------------------------------------------------

def test_model_round_trips_through_plain_json():
    m = random_model(11, horizon=2, num_states=2, obs_sizes=(2,), action_sizes=(2,))
    data = model_to_dict(m)
    rebuilt = model_from_dict(json.loads(json.dumps(data)))
    assert model_to_dict(rebuilt) == data


def test_the_plain_representation_holds_every_model_field_in_order():
    m = identity_model()
    data = model_to_dict(m)
    assert list(data) == [f.name for f in dataclasses.fields(FiniteTeamModel)]
    assert data["info"] == [[[], [["y", 0, 0]]]]
    assert data["transitions"] == [m.transitions[0].tolist()]
    assert json.loads(json.dumps(data)) == data


def test_missing_fields_are_named():
    data = model_to_dict(identity_model())
    del data["transitions"]
    del data["info"]
    with pytest.raises(ConfigurationError, match="transitions.*info|info.*transitions"):
        model_from_dict(data)


def test_non_object_documents_are_rejected():
    with pytest.raises(ConfigurationError, match="object"):
        model_from_dict([1, 2, 3])


def test_malformed_info_is_reported():
    data = model_to_dict(identity_model())
    data["info"] = [[[], [["y", 0]]]]
    with pytest.raises(ConfigurationError, match="info"):
        model_from_dict(data)


def test_load_model_reports_syntax_position(tmp_path):
    good = tmp_path / "model.json"
    good.write_text(json.dumps(model_to_dict(identity_model())))
    assert expected_cost(load_model(good), uniform_profile(identity_model())) == 1.0
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "horizon": 2,\n  "oops"\n}')
    with pytest.raises(ConfigurationError, match=r"line \d+ column \d+"):
        load_model(bad)


def test_random_model_is_seed_deterministic():
    first = model_to_dict(random_model(21, horizon=2))
    second = model_to_dict(random_model(21, horizon=2))
    assert first == second
    assert first != model_to_dict(random_model(22, horizon=2))
