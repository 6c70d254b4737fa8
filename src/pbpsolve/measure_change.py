"""Exact change-of-measure identities on finite decentralized team models.

A model has a finite state space, a horizon n, and K stations, each with a
finite observation and action alphabet.  In period t (0-based internally):
the state is realized (x_0 ~ initial law; x_t ~ S_t(. | x_{t-1}, u_{t-1})
afterwards), every station picks an action from its information -- a fixed
causal pattern of strictly earlier observations and actions -- and then the
joint observation y_t ~ Q_t(. | x_t, u_t) is drawn.

The reference measure keeps the initial state law and the strategies but
draws every later state from a fixed full-support law Psi_t and every
observation from a fixed full-support law Phi_t, so states and observations
become primitive randomness decoupled from the actions.  The likelihood
ratio process (1-based time):

    Theta_t = Lambda_t M_t,
    Lambda_t = prod_{s<=t} Q_s(y_s | x_s, u_s) / Phi_s(y_s),
    M_1 = 1,   M_t = prod_{s=2..t} S_s(x_s | x_{s-1}, u_{s-1}) / Psi_s(x_s),

restores the original measure: E_ref[Theta_t] = 1 for every t and profile,
Theta is a reference-filtration martingale, and every expected cost equals
its Theta-weighted reference expectation.  Because the models are finite,
the module verifies these identities by exhaustive enumeration with
compensated (fsum) accumulation, i.e. to near machine precision rather than
statistically.  It also brute-forces globally optimal and person-by-person
optimal profiles (a person-by-person deviation replaces one station's maps
at all periods) to confirm that global optima are person-by-person optimal.

The (state, observation) paths of a model are enumerated once, as a table
of index arrays.  Profiles are scored in blocks against that table: actions
follow period by period from each station's information, vectorised over
the block; probabilities multiply in path order; each distinct (state path,
action path) sums its costs once with fsum; and each profile's total is an
fsum over its trajectories of nonzero probability.  Every product is the
one a recursion over the trajectory tree forms, so the costs do not depend
on the block size.  The reference probabilities and Lambda, M and Theta
are multiplied in one place, _likelihood_ratios, on the rows of a table:
payoff_equivalence weights the costs with them, rnd_process reads them off
a one-row table, and verify_martingale sums them over the rows that share
a path prefix.  Every enumeration refuses models with more than 1e7
trajectories.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError

_ROW_TOL = 1e-12
_MAX_TRAJECTORIES = 10_000_000
_MAX_PROFILES = 1_000_000
# (profile, trajectory) cells scored at once by the brute-force sweep; the
# block arrays stay near 1 MB however many profiles a model has.
_BLOCK_CELLS = 1 << 14
# Path codes are renumbered densely before they could pass this bound.
_CODE_LIMIT = 2**62

InfoItem = tuple[str, int, int]


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

def _check_stochastic(name: str, arr: np.ndarray) -> None:
    if np.any(arr < 0.0):
        raise ConfigurationError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > _ROW_TOL:
        raise ConfigurationError(
            f"{name} rows must sum to 1 within {_ROW_TOL} "
            f"(worst deviation {float(np.max(np.abs(sums - 1.0))):.3e})"
        )


@dataclass(frozen=True)
class FiniteTeamModel:
    """Explicit finite team control model with reference laws and costs.

    horizon: number of periods n >= 1.
    num_states: size of the state space.
    obs_sizes / action_sizes: per-station alphabet sizes (equal length K).
    initial: state law of period 1, length num_states.
    transitions: n-1 kernels, transitions[t-1][x][u][x'] for period t+1
        (u is the joint action index; stations are mixed-radix packed in
        station order).
    observations: n kernels, observations[t][x][u][y] (y joint index).
    obs_reference: n full-support laws Phi over joint observations.
    state_reference: n-1 full-support laws Psi over states (periods 2..n).
    stage_costs: n arrays cost[t][x][u]; terminal_cost: array over states.
    info: info[j][t] is the tuple of items station j reads in period t;
        an item ("y", s, m) or ("u", s, m) names station m's observation or
        action of period s, with s < t (0-based; strictly causal).
    """

    horizon: int
    num_states: int
    obs_sizes: tuple[int, ...]
    action_sizes: tuple[int, ...]
    initial: np.ndarray
    transitions: tuple[np.ndarray, ...]
    observations: tuple[np.ndarray, ...]
    obs_reference: tuple[np.ndarray, ...]
    state_reference: tuple[np.ndarray, ...]
    stage_costs: tuple[np.ndarray, ...]
    terminal_cost: np.ndarray
    info: tuple[tuple[tuple[InfoItem, ...], ...], ...]

    def __post_init__(self) -> None:
        def freeze(a: object) -> np.ndarray:
            arr = np.array(a, dtype=float)
            arr.flags.writeable = False
            return arr

        try:
            info = tuple(
                tuple(tuple((str(k), int(s), int(m)) for k, s, m in items) for items in station)
                for station in self.info
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed info pattern: {exc}") from exc
        object.__setattr__(self, "info", info)
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "num_states", int(self.num_states))
        object.__setattr__(self, "obs_sizes", tuple(int(s) for s in self.obs_sizes))
        object.__setattr__(self, "action_sizes", tuple(int(s) for s in self.action_sizes))
        object.__setattr__(self, "initial", freeze(self.initial))
        object.__setattr__(self, "transitions", tuple(freeze(a) for a in self.transitions))
        object.__setattr__(self, "observations", tuple(freeze(a) for a in self.observations))
        object.__setattr__(self, "obs_reference", tuple(freeze(a) for a in self.obs_reference))
        object.__setattr__(self, "state_reference", tuple(freeze(a) for a in self.state_reference))
        object.__setattr__(self, "stage_costs", tuple(freeze(a) for a in self.stage_costs))
        object.__setattr__(self, "terminal_cost", freeze(self.terminal_cost))

        n = self.horizon
        if n < 1:
            raise ConfigurationError("horizon must be >= 1")
        if self.num_states < 1:
            raise ConfigurationError("num_states must be >= 1")
        if len(self.obs_sizes) != len(self.action_sizes) or not self.obs_sizes:
            raise ConfigurationError(
                "obs_sizes and action_sizes must be nonempty and equally long"
            )
        if min(self.obs_sizes) < 1 or min(self.action_sizes) < 1:
            raise ConfigurationError("alphabet sizes must be >= 1")

        na, no, nx = self.total_actions, self.total_obs, self.num_states
        if self.initial.shape != (nx,):
            raise ConfigurationError("initial law must have length num_states")
        _check_stochastic("initial law", self.initial[None, :])
        if len(self.transitions) != n - 1:
            raise ConfigurationError("need horizon-1 transition kernels")
        for t, kernel in enumerate(self.transitions):
            if kernel.shape != (nx, na, nx):
                raise ConfigurationError(
                    f"transition kernel {t} must have shape (states, actions, states)"
                )
            _check_stochastic(f"transition kernel {t}", kernel)
        if len(self.observations) != n:
            raise ConfigurationError("need horizon observation kernels")
        for t, kernel in enumerate(self.observations):
            if kernel.shape != (nx, na, no):
                raise ConfigurationError(
                    f"observation kernel {t} must have shape (states, actions, observations)"
                )
            _check_stochastic(f"observation kernel {t}", kernel)
        if len(self.obs_reference) != n:
            raise ConfigurationError("need horizon observation reference laws")
        for t, law in enumerate(self.obs_reference):
            if law.shape != (no,):
                raise ConfigurationError(f"observation reference {t} has wrong length")
            if np.any(law <= 0.0):
                raise ConfigurationError(f"observation reference {t} must have full support")
            _check_stochastic(f"observation reference {t}", law[None, :])
        if len(self.state_reference) != n - 1:
            raise ConfigurationError("need horizon-1 state reference laws")
        for t, law in enumerate(self.state_reference):
            if law.shape != (nx,):
                raise ConfigurationError(f"state reference {t} has wrong length")
            if np.any(law <= 0.0):
                raise ConfigurationError(f"state reference {t} must have full support")
            _check_stochastic(f"state reference {t}", law[None, :])
        if len(self.stage_costs) != n:
            raise ConfigurationError("need horizon stage cost arrays")
        for t, cost in enumerate(self.stage_costs):
            if cost.shape != (nx, na):
                raise ConfigurationError(f"stage cost {t} must have shape (states, actions)")
            if not np.all(np.isfinite(cost)):
                raise ConfigurationError(f"stage cost {t} must be finite")
        if self.terminal_cost.shape != (nx,):
            raise ConfigurationError("terminal cost must have length num_states")
        if not np.all(np.isfinite(self.terminal_cost)):
            raise ConfigurationError("terminal cost must be finite")

        if len(self.info) != self.stations:
            raise ConfigurationError("need one info pattern per station")
        for j, station in enumerate(self.info):
            if len(station) != n:
                raise ConfigurationError(f"station {j} needs one info tuple per period")
            for t, items in enumerate(station):
                for kind, s, m in items:
                    if kind not in ("y", "u"):
                        raise ConfigurationError(
                            f"station {j} period {t}: item kind must be 'y' or 'u', got {kind!r}"
                        )
                    if not 0 <= s < t:
                        raise ConfigurationError(
                            f"station {j} period {t}: item ({kind!r}, {s}, {m}) is not "
                            "strictly causal (need 0 <= s < t)"
                        )
                    if not 0 <= m < self.stations:
                        raise ConfigurationError(
                            f"station {j} period {t}: station index {m} out of range"
                        )

    @property
    def stations(self) -> int:
        return len(self.obs_sizes)

    @property
    def total_actions(self) -> int:
        return math.prod(self.action_sizes)

    @property
    def total_obs(self) -> int:
        return math.prod(self.obs_sizes)

    def info_shape(self, station: int, period: int) -> tuple[int, ...]:
        """Alphabet sizes of the info items read by a station in a period."""
        sizes = []
        for kind, _, m in self.info[station][period]:
            sizes.append(self.obs_sizes[m] if kind == "y" else self.action_sizes[m])
        return tuple(sizes)


@dataclass(frozen=True)
class StrategyProfile:
    """Deterministic maps from information to actions for every station.

    maps[j][t] is an integer array whose axes are the info items of station
    j in period t (a 0-d array when the info is empty); entries are action
    indices of station j.
    """

    maps: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        frozen = []
        for station in self.maps:
            rows = []
            for arr in station:
                a = np.array(arr, dtype=int)
                a.flags.writeable = False
                rows.append(a)
            frozen.append(tuple(rows))
        object.__setattr__(self, "maps", tuple(frozen))


def validate_profile(model: FiniteTeamModel, profile: StrategyProfile) -> None:
    """Raise ConfigurationError unless the profile fits the model."""
    if len(profile.maps) != model.stations:
        raise ConfigurationError("profile must have one map sequence per station")
    for j, station in enumerate(profile.maps):
        if len(station) != model.horizon:
            raise ConfigurationError(f"station {j} must have one map per period")
        for t, arr in enumerate(station):
            shape = model.info_shape(j, t)
            if arr.shape != shape:
                raise ConfigurationError(
                    f"station {j} period {t}: map shape {arr.shape} does not match "
                    f"info shape {shape}"
                )
            if arr.size and (arr.min() < 0 or arr.max() >= model.action_sizes[j]):
                raise ConfigurationError(
                    f"station {j} period {t}: action indices out of range"
                )


def uniform_profile(model: FiniteTeamModel, action: int = 0) -> StrategyProfile:
    """The profile in which every station always plays the given action index."""
    maps = []
    for j in range(model.stations):
        if not 0 <= action < model.action_sizes[j]:
            raise ConfigurationError("action index out of range for some station")
        maps.append(
            tuple(
                np.full(model.info_shape(j, t), action, dtype=int)
                for t in range(model.horizon)
            )
        )
    return StrategyProfile(maps=tuple(maps))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _check_trajectory_cap(model: FiniteTeamModel) -> None:
    count = (model.num_states * model.total_obs) ** model.horizon
    if count > _MAX_TRAJECTORIES:
        raise ConfigurationError(
            f"model enumerates {count} trajectories, above the {_MAX_TRAJECTORIES} cap"
        )


@dataclass(frozen=True)
class _TrajectoryTable:
    """Every (state, observation) path of a model, one row per trajectory.

    Rows run lexicographically over (x_0, y_0, x_1, y_1, ...) and skip the
    initial states of zero probability, which are null under both measures.
    states[:, t] and observations[:, t] hold the period-t state and joint
    observation; obs_parts[m][:, t] is station m's observation component.
    """

    states: np.ndarray
    observations: np.ndarray
    obs_parts: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return self.states.shape[0]


def _trajectory_table(model: FiniteTeamModel) -> _TrajectoryTable:
    """Enumerate the model's trajectories once; refuses more than 1e7."""
    _check_trajectory_cap(model)
    n = model.horizon
    starts = np.flatnonzero(model.initial != 0.0)
    shape = (starts.size, model.total_obs) + (model.num_states, model.total_obs) * (n - 1)
    paths = np.indices(shape).reshape(2 * n, -1)
    states = paths[0::2].T.copy()
    states[:, 0] = starts[states[:, 0]]
    return _paths_table(model, states, paths[1::2].T.copy())


def _paths_table(
    model: FiniteTeamModel, states: np.ndarray, observations: np.ndarray
) -> _TrajectoryTable:
    """Table of the given (rows, horizon) state and joint-observation paths."""
    parts = []
    rest = observations
    for size in reversed(model.obs_sizes):
        parts.append(rest % size)
        rest = rest // size
    return _TrajectoryTable(states, observations, tuple(reversed(parts)))


def _stacked_maps(
    spaces: Sequence[Sequence[tuple[np.ndarray, ...]]],
) -> list[list[np.ndarray]]:
    """stacks[j][t][i] is station j's strategy i for period t, flattened."""
    return [
        [np.stack([strategy[t].reshape(-1) for strategy in space]) for t in range(len(space[0]))]
        for space in spaces
    ]


def _block_actions(
    model: FiniteTeamModel,
    table: _TrajectoryTable,
    stacks: list[list[np.ndarray]],
    choices: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Joint actions of a block of profiles on every trajectory.

    choices[j][b] is station j's strategy index in profile b of the block.
    Returns, per period, an array of shape (profiles, trajectories).
    """
    cells = (choices[0].size, table.size)
    station_actions: list[list[np.ndarray]] = [[] for _ in range(model.stations)]
    joint = []
    for t in range(model.horizon):
        u = 0
        for j in range(model.stations):
            key = 0
            for kind, s, m in model.info[j][t]:
                if kind == "y":
                    key = key * model.obs_sizes[m] + table.obs_parts[m][:, s]
                else:
                    key = key * model.action_sizes[m] + station_actions[m][s]
            a = np.broadcast_to(stacks[j][t][choices[j][:, None], key], cells)
            station_actions[j].append(a)
            u = u * model.action_sizes[j] + a
        joint.append(u)
    return joint


def _block_probabilities(
    model: FiniteTeamModel, table: _TrajectoryTable, actions: list[np.ndarray]
) -> np.ndarray:
    """Original-measure probability of every (profile, trajectory) cell.

    Factors multiply in path order, (p * P(x_t)) * Q(y_t), as a recursion
    over the trajectory tree would.
    """
    x, y = table.states, table.observations
    p = model.initial[x[:, 0]]
    for t in range(model.horizon):
        if t > 0:
            p = p * model.transitions[t - 1][x[:, t - 1], actions[t - 1], x[:, t]]
        p = p * model.observations[t][x[:, t], actions[t], y[:, t]]
    return p


def _path_costs(
    model: FiniteTeamModel, table: _TrajectoryTable, actions: list[np.ndarray]
) -> np.ndarray:
    """fsum of the stage costs and the terminal cost of every cell.

    The sum depends only on the (state path, action path) pair, so each
    distinct pair is summed once.
    """
    x = table.states
    shape = actions[0].shape
    width = model.num_states * model.total_actions
    code = np.zeros(shape, dtype=np.int64)
    bound = 1
    for t in range(model.horizon):
        if bound * width > _CODE_LIMIT:
            _, inverse = np.unique(code.ravel(), return_inverse=True)
            code = inverse.reshape(shape)
            bound = int(inverse.max()) + 1
        code = code * width + (x[:, t] * model.total_actions + actions[t])
        bound *= width
    _, first, inverse = np.unique(code.ravel(), return_index=True, return_inverse=True)
    b, i = np.unravel_index(first, shape)
    columns = [model.stage_costs[t][x[i, t], actions[t][b, i]] for t in range(model.horizon)]
    columns.append(model.terminal_cost[x[i, -1]])
    sums = np.array([math.fsum(row) for row in np.stack(columns, axis=1).tolist()])
    return sums[inverse].reshape(shape)


def _single_block(
    profile: StrategyProfile,
) -> tuple[list[list[np.ndarray]], list[np.ndarray]]:
    """Stacked maps and strategy choices of a block holding one profile."""
    stacks = _stacked_maps([[maps] for maps in profile.maps])
    return stacks, [np.zeros(1, dtype=np.intp)] * len(stacks)


def joint_measure_original(
    model: FiniteTeamModel, profile: StrategyProfile
) -> dict[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], float]:
    """Exhaustive original-measure trajectory law.

    Maps (states, observations, actions) to probability; entries that are
    null under both measures are omitted.  Refuses models with more than
    1e7 trajectories.
    """
    validate_profile(model, profile)
    table = _trajectory_table(model)
    actions = _block_actions(model, table, *_single_block(profile))
    probabilities = _block_probabilities(model, table, actions)[0]
    return {
        (tuple(states), tuple(obs), tuple(acts)): p
        for states, obs, acts, p in zip(
            table.states.tolist(),
            table.observations.tolist(),
            np.stack([u[0] for u in actions], axis=1).tolist(),
            probabilities.tolist(),
        )
    }


def _likelihood_ratios(
    model: FiniteTeamModel, table: _TrajectoryTable, actions: Sequence[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Reference probabilities and Lambda, M and Theta along every table row.

    actions[t] is one profile's period-t joint action on every row.  Yields,
    for periods t = 0, 1, ... in turn, arrays over the rows:
    (p_ref, step, lam, mart, theta) = (reference probability of the
    length-(t+1) path prefix, its last factor r phi with r the initial law
    at t = 0 and Psi_t after, Lambda_{t+1}, M_{t+1}, Theta_{t+1}).  Factors
    multiply as lam (q / phi), mart (P / Psi) and (p_ref r) phi, each step
    elementwise, so a row has the same bits in any table that holds it.
    """
    x, y = table.states, table.observations
    r = p_ref = model.initial[x[:, 0]]
    lam = mart = np.ones(table.size)
    for t in range(model.horizon):
        phi = model.obs_reference[t][y[:, t]]
        if t > 0:
            r = model.state_reference[t - 1][x[:, t]]
            mart = mart * (model.transitions[t - 1][x[:, t - 1], actions[t - 1], x[:, t]] / r)
            p_ref = p_ref * r
        p_ref = p_ref * phi
        lam = lam * (model.observations[t][x[:, t], actions[t], y[:, t]] / phi)
        yield p_ref, r * phi, lam, mart, lam * mart


def _path_indices(values: Sequence[int], size: int, name: str) -> list[int]:
    try:
        indices = [operator.index(v) for v in values]
    except TypeError:
        raise ConfigurationError(f"{name}s must be integer indices") from None
    if not all(0 <= i < size for i in indices):
        raise ConfigurationError(f"{name}s must lie in [0, {size}), got {indices}")
    return indices


@dataclass(frozen=True)
class RadonNikodymPath:
    """Likelihood-ratio factors along one trajectory (1-based time in docs).

    lambda_path[t] is Lambda_{t+1}, martingale_path[t] is M_{t+1} (so
    martingale_path[0] == 1 always), thetas[t] their product.
    """

    lambda_path: np.ndarray
    martingale_path: np.ndarray
    thetas: np.ndarray


def rnd_process(
    model: FiniteTeamModel,
    profile: StrategyProfile,
    states: Sequence[int],
    observations: Sequence[int],
) -> RadonNikodymPath:
    """Likelihood-ratio path for one realized trajectory.

    Actions are reconstructed from the profile.  The first martingale factor
    is 1 by convention: the initial state law is shared by both measures, so
    the state ratio only starts at period 2.  Every state must lie in
    [0, num_states) and every joint observation in [0, total_obs).
    """
    validate_profile(model, profile)
    if not len(states) == len(observations) == model.horizon:
        raise ConfigurationError("states and observations must have length horizon")
    table = _paths_table(
        model,
        np.array([_path_indices(states, model.num_states, "state")]),
        np.array([_path_indices(observations, model.total_obs, "observation")]),
    )
    actions = [u[0] for u in _block_actions(model, table, *_single_block(profile))]
    _, _, lam, mart, theta = np.array(list(_likelihood_ratios(model, table, actions)))[..., 0].T
    return RadonNikodymPath(lambda_path=lam, martingale_path=mart, thetas=theta)


# ---------------------------------------------------------------------------
# the identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleReport:
    """Exact verification of the likelihood-ratio martingale identities.

    unit_mean_error: worst |E_ref[Theta_t] - 1| over t.
    conditional_error: worst |E_ref[Theta_{t+1} | history] - Theta_t| over
    every positive-reference-probability history of every length.
    """

    unit_mean_error: float
    conditional_error: float
    passed: bool
    tol: float


def verify_martingale(
    model: FiniteTeamModel, profile: StrategyProfile, tol: float = 1e-12
) -> MartingaleReport:
    """Check E_ref[Theta_t] = 1 and the conditional martingale property.

    The table is lexicographic over (x_0, y_0, x_1, y_1, ...), so its rows
    [::(states * observations)^(n-1-t)] hold each length-(t+1) path prefix
    once, with the children of each shorter prefix consecutive.  Both
    checks are fsums over those rows: of p_ref Theta_t, and per parent of
    (r phi) Theta_t, against the parent's Theta (1 for the empty prefix).
    """
    validate_profile(model, profile)
    table = _trajectory_table(model)
    width = model.num_states * model.total_obs
    unit_mean_error = conditional_error = 0.0
    parent = np.ones(1)
    actions = [u[0] for u in _block_actions(model, table, *_single_block(profile))]
    for t, (p_ref, step, _, _, theta) in enumerate(_likelihood_ratios(model, table, actions)):
        rows = slice(None, None, width ** (model.horizon - 1 - t))
        theta = theta[rows]
        unit_mean = math.fsum((p_ref[rows] * theta).tolist())
        unit_mean_error = max(unit_mean_error, abs(unit_mean - 1.0))
        children = (step[rows] * theta).reshape(parent.size, -1).tolist()
        sums = np.array([math.fsum(row) for row in children])
        conditional_error = max(conditional_error, float(np.max(np.abs(sums - parent))))
        parent = theta
    return MartingaleReport(
        unit_mean_error=unit_mean_error,
        conditional_error=conditional_error,
        passed=bool(unit_mean_error <= tol and conditional_error <= tol),
        tol=tol,
    )


@dataclass(frozen=True)
class PayoffEquivalenceReport:
    """Expected cost computed under both measures.

    original: E[sum_t cost_t + terminal] under the strategy-induced measure.
    via_reference: sum_t E_ref[cost_t Theta_t] + E_ref[terminal Theta_n].
    """

    original: float
    via_reference: float
    difference: float
    passed: bool
    tol: float


def payoff_equivalence(
    model: FiniteTeamModel, profile: StrategyProfile, tol: float = 1e-12
) -> PayoffEquivalenceReport:
    """Check that Theta-weighting the reference measure reproduces the cost."""
    validate_profile(model, profile)
    table = _trajectory_table(model)
    block = _block_actions(model, table, *_single_block(profile))
    probabilities = _block_probabilities(model, table, block)[0]
    original = math.fsum((probabilities * _path_costs(model, table, block)[0]).tolist())

    x = table.states
    weighted = []
    ratios = _likelihood_ratios(model, table, [u[0] for u in block])
    for t, (p_ref, _, _, _, theta) in enumerate(ratios):
        weighted.append(model.stage_costs[t][x[:, t], block[t][0]] * theta)
    weighted.append(model.terminal_cost[x[:, -1]] * theta)
    sums = np.array([math.fsum(row) for row in np.stack(weighted, axis=1).tolist()])
    via_reference = math.fsum((p_ref * sums).tolist())
    difference = abs(original - via_reference)
    return PayoffEquivalenceReport(
        original=original,
        via_reference=via_reference,
        difference=difference,
        passed=bool(difference <= tol),
        tol=tol,
    )


def _profile_costs(
    model: FiniteTeamModel,
    table: _TrajectoryTable,
    stacks: list[list[np.ndarray]],
    choices: Sequence[np.ndarray],
) -> list[float]:
    """Exact expected cost of each profile of a block.

    Each total is the fsum of probability * path cost over the cells of
    nonzero probability.
    """
    actions = _block_actions(model, table, stacks, choices)
    probabilities = _block_probabilities(model, table, actions)
    terms = probabilities * _path_costs(model, table, actions)
    return [
        math.fsum(row[keep].tolist()) for row, keep in zip(terms, probabilities != 0.0)
    ]


def expected_cost(model: FiniteTeamModel, profile: StrategyProfile) -> float:
    """Exact expected total cost of a profile under the original measure."""
    validate_profile(model, profile)
    return _profile_costs(model, _trajectory_table(model), *_single_block(profile))[0]


# ---------------------------------------------------------------------------
# brute-force optimality
# ---------------------------------------------------------------------------

def _station_strategy_space(
    model: FiniteTeamModel, station: int
) -> list[tuple[np.ndarray, ...]]:
    per_period = []
    for t in range(model.horizon):
        shape = model.info_shape(station, t)
        configs = math.prod(shape)
        arrays = [
            np.asarray(assignment, dtype=int).reshape(shape)
            for assignment in itertools.product(
                range(model.action_sizes[station]), repeat=configs
            )
        ]
        per_period.append(arrays)
    return [tuple(choice) for choice in itertools.product(*per_period)]


def _all_profile_costs(
    model: FiniteTeamModel, spaces: Sequence[Sequence[tuple[np.ndarray, ...]]]
) -> list[float]:
    """Expected cost of every profile, in itertools.product order of the
    station strategy indices, scored _BLOCK_CELLS table cells at a time."""
    table = _trajectory_table(model)
    stacks = _stacked_maps(spaces)
    sizes = [len(space) for space in spaces]
    total = math.prod(sizes)
    block = max(1, _BLOCK_CELLS // table.size)
    costs: list[float] = []
    for start in range(0, total, block):
        choices = np.unravel_index(np.arange(start, min(start + block, total)), sizes)
        costs += _profile_costs(model, table, stacks, choices)
    return costs


def profile_count(model: FiniteTeamModel) -> int:
    """Number of deterministic strategy profiles of the model."""
    total = 1
    for j in range(model.stations):
        for t in range(model.horizon):
            total *= model.action_sizes[j] ** math.prod(model.info_shape(j, t))
    return total


@dataclass(frozen=True)
class BruteForceReport:
    """Global optimum and the person-by-person optimality check.

    best_cost is the global minimum over all profiles; best_profile attains
    it.  For every profile within tol of the optimum, every single-station
    deviation (one station's maps replaced at all periods) was enumerated;
    worst_deviation_gain is the largest cost reduction any such deviation
    achieved (nonpositive up to roundoff when global optima are
    person-by-person optimal).
    """

    best_cost: float
    best_profile: StrategyProfile
    num_profiles: int
    num_global_optima: int
    worst_deviation_gain: float
    pbp_holds: bool
    tol: float


def brute_force_pbp(model: FiniteTeamModel, tol: float = 1e-12) -> BruteForceReport:
    """Exhaustively confirm that global optima are person-by-person optimal.

    Every profile is scored, in blocks of _BLOCK_CELLS table cells, against
    one table of the model's trajectories; the costs are bit-identical to
    scoring each profile alone with expected_cost.  Profiles are ordered as
    itertools.product over the stations' strategy indices, and the first
    profile of least cost is best_profile.  Refuses models with more than
    1e6 profiles or 1e7 trajectories.
    """
    total = profile_count(model)
    if total > _MAX_PROFILES:
        raise ConfigurationError(
            f"model has {total} strategy profiles, above the {_MAX_PROFILES} cap"
        )
    spaces = [_station_strategy_space(model, j) for j in range(model.stations)]
    keys = itertools.product(*(range(len(s)) for s in spaces))
    costs = dict(zip(keys, _all_profile_costs(model, spaces)))
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
    return BruteForceReport(
        best_cost=best_cost,
        best_profile=StrategyProfile(
            maps=tuple(spaces[j][best_key[j]] for j in range(model.stations))
        ),
        num_profiles=total,
        num_global_optima=len(global_keys),
        worst_deviation_gain=worst_gain,
        pbp_holds=bool(worst_gain <= tol * scale),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# serialization and generators
# ---------------------------------------------------------------------------

def _plain(value: object) -> object:
    """A field value as plain JSON: arrays and tuples become lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def model_to_dict(model: FiniteTeamModel) -> dict:
    """Plain-JSON representation (lists; info items as [kind, s, m], 0-based)."""
    return {f.name: _plain(getattr(model, f.name)) for f in fields(FiniteTeamModel)}


def model_from_dict(data: dict) -> FiniteTeamModel:
    """Build and validate a model from its plain-JSON representation."""
    if not isinstance(data, dict):
        raise ConfigurationError("model document must be a JSON object")
    names = [f.name for f in fields(FiniteTeamModel)]
    missing = [name for name in names if name not in data]
    if missing:
        raise ConfigurationError(f"model document is missing fields: {', '.join(missing)}")
    try:
        return FiniteTeamModel(**{name: data[name] for name in names})
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"malformed model document: {exc}") from exc


def load_model(path: str | Path) -> FiniteTeamModel:
    """Load and validate a model JSON file.

    Syntax errors are reported with their line and column; structural errors
    name the offending field.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: JSON syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return model_from_dict(data)


def _random_rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    raw = rng.random(shape) + 0.1
    return raw / raw.sum(axis=-1, keepdims=True)


def random_model(
    seed: int,
    horizon: int = 2,
    num_states: int = 2,
    obs_sizes: Sequence[int] = (2,),
    action_sizes: Sequence[int] = (2,),
    max_info_items: int = 2,
) -> FiniteTeamModel:
    """Seeded random model with full-support kernels and causal random info.

    Every kernel row is a normalized positive random vector; each station's
    period-t information is a random subset (of size at most max_info_items)
    of all stations' strictly earlier observations and actions.
    """
    rng = np.random.default_rng(seed)
    obs_sizes = tuple(int(s) for s in obs_sizes)
    action_sizes = tuple(int(s) for s in action_sizes)
    stations = len(obs_sizes)
    na = math.prod(action_sizes)
    no = math.prod(obs_sizes)
    nx = num_states

    info = []
    for _ in range(stations):
        station = []
        for t in range(horizon):
            candidates = [
                (kind, s, m)
                for kind in ("y", "u")
                for s in range(t)
                for m in range(stations)
            ]
            if candidates and max_info_items > 0:
                size = int(rng.integers(0, min(max_info_items, len(candidates)) + 1))
                chosen = sorted(
                    rng.choice(len(candidates), size=size, replace=False).tolist()
                )
                station.append(tuple(candidates[i] for i in chosen))
            else:
                station.append(())
        info.append(tuple(station))

    return FiniteTeamModel(
        horizon=horizon,
        num_states=nx,
        obs_sizes=obs_sizes,
        action_sizes=action_sizes,
        initial=_random_rows(rng, (nx,)),
        transitions=tuple(_random_rows(rng, (nx, na, nx)) for _ in range(horizon - 1)),
        observations=tuple(_random_rows(rng, (nx, na, no)) for _ in range(horizon)),
        obs_reference=tuple(_random_rows(rng, (no,)) for _ in range(horizon)),
        state_reference=tuple(_random_rows(rng, (nx,)) for _ in range(horizon - 1)),
        stage_costs=tuple(rng.random((nx, na)) for _ in range(horizon)),
        terminal_cost=rng.random(nx),
        info=tuple(info),
    )


def identity_model() -> FiniteTeamModel:
    """A small hand-checkable model with deterministic dynamics.

    Two states, one station with binary observations and actions, horizon 2.
    The observation reveals the state exactly; the period-1 action flips the
    state (x_2 = x_1 XOR u_1) at a price of 1/4; the period-2 action tries
    to match the state (cost 1 on mismatch); the terminal cost charges
    state 1; references are uniform.  The unique optimum is u_1 = 0 and
    u_2 = y_1 (report the observed state), with expected cost 1/2.
    """
    eye = np.eye(2)
    flip = np.empty((2, 2, 2))
    for x in range(2):
        for u in range(2):
            flip[x, u] = eye[x ^ u]
    observe = np.empty((2, 2, 2))
    for x in range(2):
        for u in range(2):
            observe[x, u] = eye[x]
    uniform = np.array([0.5, 0.5])
    flip_price = np.array([[0.0, 0.25], [0.0, 0.25]])
    mismatch = np.array([[0.0, 1.0], [1.0, 0.0]])
    return FiniteTeamModel(
        horizon=2,
        num_states=2,
        obs_sizes=(2,),
        action_sizes=(2,),
        initial=uniform,
        transitions=(flip,),
        observations=(observe, observe),
        obs_reference=(uniform, uniform),
        state_reference=(uniform,),
        stage_costs=(flip_price, mismatch),
        terminal_cost=np.array([0.0, 1.0]),
        info=(((), (("y", 0, 0),)),),
    )
