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
of index arrays, and the maps a station can use in a period once, as the
rows of one table per (station, period); a profile picks one row of each.
Profiles are scored in blocks against the path table: actions follow period
by period from each station's information, vectorised over the block, each
one gather from a map table; probabilities multiply in path order, each
factor S_t or Q_t one gather from a flattened kernel; each (state path,
action path) sums its costs once, in one table over every such path when
that table is no larger than a block and per block otherwise; and each
profile's expected cost is the sum of its row of probability * path cost.
Every path cost and every reported expected cost is math.fsum's, bit for
bit.  Brute force ranks the profiles by plain row sums with an error bound
and takes fsum only of the profiles its report reads.  Every product is the
one a recursion over the trajectory tree forms, so the costs do not depend
on the block size.  The reference probabilities and Lambda, M and Theta are
multiplied in one place, _likelihood_ratios, on the rows of a table:
payoff_equivalence weights the costs with them, rnd_process reads them off
a one-row table, and verify_martingale sums them over the rows that share a
path prefix.  Every enumeration refuses more than 1e7 trajectories.
"""

from __future__ import annotations

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
# (profile, trajectory) cells scored at once by the brute-force sweep; a
# float block array holds 8 * _BLOCK_CELLS bytes (128 KiB) at most, however
# many profiles a model has, and a 50 x 324 block of a 1,024-profile model
# with 324 trajectories holds 129,600 bytes.
_BLOCK_CELLS = 1 << 14
# Path codes are renumbered densely before they could pass this bound.
_CODE_LIMIT = 2**62
# The unit roundoff u and the smallest subnormal float.
_UNIT = 2.0**-53
_TINIEST = math.ulp(0.0)

InfoItem = tuple[str, int, int]


def _exact_row_sums(x: np.ndarray) -> np.ndarray:
    """math.fsum of every row of a 2-D float array, raising what fsum raises:
    each row's correctly rounded sum, whatever the order of its cells."""
    # row by row: a whole block's Python floats would raise the peak RSS
    return np.fromiter((math.fsum(row.tolist()) for row in x), float, len(x))


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

def _integer(value: object, name: str) -> int:
    """value as an int; refuses booleans, strings and non-integral numbers."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, (float, np.floating)) and float(value).is_integer():
                return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _check_stochastic(name: str, arr: np.ndarray) -> None:
    # NaN passes both comparisons below, so it is refused first.
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} has non-finite entries")
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

        def item(entry: object, where: str) -> InfoItem:
            kind, s, m = entry
            return str(kind), _integer(s, f"{where} period"), _integer(m, f"{where} station")

        try:
            info = tuple(
                tuple(
                    tuple(item(entry, f"info[{j}][{t}] item") for entry in items)
                    for t, items in enumerate(station)
                )
                for j, station in enumerate(self.info)
            )
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed info pattern: {exc}") from exc
        object.__setattr__(self, "info", info)
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon"))
        object.__setattr__(self, "num_states", _integer(self.num_states, "num_states"))
        for name in ("obs_sizes", "action_sizes"):
            sizes = tuple(_integer(s, f"{name} entry") for s in getattr(self, name))
            object.__setattr__(self, name, sizes)
        object.__setattr__(self, "initial", freeze(self.initial))
        for name in ("transitions", "observations", "obs_reference", "state_reference",
                     "stage_costs"):
            object.__setattr__(self, name, tuple(freeze(a) for a in getattr(self, name)))
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
    if not 0 <= action < min(model.action_sizes):
        raise ConfigurationError("action index out of range for some station")
    return StrategyProfile(maps=tuple(
        tuple(np.full(model.info_shape(j, t), action, dtype=int) for t in range(model.horizon))
        for j in range(model.stations)
    ))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

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
    count = (model.num_states * model.total_obs) ** model.horizon
    if count > _MAX_TRAJECTORIES:
        raise ConfigurationError(
            f"model enumerates {count} trajectories, above the {_MAX_TRAJECTORIES} cap"
        )
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


def _map_counts(model: FiniteTeamModel) -> list[int]:
    """Number of maps station j can use in period t, per (j, t) in station-major
    order: a map picks one of na_j actions for each value of the information."""
    return [
        na ** math.prod(model.info_shape(j, t))
        for j, na in enumerate(model.action_sizes)
        for t in range(model.horizon)
    ]


def _map_tables(model: FiniteTeamModel) -> list[list[np.ndarray]]:
    """tables[j][t][i] is the i-th map station j can use in period t, flattened.

    Rows run in itertools.product order (the last configuration varies
    fastest).  Each table is C-contiguous, so the flat view _block_actions
    gathers from is not a copy.
    """
    return [
        [
            np.indices((na,) * configs).reshape(configs, -1).T.copy()
            for configs in (math.prod(model.info_shape(j, t)) for t in range(model.horizon))
        ]
        for j, na in enumerate(model.action_sizes)
    ]


def _block_actions(
    model: FiniteTeamModel,
    table: _TrajectoryTable,
    maps: list[list[np.ndarray]],
    choices: Sequence[Sequence[np.ndarray]],
) -> list[np.ndarray]:
    """Joint actions of a block of profiles on every trajectory.

    maps[j][t] holds station j's period-t maps, one flattened map per row
    (see _map_tables), and choices[j][t][b] is the row profile b of the
    block uses.  Returns, per period, a read-only array of shape (profiles,
    trajectories), broadcast from a narrower one when no station's action
    depends on the trajectory.  Each station's action is one gather from
    the flat view of its (station, period) table.
    """
    cells = (choices[0][0].size, table.size)
    station_actions: list[list[np.ndarray]] = [[] for _ in range(model.stations)]
    joint = []
    for t in range(model.horizon):
        for j in range(model.stations):
            key = 0
            for kind, s, m in model.info[j][t]:
                if kind == "y":
                    key = key * model.obs_sizes[m] + table.obs_parts[m][:, s]
                else:
                    key = key * model.action_sizes[m] + station_actions[m][s]
            rows = maps[j][t]
            a = np.take(rows.reshape(-1), choices[j][t][:, None] * rows.shape[1] + key)
            station_actions[j].append(a)
            u = a if j == 0 else u * model.action_sizes[j] + a
        joint.append(np.broadcast_to(u, cells))
    return joint


def _profile_actions(
    model: FiniteTeamModel, table: _TrajectoryTable, profile: StrategyProfile
) -> list[np.ndarray]:
    """_block_actions of a block that holds one profile: one row per period."""
    maps = [[m.reshape(1, -1) for m in station] for station in profile.maps]
    first = [np.zeros(1, dtype=np.intp)] * model.horizon
    return _block_actions(model, table, maps, [first] * model.stations)


def _gather(kernel: np.ndarray, x: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """kernel[x, u, z] by one gather from the raveled kernel, at a per-path
    base plus action * stride; u may hold one row per profile of a block."""
    _, na, nz = kernel.shape
    index = u * nz
    index += x * (na * nz) + z
    return np.take(kernel.reshape(-1), index)


def _block_probabilities(
    model: FiniteTeamModel, table: _TrajectoryTable, actions: list[np.ndarray]
) -> np.ndarray:
    """Original-measure probability of every (profile, trajectory) cell.

    Factors multiply in path order, (p * S_t) * Q_t, as a recursion over
    the trajectory tree would.
    """
    x, y = table.states, table.observations
    p = model.initial[x[:, 0]]
    for t in range(model.horizon):
        if t > 0:
            p = p * _gather(model.transitions[t - 1], x[:, t - 1], actions[t - 1], x[:, t])
        p = p * _gather(model.observations[t], x[:, t], actions[t], y[:, t])
    return p


def _cost_sums(model: FiniteTeamModel, states: Sequence, actions: Sequence) -> np.ndarray:
    """fsum of the stage costs and the terminal cost along each path, whose
    period-t state and joint action are states[t] and actions[t]."""
    columns = [model.stage_costs[t][states[t], actions[t]] for t in range(model.horizon)]
    columns.append(model.terminal_cost[states[-1]])
    return _exact_row_sums(np.stack(columns, axis=1))


def _code_costs(model: FiniteTeamModel) -> np.ndarray | None:
    """_cost_sums of every path code.

    A path code is the mixed-radix number of a (state path, action path)
    pair over (x_0, u_0, x_1, u_1, ...), as _path_costs forms it.  The table
    is built, once per scoring call, only when the code space
    (num_states * total_actions)^horizon is at most _BLOCK_CELLS, so it is
    never larger than one block of cells; otherwise returns None.  fsum is
    correctly rounded, so an entry has the bits of the same sum taken per
    block.  Also returns None when some code's sum overflows: per block, only
    a cell on that path raises.
    """
    n = model.horizon
    if (model.num_states * model.total_actions) ** n > _BLOCK_CELLS:
        return None
    paths = np.indices((model.num_states, model.total_actions) * n).reshape(2 * n, -1)
    try:
        return _cost_sums(model, paths[0::2], paths[1::2])
    except OverflowError:
        return None


def _path_costs(
    model: FiniteTeamModel,
    table: _TrajectoryTable,
    actions: list[np.ndarray],
    code_costs: np.ndarray | None,
) -> np.ndarray:
    """_cost_sums of every cell's (state path, action path).

    The sum depends only on the cell's path code.  With code_costs (see
    _code_costs) the cells read their sums from it.  Without it (a code
    space too large to tabulate, or a sum that overflows), each distinct code
    of the block is summed once; the codes are renumbered densely before
    they could pass _CODE_LIMIT.  Either way a path cost is finite or
    raises OverflowError.
    """
    x = table.states
    width = model.num_states * model.total_actions
    # in place: every block array freed is one glibc may trim and the next
    # block page-faults back
    code = x[:, 0] * model.total_actions + actions[0]
    shape = code.shape
    bound = width
    for t in range(1, model.horizon):
        if code_costs is None and bound * width > _CODE_LIMIT:
            _, inverse = np.unique(code.ravel(), return_inverse=True)
            code = inverse.reshape(shape)
            bound = int(inverse.max()) + 1
        code *= width
        code += x[:, t] * model.total_actions
        code += actions[t]
        bound *= width
    if code_costs is not None:
        return code_costs[code]
    _, first, inverse = np.unique(code.ravel(), return_index=True, return_inverse=True)
    b, i = np.unravel_index(first, shape)
    return _cost_sums(model, x[i].T, [u[b, i] for u in actions])[inverse].reshape(shape)


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
    actions = _profile_actions(model, table, profile)
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
            s = _gather(model.transitions[t - 1], x[:, t - 1], actions[t - 1], x[:, t])
            mart = mart * (s / r)
            p_ref = p_ref * r
        p_ref = p_ref * phi
        lam = lam * (_gather(model.observations[t], x[:, t], actions[t], y[:, t]) / phi)
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
    actions = [u[0] for u in _profile_actions(model, table, profile)]
    _, _, lam, mart, theta = np.array(list(_likelihood_ratios(model, table, actions)))[..., 0].T
    return RadonNikodymPath(lambda_path=lam, martingale_path=mart, thetas=theta)


# ---------------------------------------------------------------------------
# the identities
# ---------------------------------------------------------------------------

def _check_tol(tol: float) -> None:
    """Refuse a tolerance outside [0, inf), as the command line does."""
    if not 0.0 <= tol < math.inf:
        raise ConfigurationError(f"tol must be positive or zero, got {tol!r}")


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
    Refuses a tol outside [0, inf).
    """
    _check_tol(tol)
    validate_profile(model, profile)
    table = _trajectory_table(model)
    width = model.num_states * model.total_obs
    unit_mean_error = conditional_error = 0.0
    parent = np.ones(1)
    actions = [u[0] for u in _profile_actions(model, table, profile)]
    for t, (p_ref, step, _, _, theta) in enumerate(_likelihood_ratios(model, table, actions)):
        rows = slice(None, None, width ** (model.horizon - 1 - t))
        theta = theta[rows]
        unit_mean = math.fsum((p_ref[rows] * theta).tolist())
        unit_mean_error = max(unit_mean_error, abs(unit_mean - 1.0))
        sums = _exact_row_sums((step[rows] * theta).reshape(parent.size, -1))
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
    """Check that Theta-weighting the reference measure reproduces the cost;
    refuses a tol outside [0, inf)."""
    _check_tol(tol)
    validate_profile(model, profile)
    table = _trajectory_table(model)
    block = _profile_actions(model, table, profile)
    original = math.fsum(_profile_cells(model, table, block, _code_costs(model))[0].tolist())

    x = table.states
    actions = [u[0] for u in block]
    weighted = []
    for t, (p_ref, _, _, _, theta) in enumerate(_likelihood_ratios(model, table, actions)):
        weighted.append(model.stage_costs[t][x[:, t], actions[t]] * theta)
    weighted.append(model.terminal_cost[x[:, -1]] * theta)
    sums = _exact_row_sums(np.stack(weighted, axis=1))
    via_reference = math.fsum((p_ref * sums).tolist())
    difference = abs(original - via_reference)
    return PayoffEquivalenceReport(
        original=original,
        via_reference=via_reference,
        difference=difference,
        passed=bool(difference <= tol),
        tol=tol,
    )


def _profile_cells(
    model: FiniteTeamModel,
    table: _TrajectoryTable,
    actions: list[np.ndarray],
    code_costs: np.ndarray | None,
) -> np.ndarray:
    """probability * path cost of every (profile, trajectory) cell of a
    block, given its joint actions (see _block_actions); a profile's exact
    expected cost is the fsum of its row.  A path cost is finite or raises,
    so a cell of zero probability adds a signed zero, which changes no fsum
    (fsum keeps no zero term: fsum([-0.0]) is +0.0).
    """
    probabilities = _block_probabilities(model, table, actions)
    return probabilities * _path_costs(model, table, actions, code_costs)


def expected_cost(model: FiniteTeamModel, profile: StrategyProfile) -> float:
    """Exact expected total cost of a profile under the original measure."""
    validate_profile(model, profile)
    table = _trajectory_table(model)
    actions = _profile_actions(model, table, profile)
    return math.fsum(_profile_cells(model, table, actions, _code_costs(model))[0].tolist())


# ---------------------------------------------------------------------------
# brute-force optimality
# ---------------------------------------------------------------------------

def _block_cells(model: FiniteTeamModel, index: np.ndarray, tables: tuple) -> Iterator[np.ndarray]:
    """The cells (see _profile_cells) of the profiles with the given
    indices, _BLOCK_CELLS at a time, from the model's trajectory table,
    _map_tables and _code_costs.  Profiles are numbered in mixed-radix order
    over their rows of the (station, period) map tables.  Path costs come
    from the code-cost table when the code space fits in a block, and from
    each block's own distinct codes otherwise; both give the same bits.
    """
    table, maps, code_costs = tables
    counts = _map_counts(model)
    block = max(1, _BLOCK_CELLS // table.size)
    n = model.horizon
    for start in range(0, len(index), block):
        digits = np.unravel_index(index[start : start + block], counts)
        choices = [digits[j * n : (j + 1) * n] for j in range(model.stations)]
        actions = _block_actions(model, table, maps, choices)
        yield _profile_cells(model, table, actions, code_costs)


def _all_profile_costs(model: FiniteTeamModel, tables: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Every profile's plain row sum of cells, in the order of _block_cells,
    and a bound on its distance from the exact sum.

    - In any order, each of a row's w cells c goes through at most w - 1
      roundings, so the row sum is within gamma_{w-1} sum |c| of the exact
      sum, gamma_j = j u / (1 - j u) and u = 2^-53 (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed. 2002, 4.2).  The computed
      sum of magnitudes S is at least (1 - gamma_{w-1}) sum |c|, so the
      distance is at most 2 w u S while w u <= 1/4; the bound, fl(4 w u S)
      + 2^-1074, covers that product's own rounding and underflow.
    - Rounding is monotone, so a profile's exact cost F, the fsum of its
      cells, lies between fl(sum - bound) and fl(sum + bound), and the least
      cost m between the least lower end L and the least upper end H.  For
      tol >= 0 the report's threshold fl(m + fl(tol max(1, |m|))) is then
      at most fl(H + fl(tol max(1, -L, H))).
    - On a station's axis line, the least cost among the profiles other
      than any one is at most the line's second least upper end.
    """
    sums, bounds = np.empty((2, profile_count(model)))
    start = 0
    for cells in _block_cells(model, np.arange(len(sums)), tables):
        stop = start + len(cells)
        cells.sum(axis=1, out=sums[start:stop])
        np.abs(cells, out=cells).sum(axis=1, out=bounds[start:stop])
        start = stop
    # every block has one column per trajectory
    bounds *= 4.0 * cells.shape[1] * _UNIT
    bounds += _TINIEST
    return sums, bounds


def profile_count(model: FiniteTeamModel) -> int:
    """Number of deterministic strategy profiles of the model."""
    return math.prod(_map_counts(model))


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

    Every profile is ranked by the plain row sum of its cells and an error
    bound (see _all_profile_costs).  The profiles the report can read are
    then scored in one more blocked pass, each the fsum of its cells,
    bit-identical to expected_cost, and every reported number comes from
    those exact costs.  Profiles run in itertools.product order over the
    stations' strategy indices; the first profile of least cost is
    best_profile, its maps read off the tables both passes read.  Refuses a
    tol outside [0, inf), models with more than 1e6 profiles or 1e7
    trajectories, and costs that can overflow a path sum.
    """
    _check_tol(tol)
    total = profile_count(model)
    if total > _MAX_PROFILES:
        raise ConfigurationError(
            f"model has {total} strategy profiles, above the {_MAX_PROFILES} cap"
        )
    try:
        # No path's fsum overflows while the largest costs have a finite fsum.
        math.fsum(float(np.max(np.abs(c))) for c in (*model.stage_costs, model.terminal_cost))
    except OverflowError:
        raise ConfigurationError(
            "the model's costs can sum past the float range on a path: its largest stage "
            f"and terminal costs in absolute value sum beyond {np.finfo(float).max:.6g}"
        ) from None
    counts, n = _map_counts(model), model.horizon
    # one axis per station: a deviation replaces a station's maps at all periods
    shape = [math.prod(counts[j : j + n]) for j in range(0, len(counts), n)]
    tables = _trajectory_table(model), _map_tables(model), _code_costs(model)
    sums, bounds = (a.reshape(shape) for a in _all_profile_costs(model, tables))
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = sums - bounds, sums + bounds
    # Score exactly every profile that may be the least cost, lie within tol
    # of it, or be a deviation's least cost (see _all_profile_costs); every
    # profile when a sum or bound has left the float range.
    wanted = np.ones(shape, dtype=bool)
    if np.isfinite(lower).all() and np.isfinite(upper).all():
        least = float(upper.min())
        near = lower <= least + tol * max(1.0, -float(lower.min()), least)
        wanted = near.copy()
        for j, size in enumerate(shape):
            k = min(1, size - 1)
            second = np.take(np.partition(upper, k, axis=j), [k], axis=j)
            wanted |= near.any(axis=j, keepdims=True) & (lower <= second)
    index = np.flatnonzero(wanted)
    # a profile not scored exactly is no optimum and no least deviation
    costs = np.full(shape, math.inf)
    costs.flat[index] = np.concatenate([*map(_exact_row_sums, _block_cells(model, index, tables))])
    best = int(np.argmin(costs))
    best_cost = float(costs.flat[best])
    best_rows = iter(np.unravel_index(best, counts))
    scale = max(1.0, abs(best_cost))
    global_keys = np.argwhere(costs <= best_cost + tol * scale)

    worst_gain = -math.inf
    for key in map(tuple, global_keys.tolist()):
        for j in range(model.stations):
            # station j's deviations: its axis line through key, key's own entry deleted
            line = np.delete(costs[key[:j] + (slice(None),) + key[j + 1 :]], key[j])
            worst_gain = max(worst_gain, float(np.max(costs[key] - line, initial=-math.inf)))
    if worst_gain == -math.inf:
        worst_gain = 0.0
    return BruteForceReport(
        best_cost=best_cost,
        best_profile=StrategyProfile(
            maps=tuple(
                tuple(rows[next(best_rows)].reshape(model.info_shape(j, t))
                      for t, rows in enumerate(station))
                for j, station in enumerate(tables[1])
            )
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


def _parse_model_document(text: str, name: str) -> object:
    """The JSON value of a model document; refuses bad syntax (by line and
    column) and a document nested too deeply to parse."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"model {name}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigurationError(f"model {name}: invalid JSON: nested too deeply") from None


def load_model(path: str | Path) -> FiniteTeamModel:
    """Load and validate a model JSON file.

    Syntax errors are reported by line and column, and structural errors
    name the offending field.
    """
    return model_from_dict(_parse_model_document(Path(path).read_text(), str(path)))


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
