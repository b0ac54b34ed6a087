"""Event-sequence generators: Ogata-style thinning and the immigrant-birth tree.

Both simulate on [-warmup, horizon] and discard pre-zero events from the output
while keeping their excitation (thinning) or their in-window descendants
(branching), approximating a process started in the stationary regime.
Excitation memory decays like exp(-(1-alpha)t), so the default warmup of
20/(1-alpha) leaves residual bias below exp(-20).

Both generators are pure functions of (params, horizon, seed, warmup): safe to
call concurrently, one derived RNG per task. branching_counts bins the
branching generator's draws directly, for callers that keep only the counts.
"""
from __future__ import annotations

import math

import numpy as np

from .counts import CountSeries, bin_times
from .errors import ConfigError
from .events import EventSequence
from .hawkes import HawkesParams
from .rng import as_generator

# Largest expected event count (warmup included) a simulation may produce: a
# run peaks at about 150 bytes per event, so 2e7 events take about 3 GB.
MAX_EXPECTED_EVENTS = 2e7

# Uniforms thinning draws per Generator call. Each candidate takes a (gap,
# accept) pair, and the size is even, so a pair never straddles two blocks.
UNIFORM_BLOCK = 1 << 14


def default_warmup(alpha: float) -> float:
    return 20.0 / (1.0 - alpha)


def _check_sim_args(params: HawkesParams, horizon: float, warmup: float | None) -> float:
    """The warmup to simulate with, once the arguments are checked."""
    if not 0 < horizon < math.inf:
        raise ConfigError(f"horizon must be positive and finite, got {horizon}")
    if warmup is None:
        warmup = default_warmup(params.alpha)
    elif not 0 <= warmup < math.inf:
        raise ConfigError(f"warmup must be nonnegative and finite, got {warmup}")
    expected = params.stationary_rate * (horizon + warmup)
    if not expected <= MAX_EXPECTED_EVENTS:
        raise ConfigError(f"expected {expected:.3g} events, more than the "
                          f"{MAX_EXPECTED_EVENTS:.3g} a simulation may hold in memory")
    return warmup


def simulate_thinning(params: HawkesParams, horizon: float,
                      seed: int | np.random.Generator,
                      warmup: float | None = None) -> EventSequence:
    """Thinning against the running intensity; unlabeled output.

    The excitation state is decayed exactly between candidate points, so each
    step costs O(1) instead of a full history sum. Uniforms come in blocks of
    UNIFORM_BLOCK, walked as Python floats in (gap, accept) pairs; the last
    candidate takes only its gap.
    """
    warmup = _check_sim_args(params, horizon, warmup)
    rng = as_generator(seed)
    mu, alpha = params.mu, params.alpha

    out: list[float] = []
    t = -warmup
    s = 0.0  # sum of alpha * exp(-(t - t_i)) over accepted events
    while True:
        pairs = iter(rng.random(UNIFORM_BLOCK).tolist())
        for u_gap, u_accept in zip(pairs, pairs):
            lam_bar = mu + s
            gap = -math.log(1.0 - u_gap) / lam_bar
            t_new = t + gap
            if t_new > horizon:
                return EventSequence(np.asarray(out, dtype=np.float64), horizon)
            s *= math.exp(-gap)
            if u_accept * lam_bar <= mu + s:
                if t_new >= 0.0:
                    out.append(t_new)
                s += alpha
            t = t_new


def _generations(params: HawkesParams, horizon: float, rng: np.random.Generator,
                 warmup: float, with_parents: bool):
    """The branching sampler's draws, one generation at a time.

    Yields each generation's event times on [-warmup, horizon], immigrants
    first (sorted), and with each child its parent's index in the previous
    generation (None for the immigrants, or everywhere when with_parents is
    false). This loop alone fixes the order of the RNG draws, so every caller
    sees the same events for the same seed.

    n parents draw a Poisson(alpha * n) total, then each child's parent
    uniformly, then the delays: n iid Poisson(alpha) counts are that total
    spread as a uniform multinomial. Parents are sorted so children stay in
    parent order, which keeps simulate_branching's stable argsort fast.
    """
    start = -warmup
    span = horizon - start
    n_imm = int(rng.poisson(params.mu * span))
    times = start + span * rng.random(n_imm)
    times.sort()
    yield times, None
    while times.size:
        tot = int(rng.poisson(params.alpha * times.size))
        if tot == 0:
            return
        parent = np.sort(rng.integers(0, times.size, tot))
        times = times[parent] + rng.exponential(1.0, tot)
        keep = times <= horizon
        times = times[keep]
        yield times, parent[keep] if with_parents else None


def simulate_branching(params: HawkesParams, horizon: float,
                       seed: int | np.random.Generator,
                       warmup: float | None = None) -> EventSequence:
    """Immigrant-birth sampler with tree labels.

    Immigrants arrive as a Poisson process of rate mu; every event spawns a
    Poisson(alpha) number of children at exponential(1) forward delays.
    Children past the horizon are dropped (their descendants would fall even
    later, so truncation is exact for the observation window).
    """
    warmup = _check_sim_args(params, horizon, warmup)
    times_parts: list[np.ndarray] = []
    tree_parts: list[np.ndarray] = []
    parent_parts: list[np.ndarray] = []
    total = 0
    for times, parent in _generations(params, horizon, as_generator(seed), warmup, True):
        if parent is None:  # immigrants: each roots its own tree
            tree_parts.append(np.arange(times.size, dtype=np.int64))
            parent_parts.append(np.full(times.size, -1, dtype=np.int64))
        else:
            tree_parts.append(tree_parts[-1][parent])
            parent_parts.append(total - times_parts[-1].size + parent)
        times_parts.append(times)
        total += times.size

    times = np.concatenate(times_parts)
    tree = np.concatenate(tree_parts)
    parent = np.concatenate(parent_parts)

    kept = np.flatnonzero(times >= 0.0)
    order = np.argsort(times[kept], kind="stable")
    out_idx = kept[order]
    pos = np.full(total, -1, dtype=np.int64)
    pos[out_idx] = np.arange(out_idx.size)
    pg = parent[out_idx]
    out_parent = np.where(pg >= 0, pos[np.maximum(pg, 0)], -1)
    return EventSequence(times[out_idx], horizon, tree[out_idx], out_parent)


def branching_counts(params: HawkesParams, horizon: float,
                     seed: int | np.random.Generator, delta: float,
                     warmup: float | None = None) -> CountSeries:
    """bin_events(simulate_branching(params, horizon, seed, warmup), delta),
    bit for bit, without building the labeled sequence.

    It makes the same draws and bins each generation as it is drawn: no tree
    labels, no sort, no EventSequence. It refuses the same arguments with the
    same errors.
    """
    warmup = _check_sim_args(params, horizon, warmup)
    gens = _generations(params, horizon, as_generator(seed), warmup, False)
    return bin_times((times for times, _ in gens), horizon, delta)
