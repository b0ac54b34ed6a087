"""Event-sequence generators: Ogata-style thinning and the immigrant-birth tree.

Both simulate on [-warmup, horizon] and discard pre-zero events from the output
while keeping their excitation (thinning) or their in-window descendants
(branching), approximating a process started in the stationary regime.
Excitation memory decays like exp(-(1-alpha)t), so the default warmup of
20/(1-alpha) leaves residual bias below exp(-20).

Both generators are pure functions of (params, horizon, seed, warmup): safe to
call concurrently, one derived RNG per task.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .events import EventSequence
from .hawkes import HawkesParams
from .rng import UniformBuffer, as_generator

# Largest expected event count (warmup included) a simulation may produce: a
# run peaks at about 150 bytes per event, so 2e7 events take about 3 GB.
MAX_EXPECTED_EVENTS = 2e7


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
    step costs O(1) instead of a full history sum.
    """
    warmup = _check_sim_args(params, horizon, warmup)
    rng = as_generator(seed)
    buf = UniformBuffer(rng)
    mu, alpha = params.mu, params.alpha

    out: list[float] = []
    t = -warmup
    s = 0.0  # sum of alpha * exp(-(t - t_i)) over accepted events
    while True:
        lam_bar = mu + s
        gap = -math.log(1.0 - buf.next()) / lam_bar
        t_new = t + gap
        if t_new > horizon:
            break
        s *= math.exp(-gap)
        if buf.next() * lam_bar <= mu + s:
            if t_new >= 0.0:
                out.append(t_new)
            s += alpha
        t = t_new
    return EventSequence(np.asarray(out, dtype=np.float64), horizon)


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
    rng = as_generator(seed)
    start = -warmup
    span = horizon - start

    n_imm = int(rng.poisson(params.mu * span))
    imm_times = start + span * rng.random(n_imm)
    imm_times.sort()

    times_parts = [imm_times]
    tree_parts = [np.arange(n_imm, dtype=np.int64)]
    parent_parts = [np.full(n_imm, -1, dtype=np.int64)]

    gen_times = imm_times
    gen_tree = tree_parts[0]
    parent_offset = 0
    total = n_imm
    while gen_times.size:
        n_children = rng.poisson(params.alpha, gen_times.size)
        tot = int(n_children.sum())
        if tot == 0:
            break
        parent_local = np.repeat(np.arange(gen_times.size), n_children)
        child_times = gen_times[parent_local] + rng.exponential(1.0, tot)
        keep = child_times <= horizon
        child_times = child_times[keep]
        parent_local = parent_local[keep]
        times_parts.append(child_times)
        tree_parts.append(gen_tree[parent_local])
        parent_parts.append(parent_offset + parent_local)
        parent_offset = total
        total += child_times.size
        gen_times = child_times
        gen_tree = tree_parts[-1]

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
