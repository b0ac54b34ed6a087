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
from array import array
from operator import itemgetter

import numpy as np

from .counts import CountSeries, bin_times
from .errors import ConfigError
from .events import EventSequence
from .hawkes import HawkesParams
from .rng import as_generator

# Largest expected event count (warmup included) a simulation may produce: a
# run peaks at about 48 bytes per event (README), so 2e7 events take about 1 GB.
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
    candidate takes only its gap. Each block's gap logs, log(1 - u), are taken
    in one map over its gap uniforms: the same doubles as one call per candidate.
    """
    warmup = _check_sim_args(params, horizon, warmup)
    rng = as_generator(seed)
    mu, alpha = params.mu, params.alpha

    out = array("d")  # 8 bytes per event, not a list's ~32
    append, exp = out.append, math.exp
    t = -warmup
    s = 0.0  # sum of alpha * exp(-(t - t_i)) over accepted events
    while True:
        u = rng.random(UNIFORM_BLOCK)
        for lg, u_accept in zip(map(math.log, (1.0 - u[0::2]).tolist()), u[1::2].tolist()):
            lam_bar = mu + s
            gap = -lg / lam_bar
            t_new = t + gap
            if t_new > horizon:
                return EventSequence(np.asarray(out, dtype=np.float64), horizon)
            s *= exp(-gap)
            if u_accept * lam_bar <= mu + s:
                if t_new >= 0.0:
                    append(t_new)
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
    parent order, which keeps simulate_branching's stable argsort fast. Each
    step works in place and holds no generation but the one it draws from.
    """
    start = -warmup
    span = horizon - start
    n_imm = int(rng.poisson(params.mu * span))
    times = rng.random(n_imm)
    times *= span
    times += start
    times.sort()
    yield times, None
    while times.size:
        tot = int(rng.poisson(params.alpha * times.size))
        if tot == 0:
            return
        parent = rng.integers(0, times.size, tot, dtype=np.int32)  # int64's values and draws
        parent.sort()
        times = times[parent]
        times += rng.exponential(1.0, tot)
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
    times, tree, parent = _labeled_events(params, horizon, as_generator(seed), warmup)
    return EventSequence(times, horizon, tree, parent)


def _labeled_events(params: HawkesParams, horizon: float, rng: np.random.Generator,
                    warmup: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """simulate_branching's times, tree ids and parent indices. Each array is
    rebound once its successor is built; the rest die before validation."""
    times, tree, parent = [], [], []  # one part per generation, then joined
    total = 0
    for gen, gen_parent in _generations(params, horizon, rng, warmup, True):
        if gen_parent is None:  # immigrants: each roots its own tree
            tree.append(np.arange(gen.size, dtype=np.int64))
            parent.append(np.full(gen.size, -1, dtype=np.int64))
        else:
            tree.append(tree[-1][gen_parent])
            # int64 offsets: an int32 array plus a Python int stays int32
            parent.append(np.add(gen_parent, total - times[-1].size, dtype=np.int64))
        times.append(gen)
        total += gen.size
    times = np.concatenate(times)  # rebinding frees the parts
    tree = np.concatenate(tree)
    parent = np.concatenate(parent)

    # The events at or after 0 in stable time order: the pre-zero ones sort first.
    order = np.argsort(times, kind="stable")[np.count_nonzero(times < 0.0):]
    times = times[order]
    tree = tree[order]
    parent = parent[order]
    pos = np.full(total + 1, -1, dtype=np.int64)  # pos[-1] = -1 maps "no parent"
    pos[order] = np.arange(order.size)
    return times, tree, pos[parent]


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
    return bin_times(map(itemgetter(0), gens), horizon, delta)  # map keeps no generation
