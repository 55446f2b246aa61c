"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (step
integrators, exhaustive enumeration, textbook formulas) and stays
separate from the code paths it audits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def download_time_ms_steps(trace, channel, start_time_s, size_bits, step_ms=1):
    """Fixed 1 ms-step integrator for the fluid channel.

    Walks the timeline in millisecond slices after the RTT, draining
    bits at the bandwidth in effect at each slice start, and
    interpolates inside the final slice. The clock runs on integer
    milliseconds so slice boundaries never straddle a bandwidth change
    on ms-aligned traces.
    """
    if size_bits == 0:
        return channel.rtt_s
    duration_ms = round(trace.duration_s * 1000)
    bounds = [round(s * 1000) for s, _ in trace.samples]
    rates = [bw * 1000.0 for _, bw in trace.samples]  # bits per second

    def rate_at(t_ms):
        local = t_ms % duration_ms if channel.loop_trace else t_ms
        if not channel.loop_trace and local >= duration_ms:
            raise ValueError("trace exhausted")
        i = 0
        for k, b in enumerate(bounds):
            if b <= local:
                i = k
            else:
                break
        return rates[i]

    t_ms = round((start_time_s + channel.rtt_s) * 1000)
    step_s = step_ms / 1000.0
    remaining = float(size_bits)
    elapsed = 0.0
    guard = 0
    while remaining > 0:
        r = rate_at(t_ms)
        chunk = r * step_s
        if r > 0 and remaining <= chunk:
            elapsed += remaining / r
            remaining = 0.0
        else:
            remaining -= chunk
            elapsed += step_s
            t_ms += step_ms
        guard += 1
        if guard > 50_000_000:
            raise RuntimeError("integrator did not terminate")
    return channel.rtt_s + elapsed


def buffer_walk(buffer_s, dts, seg, cap):
    """Plain buffer recursion over a download-time sequence."""
    stalls = []
    b = buffer_s
    for dt in dts:
        stall = max(dt - b, 0.0)
        b = min(b - min(b, dt) + seg, cap)
        stalls.append(stall)
    return b, stalls


def _horizon_sizes(state, h, params):
    """Per-position, per-rung chunk sizes (bits): manifest or nominal rate x duration."""
    manifest = state.manifest
    if params.use_manifest_sizes:
        first = state.chunk_index - 1
        return [[manifest.sizes[first + k][r.index - 1] for r in manifest.ladder] for k in range(h)]
    nominal = [r.bitrate_kbps * 1000.0 * manifest.segment_duration_s for r in manifest.ladder]
    return [nominal] * h


def _stalls(choices, state, predicted_tput, params):
    """Stall seconds of each position of a 1-based choice sequence, by :func:`buffer_walk`."""
    sizes = _horizon_sizes(state, len(choices), params)
    dts = [sizes[k][c - 1] / (predicted_tput * 1000.0) + params.rtt_s for k, c in enumerate(choices)]
    return buffer_walk(state.buffer_s, dts, state.manifest.segment_duration_s, params.max_buffer_s)[1]


def mpc_objective(choices, state, predicted_tput, params):
    """Bitrate objective of one 1-based choice sequence.

    Sum of chosen bitrates (Mb/s), minus ``lambda_switch`` times the
    magnitude of every bitrate switch (including the step from the
    previously downloaded chunk), minus ``mu_rebuf`` times the stall
    seconds predicted with download time size/predicted_tput + rtt.
    """
    ladder = state.manifest.ladder
    rates = [ladder[c - 1].bitrate_kbps / 1000.0 for c in choices]
    stalls = _stalls(choices, state, predicted_tput, params)
    rate_acc = 0.0
    sw_inner = 0.0
    stall_acc = 0.0
    for k, rate in enumerate(rates):
        stall_acc += stalls[k]
        rate_acc += rate
        if k > 0:
            sw_inner += abs(rate - rates[k - 1])
    last_rate = ladder[state.last_rep - 1].bitrate_kbps / 1000.0
    score = (rate_acc - params.lambda_switch * sw_inner) - params.mu_rebuf * stall_acc
    return score - params.lambda_switch * abs(rates[0] - last_rate)


def rdos_objective(choices, state, predicted_tput, params):
    """KSQI-style horizon score of a 1-based choice sequence minus the bitrate term.

    Each stall is charged against the quality on screen when it hits;
    every quality switch (including the one from the previously played
    chunk) pays the asymmetric adaptation penalty.
    """
    manifest = state.manifest
    kp = params.ksqi
    h = len(choices)
    first = state.chunk_index - 1
    stalls = _stalls(choices, state, predicted_tput, params)
    q_prev = manifest.qualities[max(first - 1, 0)][state.last_rep - 1]
    q_acc = 0.0
    pen = 0.0
    rate_acc = 0.0
    for k, c in enumerate(choices):
        q = manifest.qualities[first + k][c - 1]
        if stalls[k] > 0:
            pen += kp.c0 * np.log1p(stalls[k]) * (kp.c1 + kp.c2 * (100.0 - q_prev))
        delta = q - q_prev
        pen += kp.beta_neg * max(-delta, 0.0) + kp.beta_pos * max(delta, 0.0)
        q_acc += q
        rate_acc += manifest.ladder[c - 1].bitrate_kbps / 1000.0
        q_prev = q
    return q_acc / h - pen / h - params.gamma_rate * rate_acc


def mpc_enumerate(state, params, predicted_tput):
    """Exhaustive MPC: best first rung by scanning every sequence.

    Mirrors the documented objective with straight Python loops;
    lexicographic enumeration keeps ties on the lowest first element.
    """
    ladder = state.manifest.ladder
    seg = state.manifest.segment_duration_s
    n = len(ladder)
    h = min(params.horizon, state.remaining_chunks)
    rates = [r.bitrate_kbps / 1000.0 for r in ladder]
    if params.use_manifest_sizes:
        first = state.chunk_index - 1
        sizes = [[state.manifest.sizes[first + k][r.index - 1] for r in ladder] for k in range(h)]
    else:
        nominal = [r.bitrate_kbps * 1000.0 * seg for r in ladder]
        sizes = [nominal] * h
    best = None
    best_choice = None
    last_rate = rates[state.last_rep - 1]
    for seq in itertools.product(range(n), repeat=h):
        rate_acc = 0.0
        sw_inner = 0.0
        stall_acc = 0.0
        b = state.buffer_s
        prev = None
        for k, c in enumerate(seq):
            dt = sizes[k][c] / (predicted_tput * 1000.0) + params.rtt_s
            stall_acc += max(dt - b, 0.0)
            b = min(b - min(b, dt) + seg, params.max_buffer_s)
            rate_acc += rates[c]
            if k > 0:
                sw_inner += abs(rates[c] - prev)
            prev = rates[c]
        score = (rate_acc - params.lambda_switch * sw_inner) - params.mu_rebuf * stall_acc
        score = score - params.lambda_switch * abs(rates[seq[0]] - last_rate)
        if best is None or score > best:
            best = score
            best_choice = seq[0]
    return best_choice + 1, best


def rdos_enumerate(state, params, predicted_tput):
    """Exhaustive RDOS objective scan (same conventions as the library)."""
    manifest = state.manifest
    ladder = manifest.ladder
    seg = manifest.segment_duration_s
    kp = params.ksqi
    n = len(ladder)
    h = min(params.horizon, state.remaining_chunks)
    first = state.chunk_index - 1
    rates = [r.bitrate_kbps / 1000.0 for r in ladder]
    if params.use_manifest_sizes:
        sizes = [[manifest.sizes[first + k][r.index - 1] for r in ladder] for k in range(h)]
    else:
        nominal = [r.bitrate_kbps * 1000.0 * seg for r in ladder]
        sizes = [nominal] * h
    q_start = manifest.qualities[max(first - 1, 0)][state.last_rep - 1]
    best = None
    best_choice = None
    for seq in itertools.product(range(n), repeat=h):
        q_acc = 0.0
        pen = 0.0
        rate_acc = 0.0
        b = state.buffer_s
        q_prev = q_start
        for k, c in enumerate(seq):
            q = manifest.qualities[first + k][c]
            dt = sizes[k][c] / (predicted_tput * 1000.0) + params.rtt_s
            stall = max(dt - b, 0.0)
            b = min(b - min(b, dt) + seg, params.max_buffer_s)
            if stall > 0:
                pen += kp.c0 * np.log1p(stall) * (kp.c1 + kp.c2 * (100.0 - q_prev))
            delta = q - q_prev
            pen += kp.beta_neg * max(-delta, 0.0) + kp.beta_pos * max(delta, 0.0)
            q_acc += q
            rate_acc += rates[c]
            q_prev = q
        score = q_acc / h - pen / h - params.gamma_rate * rate_acc
        if best is None or score > best:
            best = score
            best_choice = seq[0]
    return best_choice + 1, best


def best_completions(objective, state, predicted_tput, params):
    """Best ``objective`` over the completions of every proper prefix, keyed by the prefix (1-based choices).

    ``objective`` is :func:`mpc_objective` or :func:`rdos_objective`; one
    scan scores every sequence of the (end-truncated) horizon.
    """
    n = len(state.manifest.ladder)
    h = min(params.horizon, state.remaining_chunks)
    best = {}
    for seq in itertools.product(range(1, n + 1), repeat=h):
        value = objective(seq, state, predicted_tput, params)
        for d in range(1, h):
            if value > best.get(seq[:d], -math.inf):
                best[seq[:d]] = value
    return best


def wilcoxon_exact_enumeration(diff):
    """Two-sided exact signed-rank p by brute force over all sign patterns."""
    diff = [d for d in diff if d != 0.0]
    n = len(diff)
    ranks = average_ranks_reference([abs(d) for d in diff])
    w_obs = sum(r for d, r in zip(diff, ranks) if d > 0)
    count_le = 0
    count_ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_obs + 1e-12:
            count_le += 1
        if w >= w_obs - 1e-12:
            count_ge += 1
    total = 2**n
    return min(1.0, 2.0 * min(count_le / total, count_ge / total))


def average_ranks_reference(v):
    """Ranks 1..n by stable sorted position, each run of equal values given its average rank."""
    order = sorted(range(len(v)), key=lambda i: v[i])
    out = [0.0] * len(v)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            out[order[k]] = avg
        i = j + 1
    return out


def spearman_reference(x, y):
    """Rank both vectors by sorted positions (ties averaged), then Pearson."""
    rx, ry = average_ranks_reference(list(x)), average_ranks_reference(list(y))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def kendall_reference(x, y):
    """Tau-b from concordance sign products and value-multiplicity ties."""
    n = len(x)
    s = 0
    for i, j in itertools.combinations(range(n), 2):
        s += int(np.sign(x[i] - x[j]) * np.sign(y[i] - y[j]))
    n0 = n * (n - 1) // 2

    def tie_pairs(v):
        counts = {}
        for val in v:
            counts[val] = counts.get(val, 0) + 1
        return sum(c * (c - 1) // 2 for c in counts.values())

    nx = tie_pairs(x)
    ny = tie_pairs(y)
    return s / math.sqrt((n0 - nx) * (n0 - ny))


def f_cdf_quadrature(x, d1, d2):
    """F CDF by numerical integration of the density."""
    from scipy.integrate import quad

    if x <= 0:
        return 0.0
    log_c = (
        math.lgamma((d1 + d2) / 2.0)
        - math.lgamma(d1 / 2.0)
        - math.lgamma(d2 / 2.0)
        + (d1 / 2.0) * math.log(d1 / d2)
    )

    def density(t):
        return math.exp(log_c + (d1 / 2.0 - 1.0) * math.log(t) - ((d1 + d2) / 2.0) * math.log(1.0 + d1 * t / d2))

    value, _ = quad(density, 0.0, x, limit=200)
    return value


def download_time_ms_numpy(trace, channel, start_time_s, size_bits):
    """Vectorized variant of the 1 ms-step integrator.

    Builds the per-millisecond capacity array (tiled across loops as
    needed), cumulative-sums it, and interpolates inside the final
    slice. Same semantics as :func:`download_time_ms_steps`.
    """
    if size_bits == 0:
        return channel.rtt_s
    duration_ms = round(trace.duration_s * 1000)
    per_ms = np.zeros(duration_ms)
    bounds = [round(s * 1000) for s, _ in trace.samples] + [duration_ms]
    for i, (_, bw) in enumerate(trace.samples):
        per_ms[bounds[i] : bounds[i + 1]] = bw  # kb/s == bits per ms
    t_ms = round((start_time_s + channel.rtt_s) * 1000)
    if channel.loop_trace:
        loop_bits = float(per_ms.sum())
        if loop_bits <= 0:
            raise ValueError("zero-bandwidth loop")
        head = np.concatenate([per_ms[t_ms % duration_ms :], per_ms[: t_ms % duration_ms]])
        loops = int(np.ceil(max(size_bits - head.sum(), 0.0) / loop_bits)) + 1
        timeline = np.concatenate([head] + [np.roll(per_ms, -(t_ms % duration_ms))] * loops)
    else:
        if t_ms >= duration_ms:
            raise ValueError("trace exhausted")
        timeline = per_ms[t_ms:]
    acc = np.cumsum(timeline)
    if not channel.loop_trace and size_bits > acc[-1]:
        raise ValueError("trace exhausted")
    idx = int(np.searchsorted(acc, size_bits, side="left"))
    before = acc[idx - 1] if idx > 0 else 0.0
    within = (size_bits - before) / timeline[idx]  # fraction of the final 1 ms slice
    return channel.rtt_s + (idx + within) * 0.001


def wilcoxon_exact_enumeration_fast(diff):
    """Same 2^n enumeration as above, with the masks expanded by numpy."""
    diff = np.asarray([d for d in diff if d != 0.0], dtype=float)
    n = len(diff)
    order = np.argsort(np.abs(diff), kind="stable")
    ranks = np.empty(n)
    absd = np.abs(diff)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and absd[order[j + 1]] == absd[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_obs = ranks[diff > 0].sum()
    masks = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    w_all = masks @ ranks
    total = float(2**n)
    p_le = float((w_all <= w_obs + 1e-12).sum()) / total
    p_ge = float((w_all >= w_obs - 1e-12).sum()) / total
    return min(1.0, 2.0 * min(p_le, p_ge))


def offline_optimal_dp(manifest, bandwidth_kbps, config, params, buffer_grid_step=0.01):
    """Offline-optimal session objective by backward DP on a buffer grid.

    Assumes a constant-bandwidth channel so the state (chunk, rung,
    buffer) fully determines the future. Chunk 1 is pinned to the
    configured initial rung, matching the simulator; the objective
    covers chunks 2..N with the same terms as the MPC objective.
    """
    seg = manifest.segment_duration_s
    cap = config.max_buffer_s
    n = manifest.segment_count
    ladder = manifest.ladder
    n_reps = len(ladder)
    rates = np.array([r.bitrate_kbps / 1000.0 for r in ladder])
    dts = np.array(
        [
            [manifest.sizes[k][r.index - 1] / (bandwidth_kbps * 1000.0) + config.channel.rtt_s for r in ladder]
            for k in range(n)
        ]
    )
    grid = np.arange(0.0, cap + buffer_grid_step / 2, buffer_grid_step)

    def snap_idx(b):
        return np.rint(np.clip(b, 0.0, cap) / buffer_grid_step).astype(int)

    # value[j, r] = best objective from the next chunk on, given buffer grid[j] and prev rung r+1
    value = np.zeros((len(grid), n_reps))
    for k in range(n - 1, 0, -1):  # chunks 2..N are decisions (0-based chunk k)
        base = np.empty((len(grid), n_reps))  # candidate value before the switch term
        for c in range(n_reps):
            dt = dts[k][c]
            stall = np.maximum(dt - grid, 0.0)
            nb = np.minimum(grid - np.minimum(grid, dt) + seg, cap)
            base[:, c] = rates[c] - params.mu_rebuf * stall + value[snap_idx(nb), c]
        switch = params.lambda_switch * np.abs(rates[None, :] - rates[:, None])  # [prev, c]
        value = np.max(base[:, None, :] - switch[None, :, :], axis=2)
    b1 = seg  # buffer after the pinned first chunk
    return float(value[snap_idx(np.array([b1]))[0], config.initial_rep - 1])


def first_bad_manifest_cell(segments):
    """``(i, r, field)`` of the first bad value in a manifest document's ``segments``, or None.

    Cells are scanned row by row, ``size_bits`` before ``quality`` in
    each. A size must be a finite real > 0, a quality a real in
    [0, 100]; a bool, a string, None or a list is no real.
    """
    in_range = {"size_bits": lambda x: 0 < x < math.inf, "quality": lambda x: 0 <= x <= 100}
    for i, row in enumerate(segments):
        for r, cell in enumerate(row):
            for field, ok in in_range.items():
                value = cell[field]
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
                    return i, r, field
    return None


def table_bin_reference(edges, value):
    """The bin of ``value`` by ``np.searchsorted``, out-of-range values clamped to the edge bins."""
    i = int(np.searchsorted(np.asarray(edges), value, side="right")) - 1
    return min(max(i, 0), len(edges) - 2)


def table_lookup_reference(table, tput_kbps, buffer_s, last_rep):
    """A lookup table's rung for a predicted throughput and a buffer, binned by ``table_bin_reference``."""
    ti, bi = table_bin_reference(table.tput_edges, tput_kbps), table_bin_reference(table.buffer_edges, buffer_s)
    return int(table.entries[ti, bi, last_rep - 1])
