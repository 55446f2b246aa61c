"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (step
integrators, exhaustive enumeration, textbook formulas) and stays
separate from the code paths it audits.
"""

from __future__ import annotations

import csv
import io
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


def _scan(objective, state, predicted_tput, params):
    """Every 1-based choice sequence of the (end-truncated) horizon with its ``objective``, in lexicographic order."""
    n = len(state.manifest.ladder)
    h = min(params.horizon, state.remaining_chunks)
    for seq in itertools.product(range(1, n + 1), repeat=h):
        yield seq, objective(seq, state, predicted_tput, params)


def _best_first(objective, state, predicted_tput, params):
    """First choice and score of the best sequence; ``max`` keeps the first of equal scores, the lowest first choice."""
    seq, value = max(_scan(objective, state, predicted_tput, params), key=lambda scored: scored[1])
    return seq[0], value


def mpc_enumerate(state, params, predicted_tput):
    """Exhaustive MPC: best first rung and score of :func:`mpc_objective` over every sequence."""
    return _best_first(mpc_objective, state, predicted_tput, params)


def rdos_enumerate(state, params, predicted_tput):
    """Exhaustive RDOS: best first rung and score of :func:`rdos_objective` over every sequence."""
    return _best_first(rdos_objective, state, predicted_tput, params)


def best_completions(objective, state, predicted_tput, params):
    """Best ``objective`` over the completions of every proper prefix, keyed by the prefix (1-based choices).

    ``objective`` is :func:`mpc_objective` or :func:`rdos_objective`.
    """
    best = {}
    for seq, value in _scan(objective, state, predicted_tput, params):
        for d in range(1, len(seq)):
            if value > best.get(seq[:d], -math.inf):
                best[seq[:d]] = value
    return best


def constant_scores(buffers, dt_by_pos, seg, max_buffer_s, acc, step, score):
    """Score, per (row, choice), of the sequence that keeps that choice at every position, walked from the root.

    ``buffers``, ``dt_by_pos``, ``acc``, ``step`` and ``score`` are an
    ``_enumerate`` call's. Position 0 steps choice c from the root
    (previous index 0), every later one from c itself, with the
    operations the kernel applies to that sequence.
    """
    c = np.arange(dt_by_pos.shape[1])
    p = np.zeros_like(c)
    b = np.asarray(buffers, dtype=np.float64)[:, None]
    for k, dt in enumerate(dt_by_pos):
        acc = step(k, p, c, np.maximum(dt - b, 0.0), acc)
        b = np.minimum(b - np.minimum(b, dt) + seg, max_buffer_s)
        p = c
    return np.broadcast_to(score(acc), (len(b), len(c)))


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


def rate_based_reference(ladder, pred, strict):
    """The rate-based rung as a ladder loop: the largest rung whose bitrate is below ``pred`` (``strict``) or at
    most ``pred``, else rung 1."""
    best = 1
    for rep in ladder:
        if (rep.bitrate_kbps < pred) if strict else (rep.bitrate_kbps <= pred):
            best = rep.index
    return best


def buffer_based_reference(ladder, buffer_s, reservoir_s, cushion_s):
    """The buffer-based rung as a ladder loop: rung 1 up to the reservoir, the top rung from reservoir + cushion
    on, and between them the largest rung not above the bitrate interpolated between the ladder's extremes."""
    if buffer_s <= reservoir_s:
        return 1
    if buffer_s >= reservoir_s + cushion_s:
        return ladder[-1].index
    r_min, r_max = ladder[0].bitrate_kbps, ladder[-1].bitrate_kbps
    target = r_min + (buffer_s - reservoir_s) / cushion_s * (r_max - r_min)
    best = 1
    for rep in ladder:
        if rep.bitrate_kbps <= target:
            best = rep.index
    return best


def table_bin_reference(edges, value):
    """The bin of ``value`` by ``np.searchsorted``, out-of-range values clamped to the edge bins."""
    i = int(np.searchsorted(np.asarray(edges), value, side="right")) - 1
    return min(max(i, 0), len(edges) - 2)


def table_lookup_reference(table, tput_kbps, buffer_s, last_rep):
    """A lookup table's rung for a predicted throughput and a buffer, binned by ``table_bin_reference``."""
    ti, bi = table_bin_reference(table.tput_edges, tput_kbps), table_bin_reference(table.buffer_edges, buffer_s)
    return int(table.entries[ti, bi, last_rep - 1])


# ---------------------------------------------------------------------------
# The analysis layer's reference loops: the QoE models, z-scores, sensitivities and the ratings
# reader as plain per-item Python, the way abrbench computed them before its map/reduce and
# index-array forms; the library must equal them bit for bit.

def _mbps(record):
    return [b / 1000.0 for b in record.bitrates_kbps]


def _quality_before(record, position_s: float) -> float:
    """Quality on screen when a stall at ``position_s`` begins.

    A stall at a segment boundary charges the segment just finished; a
    stall before anything played charges the first segment. A position
    within 1e-9 segment of a boundary is that boundary: a multiple of a
    segment duration such as 0.3 or 1.1 s may divide back to just above it.
    """
    idx = max(0, math.ceil(position_s / record.segment_duration_s - 1e-9) - 1)
    return record.qualities[min(idx, record.segment_count - 1)]


def qoe_yin2015(record, lam: float = 1.0, mu: float = 4.3, mu_s: float = 0.0) -> float:
    """Linear bitrate objective: sum of bitrates minus switch, stall and startup terms."""
    rates = _mbps(record)
    switching = sum(abs(b - a) for a, b in zip(rates, rates[1:]))
    return sum(rates) - lam * switching - mu * record.total_stall_s - mu_s * record.startup_delay_s


def qoe_bentaleb2016(record, lam: float = 0.5, mu: float = 50.0, mu_s: float = 0.0) -> float:
    """Same linear form as yin2015 with per-segment quality in place of bitrate."""
    q = record.qualities
    switching = sum(abs(b - a) for a, b in zip(q, q[1:]))
    return sum(q) - lam * switching - mu * record.total_stall_s - mu_s * record.startup_delay_s


def qoe_ftw(record, a: float = 3.5, b_len: float = 0.15, b_cnt: float = 0.19, c: float = 1.5) -> float:
    """Exponential stall model on a 1-5 scale; no stalls scores a + c."""
    n = len(record.stalls)
    if n == 0:
        return a + c
    mean_stall = record.total_stall_s / n
    return a * math.exp(-(b_len * mean_stall + b_cnt) * n) + c


MOK2011_COEFFS = (4.23, 0.0672, 0.742, 0.106)
# Ternary level thresholds (level 0 below the first bound, 2 above the second).
MOK2011_LEVELS = {
    "startup_s": (1.0, 5.0),
    "stall_freq_per_min": (0.1, 1.0),
    "mean_stall_s": (1.0, 5.0),
}


def _ternary_level(value: float, bounds: tuple[float, float]) -> int:
    lo, hi = bounds
    if value <= lo:
        return 0
    if value <= hi:
        return 1
    return 2


def qoe_mok2011(record) -> float:
    """Level-based regression on startup delay, stall frequency, stall duration (constants above)."""
    base, w_init, w_freq, w_dur = MOK2011_COEFFS
    content_min = record.segment_count * record.segment_duration_s / 60.0
    freq = len(record.stalls) / content_min if content_min > 0 else 0.0
    mean_stall = record.total_stall_s / len(record.stalls) if record.stalls else 0.0
    l_init = _ternary_level(record.startup_delay_s, MOK2011_LEVELS["startup_s"])
    l_freq = _ternary_level(freq, MOK2011_LEVELS["stall_freq_per_min"])
    l_dur = _ternary_level(mean_stall, MOK2011_LEVELS["mean_stall_s"])
    return base - w_init * l_init - w_freq * l_freq - w_dur * l_dur


def qoe_liu2012(record, c1: float = 4.0, c2: float = 1.0) -> float:
    """Mean bitrate reward against the rebuffering-time ratio."""
    rates = _mbps(record)
    content = record.segment_count * record.segment_duration_s
    stall = record.total_stall_s
    ratio = stall / (stall + content)
    return c2 * (sum(rates) / len(rates)) - c1 * ratio


def qoe_xue2014(record, rho: float = 1.0, r_min_kbps: float = 235.0) -> float:
    """Log-bitrate chunk utility minus stall seconds.

    ``r_min_kbps`` is the ladder floor (the record itself does not carry
    the ladder); defaults to the reference ladder's lowest rung.
    """
    utility = sum(math.log(b / r_min_kbps) for b in record.bitrates_kbps)
    return utility - rho * record.total_stall_s


def qoe_spiteri2016(record, gamma: float = 2.0, r_min_kbps: float = 235.0) -> float:
    """BOLA-style utility: log-bitrate sum minus gamma times stall seconds."""
    utility = sum(math.log(b / r_min_kbps) for b in record.bitrates_kbps)
    return utility - gamma * record.total_stall_s


def qoe_sqi(
    record,
    u0: float = 1.0,
    u1: float = 0.0,
    tau_memory_s: float = math.inf,
) -> float:
    """Presentation quality plus experience-weighted, memory-decayed stall terms.

    Each stall contributes -(u0 + u1*q_at_stall) * duration *
    exp(-position/tau); the default infinite memory constant disables
    the decay.
    """
    n = record.segment_count
    base = sum(record.qualities) / n
    penalty = 0.0
    for pos, dur in record.stalls:
        q = _quality_before(record, pos)
        decay = math.exp(-pos / tau_memory_s) if math.isfinite(tau_memory_s) else 1.0
        penalty += (u0 + u1 * q) * dur * decay
    return base - penalty / n


def qoe_ksqi(record, params) -> float:
    """Quality mean minus normalized stall and asymmetric-switch penalties.

    Stall cost grows with log-duration and with how good the picture
    was when it hit; downward quality switches cost beta_neg per unit,
    upward beta_pos.
    """
    n = record.segment_count
    base = sum(record.qualities) / n
    penalty = 0.0
    for pos, dur in record.stalls:
        q = _quality_before(record, pos)
        penalty += params.c0 * math.log1p(dur) * (params.c1 + params.c2 * (100.0 - q))
    for a, b in zip(record.qualities, record.qualities[1:]):
        delta = b - a
        penalty += params.beta_neg * max(-delta, 0.0) + params.beta_pos * max(delta, 0.0)
    return base - penalty / n


QOE_MODELS = {
    "yin2015": qoe_yin2015,
    "bentaleb2016": qoe_bentaleb2016,
    "ftw": qoe_ftw,
    "mok2011": qoe_mok2011,
    "liu2012": qoe_liu2012,
    "xue2014": qoe_xue2014,
    "spiteri2016": qoe_spiteri2016,
    "sqi": qoe_sqi,
    "ksqi": qoe_ksqi,
}


def z_normalize(matrix) -> np.ndarray:
    """Standardize ratings per subject per session (sample std, n-1).

    Each (subject, session) group maps to mean 0 and std 1; missing
    entries stay NaN. A group with fewer than two ratings or zero
    spread is an error.
    """
    z = np.full_like(matrix.raw, np.nan)
    for session in matrix.sessions():
        cols = matrix.session_columns(session)
        for i, subject in enumerate(matrix.subjects):
            vals = matrix.raw[i, cols]
            mask = ~np.isnan(vals)
            if not mask.any():
                continue
            if mask.sum() < 2:
                raise ValueError(f"subject {subject} has a single rating in session {session}")
            mean = vals[mask].mean()
            std = vals[mask].std(ddof=1)
            if std == 0.0:
                raise ValueError(f"zero-spread group: subject {subject}, session {session}")
            for k, j in enumerate(cols):
                if mask[k]:
                    z[i, j] = (matrix.raw[i, j] - mean) / std
    return z


def _mean_over(subject_ratings: dict[str, float], videos, min_set: int, label: str) -> float:
    vals = [subject_ratings[v] for v in videos if v in subject_ratings and not math.isnan(subject_ratings[v])]
    if len(vals) < min_set:
        raise ValueError(f"set {label} has {len(vals)} rated videos; need at least {min_set}")
    return sum(vals) / len(vals)


def sensitivity(subject_ratings: dict[str, float], partitions: dict[str, list[str]], high: str, low: str,
                min_set: int = 30) -> float:
    """Mean rating over partition ``high`` minus mean over ``low``; a set under ``min_set`` rated videos raises.

    The study's sensitivities are (high, low) = (q_r_bar, q_r) to rebuffering, (q_q, q_q_bar) to
    quality and (q_a, q_a_bar) to adaptation.
    """
    return _mean_over(subject_ratings, partitions.get(high, []), min_set, high) - _mean_over(
        subject_ratings, partitions.get(low, []), min_set, low
    )


def _sensitivity_or_none(subject_ratings: dict[str, float], partitions, high: str, low: str, min_set: int):
    """``sensitivity``, or None where a set is too small."""
    try:
        return sensitivity(subject_ratings, partitions, high, low, min_set)
    except ValueError:
        return None


def build_sensitivity_report(matrix, partitions: dict[str, list[str]], min_set: int = 30) -> tuple:
    """Per-subject sensitivities over the named partitions, from the raw ratings.

    Sensitivities whose sets are smaller than ``min_set`` for a subject
    are reported as None.
    """
    rows = []
    for i, subject in enumerate(matrix.subjects):
        ratings = {v: matrix.raw[i, j] for j, v in enumerate(matrix.videos) if not np.isnan(matrix.raw[i, j])}
        sizes = {
            name: sum(1 for v in partitions.get(name, []) if v in ratings)
            for name in ("q_r_bar", "q_r", "q_q", "q_q_bar", "q_a", "q_a_bar")
        }
        rows.append((
            subject,
            _sensitivity_or_none(ratings, partitions, "q_r_bar", "q_r", min_set),
            _sensitivity_or_none(ratings, partitions, "q_q", "q_q_bar", min_set),
            _sensitivity_or_none(ratings, partitions, "q_a", "q_a_bar", min_set),
            sizes,
        ))
    return tuple(rows)


def csv_rows(text: str, columns: tuple[str, ...], kind: str) -> csv.DictReader:
    """Rows of a CSV text as dicts through ``csv.DictReader``, after checking its header carries ``columns``."""
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{kind} CSV lacks columns {missing}; it must carry {list(columns)}")
    return reader


def csv_number(rows: csv.DictReader, row: dict, column: str, source: str) -> float:
    """``row[column]`` as a finite float; the error names ``source`` and the row's line."""
    text = row[column]
    try:
        value = float(text)
    except (TypeError, ValueError):  # TypeError: a short row leaves the field None
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{source} line {rows.line_num}: {column} must be a finite number, got {text!r}")
    return value


def load_ratings_csv(text: str, source: str = "ratings CSV") -> tuple:
    """A ratings CSV read row by row as dicts: (subjects, videos, raw, session_of, day_of, device_of).

    Subjects and videos keep their first-seen order, and a later row for
    the same (subject, video) replaces the earlier score. A score that is
    not a finite number, or a row that puts a video in another session, a
    session on another day or a subject on another device than an earlier
    row did, is an error naming ``source`` and the line. It does not check
    a score's range.
    """
    subject_index: dict[str, int] = {}
    video_index: dict[str, int] = {}
    session_of: dict[str, str] = {}
    day_of: dict[str, str] = {}
    device_of: dict[str, str] = {}
    cells: dict[tuple[int, int], float] = {}
    rows = csv_rows(text, ("subject_id", "video_id", "session_id", "day", "device", "score"), "ratings")
    for row in rows:
        s, v = row["subject_id"], row["video_id"]
        cell = (subject_index.setdefault(s, len(subject_index)), video_index.setdefault(v, len(video_index)))
        cells[cell] = csv_number(rows, row, "score", source)
        bindings = ((session_of, "video", v, "session_id"), (day_of, "session", row["session_id"], "day"),
                    (device_of, "subject", s, "device"))
        for of, what, key, column in bindings:
            earlier = of.setdefault(key, row[column])
            if earlier != row[column]:
                raise ValueError(f"{source} line {rows.line_num}: {what} {key!r} has {column} {row[column]!r},"
                                 f" but an earlier row gives {earlier!r}")
    raw = np.full((len(subject_index), len(video_index)), np.nan)
    for (i, j), score in cells.items():
        raw[i, j] = score
    return list(subject_index), list(video_index), raw, session_of, day_of, device_of
