"""Objective QoE models: SessionRecord -> scalar score.

Nine knowledge-driven models are registered under ``evaluate``; each is
a pure function of the record and its coefficient set. The default
coefficients are recorded in docs/model_parameters.md. Learned models
(feature-regression or standardized bitstream models) are supported
only through an external command, which ``model_params`` and
``evaluate`` take as they take a built-in model.

Bitrates enter the linear models in Mb/s; quality scores are the 0-100
per-segment values carried by the record.
"""

from __future__ import annotations

import inspect
import math
import subprocess
from dataclasses import dataclass, fields
from functools import reduce
from itertools import chain, repeat
from operator import add, lt, mul, sub, truediv

from . import checks
from .simulator import SessionRecord, record_to_json


@dataclass(frozen=True)
class KsqiParams:
    """Coefficients of the KSQI-style model.

    Negative adaptations must cost at least as much as positive ones
    (beta_neg >= beta_pos); every coefficient is finite and
    nonnegative.
    """

    c0: float = 1.0
    c1: float = 6.0
    c2: float = 0.06
    beta_neg: float = 0.5
    beta_pos: float = 0.1

    def __post_init__(self):
        checks.attrs(self, checks.nonnegative, "c0", "c1", "c2", "beta_neg", "beta_pos")
        if not self.beta_neg >= self.beta_pos:
            raise ValueError("adaptation weights must satisfy beta_neg >= beta_pos >= 0")


# map and reduce add the same terms in the same order as the loops in tests/oracles.py, bit for bit
def _mbps(record: SessionRecord) -> list[float]:
    return list(map(truediv, record.bitrates_kbps, repeat(1000.0)))


def _switching(values) -> float:
    """Sum of |b - a| over consecutive pairs."""
    return sum(map(abs, map(sub, values[1:], values)))


def _log_utility(record: SessionRecord, r_min_kbps: float) -> float:
    return sum(map(math.log, map(truediv, record.bitrates_kbps, repeat(r_min_kbps))))


def _quality_before(record: SessionRecord, position_s: float) -> float:
    """Quality on screen when a stall at ``position_s`` begins.

    A stall at a segment boundary charges the segment just finished; a
    stall before anything played charges the first segment. A position
    within 1e-9 segment of a boundary is that boundary: a multiple of a
    segment duration such as 0.3 or 1.1 s may divide back to just above it.
    """
    idx = max(0, math.ceil(position_s / record.segment_duration_s - 1e-9) - 1)
    return record.qualities[min(idx, record.segment_count - 1)]


def qoe_yin2015(record: SessionRecord, lam: float = 1.0, mu: float = 4.3, mu_s: float = 0.0) -> float:
    """Linear bitrate objective: sum of bitrates minus switch, stall and startup terms."""
    rates = _mbps(record)
    return sum(rates) - lam * _switching(rates) - mu * record.total_stall_s - mu_s * record.startup_delay_s


def qoe_bentaleb2016(record: SessionRecord, lam: float = 0.5, mu: float = 50.0, mu_s: float = 0.0) -> float:
    """Same linear form as yin2015 with per-segment quality in place of bitrate."""
    q = record.qualities
    return sum(q) - lam * _switching(q) - mu * record.total_stall_s - mu_s * record.startup_delay_s


def qoe_ftw(record: SessionRecord, a: float = 3.5, b_len: float = 0.15, b_cnt: float = 0.19, c: float = 1.5) -> float:
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


def qoe_mok2011(record: SessionRecord) -> float:
    """Level-based regression on startup delay, stall frequency, stall duration (constants above)."""
    base, w_init, w_freq, w_dur = MOK2011_COEFFS
    content_min = record.segment_count * record.segment_duration_s / 60.0
    freq = len(record.stalls) / content_min if content_min > 0 else 0.0
    mean_stall = record.total_stall_s / len(record.stalls) if record.stalls else 0.0
    l_init = _ternary_level(record.startup_delay_s, MOK2011_LEVELS["startup_s"])
    l_freq = _ternary_level(freq, MOK2011_LEVELS["stall_freq_per_min"])
    l_dur = _ternary_level(mean_stall, MOK2011_LEVELS["mean_stall_s"])
    return base - w_init * l_init - w_freq * l_freq - w_dur * l_dur


def qoe_liu2012(record: SessionRecord, c1: float = 4.0, c2: float = 1.0) -> float:
    """Mean bitrate reward against the rebuffering-time ratio."""
    rates = _mbps(record)
    content = record.segment_count * record.segment_duration_s
    stall = record.total_stall_s
    ratio = stall / (stall + content)
    return c2 * (sum(rates) / len(rates)) - c1 * ratio


def qoe_xue2014(record: SessionRecord, rho: float = 1.0, r_min_kbps: float = 235.0) -> float:
    """Log-bitrate chunk utility minus stall seconds.

    ``r_min_kbps`` is the ladder floor (the record itself does not carry
    the ladder); defaults to the reference ladder's lowest rung.
    """
    return _log_utility(record, r_min_kbps) - rho * record.total_stall_s


def qoe_spiteri2016(record: SessionRecord, gamma: float = 2.0, r_min_kbps: float = 235.0) -> float:
    """BOLA-style utility: log-bitrate sum minus gamma times stall seconds."""
    return _log_utility(record, r_min_kbps) - gamma * record.total_stall_s


def qoe_sqi(
    record: SessionRecord,
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


def qoe_ksqi(record: SessionRecord, params: KsqiParams = KsqiParams()) -> float:
    """Quality mean minus normalized stall and asymmetric-switch penalties.

    Stall cost grows with log-duration and with how good the picture
    was when it hit; downward quality switches cost beta_neg per unit,
    upward beta_pos.
    """
    q = record.qualities
    n = len(q)
    c0, c1, c2 = params.c0, params.c1, params.c2
    stall_terms = [
        c0 * math.log1p(dur) * (c1 + c2 * (100.0 - _quality_before(record, pos))) for pos, dur in record.stalls
    ]
    # a switch d costs beta_neg * max(-d, 0) + beta_pos * max(d, 0): (-beta_neg) * d when d < 0, else
    # beta_pos * d (the two differ only in the sign of a zero, which adding to a penalty >= +0 drops)
    deltas = list(map(sub, q[1:], q))
    slopes = map((params.beta_pos, -params.beta_neg).__getitem__, map(lt, deltas, repeat(0.0)))
    penalty = reduce(add, chain(stall_terms, map(mul, slopes, deltas)), 0.0)  # left to right, as += would
    return sum(q) / n - penalty / n


MODELS = {
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


def _finite_score(model_id: str, value) -> float:
    """A model's score as a float; NaN or an infinity is a ValueError naming the model."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite QoE score from {model_id}")
    return value


def evaluate_external(model_id: str, record: SessionRecord, command) -> float:
    """Score ``record`` under a model that lives outside this package, as ``model_id``.

    ``command`` reads one SessionRecord JSON document on stdin and prints a single scalar; its last
    line is the score, and a command that prints none raises a ``ValueError`` naming the model.
    """
    proc = subprocess.run(list(command), input=record_to_json(record), capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ValueError(f"external QoE model {model_id} printed no score")
    return _finite_score(model_id, lines[-1])


def _memory_constant(name: str, value) -> float:
    """sqi's ``tau_memory_s``: > 0, and infinite (no decay) as by default."""
    return math.inf if value == math.inf else checks.positive(name, value)


# every coefficient is finite and >= 0, except these two
_VALUE_CHECKS = {"r_min_kbps": checks.positive, "tau_memory_s": _memory_constant}


def _model(model_id: str):
    """The built-in model ``model_id``; an unknown id is a ValueError listing the known ones."""
    if model_id not in MODELS:
        raise ValueError(f"unknown QoE model id {model_id!r}; known: {sorted(MODELS)}")
    return MODELS[model_id]


def _coefficients(model_id: str) -> dict:
    """A built-in model's coefficients and their defaults: ksqi's are ``KsqiParams`` fields, the others' keywords."""
    if model_id == "ksqi":
        return {f.name: f.default for f in fields(KsqiParams)}
    return {name: p.default for name, p in list(inspect.signature(_model(model_id)).parameters.items())[1:]}


def model_params(model_id: str, params: dict) -> dict:
    """Check ``params`` for model ``model_id``; return what ``evaluate`` takes for it.

    Params with a ``command`` are an external model's and come back as ``{"command": [...]}``; others
    are a built-in model's keyword arguments. An unknown model, a name the model does not take, or a
    value out of its range (``_VALUE_CHECKS``) is a ValueError; ``evaluate`` checks nothing, so check
    once here. ksqi's coefficients come back as the one ``KsqiParams`` they build, which checks them.
    """
    if "command" in params:
        checks.known_keys("an external model", params, ("id", "command"))  # the keys of its config entry
        return {"command": checks.command("command", params["command"])}
    checks.known_keys(f"model {model_id}", params, list(_coefficients(model_id)))
    if model_id == "ksqi":
        return {"params": KsqiParams(**params)}
    return {name: _VALUE_CHECKS.get(name, checks.nonnegative)(name, value) for name, value in params.items()}


def evaluate(model_id: str, record: SessionRecord, params: dict | None = None) -> float:
    """Score ``record`` under model ``model_id`` with ``params`` from ``model_params`` (a ``command`` runs outside)."""
    if params and "command" in params:
        return evaluate_external(model_id, record, params["command"])
    return _finite_score(model_id, _model(model_id)(record, **(params or {})))

