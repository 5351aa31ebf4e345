"""Closed-form anonymity analysis of the random-walk forwarding scheme,
plus a simulation oracle.

The adversary controls C colluding agents out of N and tries to name the
originator of a walk.  Two attack models are analysed:

* adaptive: the adversary conditions on at least one colluder sitting on
  the forwarding path; the first such colluder observes the agent that
  handed the message over.
* static: colluders are placed blindly, so a walk may escape them
  entirely, in which case the adversary learns nothing.

All entropies are in bits and 0 * log2(0) is taken as 0.  p_f = 1 is
rejected everywhere (the expected walk never terminates).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Optional, Sequence

import numpy as np


class InvalidScenarioError(ValueError):
    """Raised for adversary scenarios outside the model's domain."""


class AttackKind(Enum):
    ADAPTIVE = "adaptive"
    STATIC = "static"


@dataclass(frozen=True, slots=True)
class AdversaryScenario:
    """N agents, C of them colluding, forwarding probability p_f."""

    total_agents: int
    colluders: int
    p_f: float
    attack: AttackKind = AttackKind.ADAPTIVE

    def __post_init__(self) -> None:
        n, c = self.total_agents, self.colluders
        if n < 2:
            raise InvalidScenarioError(f"need at least 2 agents, got {n}")
        if not 0 <= c <= n:
            raise InvalidScenarioError(f"colluders must lie in [0, {n}], got {c}")
        if not 0.0 <= self.p_f < 1.0:
            raise InvalidScenarioError(f"p_f must lie in [0, 1), got {self.p_f}")


@dataclass(frozen=True, slots=True)
class SenderDistribution:
    """The adversary's posterior over originator candidates after an
    observation: the observed predecessor versus every other honest
    agent."""

    predecessor: float
    each_other: float
    honest_agents: int

    def probabilities(self) -> np.ndarray:
        """Explicit probability vector: predecessor first, then the
        remaining honest agents."""
        probs = np.full(self.honest_agents, self.each_other)
        probs[0] = self.predecessor
        return probs


@dataclass(frozen=True, slots=True)
class EntropyReport:
    entropy_bits: float
    max_entropy_bits: float
    degree_of_anonymity: float
    as_printed: bool = False

    def __post_init__(self) -> None:
        if self.as_printed:
            # Verbatim closed form that is not a true Shannon entropy;
            # it may fall outside [0, max].
            return
        if not -1e-9 <= self.entropy_bits <= self.max_entropy_bits + 1e-9:
            raise ValueError(
                f"entropy {self.entropy_bits} outside "
                f"[0, {self.max_entropy_bits}]"
            )


def _report(entropy: float, honest: int, as_printed: bool = False) -> EntropyReport:
    max_bits = math.log2(honest) if honest > 0 else 0.0
    degree = entropy / max_bits if max_bits > 0 else 0.0
    return EntropyReport(entropy, max_bits, degree, as_printed)


def _require_honest_sender(s: AdversaryScenario) -> None:
    if s.colluders >= s.total_agents:
        raise InvalidScenarioError(
            "an honest originator requires colluders < total_agents"
        )


def _plog2p(p: float) -> float:
    return p * math.log2(p) if p > 0.0 else 0.0


def predecessor_probability(s: AdversaryScenario) -> float:
    """Probability that the agent observed handing the message to the
    first colluder is the true originator: 1 - p_f * (N - C - 1) / N."""
    _require_honest_sender(s)
    n, c = s.total_agents, s.colluders
    return 1.0 - s.p_f * (n - c - 1) / n


def sender_distribution(s: AdversaryScenario) -> SenderDistribution:
    """Posterior over the N - C honest candidates: the observed
    predecessor gets predecessor_probability, every other honest agent
    gets p_f / N."""
    _require_honest_sender(s)
    n, c = s.total_agents, s.colluders
    return SenderDistribution(
        predecessor=predecessor_probability(s),
        each_other=s.p_f / n,
        honest_agents=n - c,
    )


def adaptive_entropy(s: AdversaryScenario) -> EntropyReport:
    """Entropy of the adaptive-attack posterior, in closed form."""
    d = sender_distribution(s)
    entropy = -_plog2p(d.predecessor) - (d.honest_agents - 1) * _plog2p(d.each_other)
    return _report(entropy, d.honest_agents)


def escape_probability(s: AdversaryScenario) -> float:
    """Probability that no colluder ever appears on the forwarding path:
    1 - C / (N - p_f * (N - C)), the closed form of the geometric-series
    sum over path lengths."""
    n, c = s.total_agents, s.colluders
    denominator = n - s.p_f * (n - c)
    if denominator <= 0:
        raise InvalidScenarioError("escape probability undefined: p_f too large")
    return 1.0 - c / denominator


def static_entropy(s: AdversaryScenario) -> EntropyReport:
    """Static-attack closed form, evaluated verbatim in its original
    printed shape.

    The expression mixes a signed first term with a composite second term
    and does not reduce to the adaptive form at C = 0; it can return
    negative values, so the report carries as_printed=True and skips the
    [0, max] entropy check.  Use monte_carlo_entropy for a
    simulation-based static estimate; the two are expected to diverge.
    """
    _require_honest_sender(s)
    n, c = s.total_agents, s.colluders
    p_f = s.p_f
    intercepted = c / (n - p_f * (n - c))  # 1 - escape probability
    escaped = 1.0 - intercepted
    # The predecessor probability in its printed shape: it does not round
    # like predecessor_probability's 1 - p_f(N-C-1)/N, so it is not reused.
    p1 = (n - p_f * (n - c - 1)) / n
    first = -intercepted * _plog2p(p1)
    coefficient = escaped * p_f * (n - c - 1) / n
    inner = (p_f / n) * escaped
    second = coefficient * math.log2(inner) if coefficient > 0.0 else 0.0
    return _report(first + second, n - c, as_printed=True)


def mean_path_length(p_f):
    """Expected number of agents on a walk path, (2 - p_f) / (1 - p_f).

    Accepts float or fractions.Fraction; exact inputs yield exact results
    (binary floats carry the usual representation error, e.g. the float
    0.8 gives 6.000000000000001 rather than 6).
    """
    if not 0 <= p_f < 1:
        raise ValueError(f"p_f must lie in [0, 1), got {p_f}")
    return (2 - p_f) / (1 - p_f)


def recommended_pf_range(
    min_rounds: float = 4.0, max_rounds: float = 6.0
) -> tuple[float, float]:
    """Forwarding-probability window whose mean path lengths span
    [min_rounds, max_rounds], quantized down to two decimals so the lower
    edge never overshoots the exact solution.  Defaults give (0.66, 0.8).
    """
    if not 2.0 < min_rounds <= max_rounds:
        raise ValueError("rounds must satisfy 2 < min_rounds <= max_rounds")

    def invert(mean: float) -> float:
        return math.floor((mean - 2.0) / (mean - 1.0) * 100.0) / 100.0

    return invert(min_rounds), invert(max_rounds)


@dataclass(frozen=True, slots=True)
class MonteCarloEntropy:
    report: EntropyReport
    ci_low: float
    ci_high: float
    trials: int
    observations: int
    observation_rate: float


def _entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each probability row; 0 log 0 := 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log2(probs), 0.0)
    return -terms.sum(axis=-1)


def _simulate_walks(
    n: int,
    c: int,
    p_f: float,
    trials: int,
    rng: np.random.Generator,
    recipient_observes: bool,
) -> tuple[np.ndarray, int]:
    """Vectorised walk trials with the originator fixed at honest index 0
    and colluders occupying indices N-C .. N-1.

    Every hop selects uniformly over the whole population, matching the
    closed-form model (the platform walk engine differs only in that it
    excludes the current holder from the pool).  Returns the per-honest-
    agent count of observed predecessors plus the number of walks that
    ended unobserved.  With recipient_observes (no-colluder limit), the
    final holder acts as observer, so every walk yields an observation.
    """
    honest = n - c
    counts = np.zeros(honest, dtype=np.int64)
    misses = 0
    if c == 0 and not recipient_observes:
        return counts, trials
    # `pred` holds, per live trial, the honest agent currently holding the
    # message (the would-be observed predecessor of the next receiver).
    pred = np.zeros(trials, dtype=np.int64)
    while pred.size:
        receiver = rng.integers(0, n, size=pred.size)
        if c > 0:
            hit = receiver >= honest
            if hit.any():
                counts += np.bincount(pred[hit], minlength=honest)
                pred = pred[~hit]
                receiver = receiver[~hit]
            if pred.size == 0:
                break
        forward = rng.random(pred.size) < p_f
        stopped = ~forward
        if stopped.any():
            if c > 0:
                misses += int(stopped.sum())
            else:
                counts += np.bincount(pred[stopped], minlength=honest)
        pred = receiver[forward]
    return counts, misses


def monte_carlo_entropy(
    s: AdversaryScenario,
    trials: int,
    seed: int = 0,
    bootstrap: int = 200,
) -> MonteCarloEntropy:
    """Estimate the adversary's inference entropy by simulating walks.

    Adaptive attacks condition on interception: walks that never meet a
    colluder are discarded (with C = 0 the delivered-to agent serves as
    the observer).  Static attacks keep every walk; an unintercepted walk
    contributes a uniform posterior over all honest agents.  The 95%
    confidence interval comes from a multinomial bootstrap over trials.
    Bit-identical results for a fixed seed.
    """
    _require_honest_sender(s)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if bootstrap < 1:
        raise ValueError("bootstrap must be >= 1")
    n, c = s.total_agents, s.colluders
    honest = n - c
    rng = np.random.default_rng(seed)
    adaptive = s.attack is AttackKind.ADAPTIVE
    counts, misses = _simulate_walks(
        n, c, s.p_f, trials, rng, recipient_observes=adaptive and c == 0
    )
    observations = int(counts.sum())

    if adaptive:
        if observations == 0:
            raise RuntimeError(
                "no walk met a colluder; raise trials to estimate the "
                "adaptive posterior"
            )
        probs = counts / observations
        entropy = float(_entropy_rows(probs))
        resampled = rng.multinomial(observations, probs, size=bootstrap)
        entropies = _entropy_rows(resampled / observations)
        rate = observations / trials
    else:
        weights = counts + misses / honest
        probs = weights / trials
        entropy = float(_entropy_rows(probs))
        categories = np.append(counts, misses) / trials
        resampled = rng.multinomial(trials, categories, size=bootstrap)
        boot_weights = resampled[:, :honest] + resampled[:, honest:] / honest
        entropies = _entropy_rows(boot_weights / trials)
        rate = observations / trials

    low, high = np.percentile(entropies, [2.5, 97.5])
    return MonteCarloEntropy(
        report=_report(entropy, honest),
        ci_low=float(low),
        ci_high=float(high),
        trials=trials,
        observations=observations,
        observation_rate=rate,
    )


ENTROPY_CSV_COLUMNS = (
    "n_agents",
    "colluders",
    "p_f",
    "attack",
    "entropy_bits",
    "max_entropy_bits",
    "degree_of_anonymity",
    "as_printed",
    "mc_entropy_bits",
    "mc_ci_low",
    "mc_ci_high",
    "mc_trials",
)


def evaluate_scenarios(
    scenarios: Iterable[AdversaryScenario],
    oracle_trials: Optional[int] = None,
    seed: int = 0,
    bootstrap: int = 200,
) -> list[dict]:
    """Closed-form evaluation of each scenario, optionally cross-checked
    by the simulation oracle; returns one CSV-ready row per scenario."""
    rows = []
    for index, s in enumerate(scenarios):
        closed = (
            adaptive_entropy(s)
            if s.attack is AttackKind.ADAPTIVE
            else static_entropy(s)
        )
        row = {
            "n_agents": s.total_agents,
            "colluders": s.colluders,
            "p_f": s.p_f,
            "attack": s.attack.value,
            "entropy_bits": closed.entropy_bits,
            "max_entropy_bits": closed.max_entropy_bits,
            "degree_of_anonymity": closed.degree_of_anonymity,
            "as_printed": closed.as_printed,
            "mc_entropy_bits": "",
            "mc_ci_low": "",
            "mc_ci_high": "",
            "mc_trials": "",
        }
        if oracle_trials:
            per_row_seed = (seed * 1_000_003 + index) % 2**63
            mc = monte_carlo_entropy(
                s, oracle_trials, seed=per_row_seed, bootstrap=bootstrap
            )
            row.update(
                mc_entropy_bits=mc.report.entropy_bits,
                mc_ci_low=mc.ci_low,
                mc_ci_high=mc.ci_high,
                mc_trials=mc.trials,
            )
        rows.append(row)
    return rows


def write_entropy_csv(rows: Sequence[dict], stream: IO[str]) -> None:
    writer = csv.DictWriter(stream, fieldnames=ENTROPY_CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
