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

The closed forms use the standard library alone; numpy is imported by the
Monte-Carlo oracle, on its first call.
"""
from __future__ import annotations

import csv
import math
import os
import queue
import threading
from dataclasses import dataclass
from enum import Enum
from typing import IO, TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
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
        import numpy as np

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
    # 0.0 - x, unlike -x, gives 0.0 and not -0.0 for a certain sender.
    entropy = 0.0 - _plog2p(d.predecessor) - (d.honest_agents - 1) * _plog2p(d.each_other)
    return _report(entropy, d.honest_agents)


def escape_probability(s: AdversaryScenario) -> float:
    """Probability that no colluder ever appears on the forwarding path:
    1 - C / (N - p_f * (N - C)), the closed form of the geometric-series
    sum over path lengths.

    A valid scenario (N >= 2, 0 <= C <= N, 0 <= p_f < 1) keeps the
    denominator at least max(C, N(1 - p_f)) > 0, so the value lies in
    [0, 1].  Rounding keeps it there too: p_f * x rounds below x for any
    float x > 0 and p_f < 1."""
    n, c = s.total_agents, s.colluders
    return 1.0 - c / (n - s.p_f * (n - c))


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
    """Shannon entropy (bits) of each probability row; 0 log 0 := 0.
    Overwrites `probs` with the p * log2(p) terms."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        zero = ~(probs > 0.0)
        probs *= np.log2(probs)
        probs[zero] = 0.0
    # 0.0 - x, unlike -x, turns a zero sum into 0.0 and never into -0.0.
    return 0.0 - probs.sum(axis=-1)


# Multinomial resamples behind a Monte-Carlo confidence interval.
_BOOTSTRAP = 200

# Elements per bootstrap block: the multinomial rows are drawn, turned into
# probabilities and reduced to entropies a block of rows at a time, so
# neither the whole count matrix nor a float copy of it ever exists.
_BLOCK_ELEMENTS = 1 << 16


def _bootstrap_entropies(
    rng: np.random.Generator,
    total: int,
    pvals: np.ndarray,
    bootstrap: int,
    probabilities,
) -> np.ndarray:
    """Entropies of `bootstrap` multinomial resamples of `total` draws over
    `pvals`, each row of counts turned into probabilities by
    `probabilities` (a row block in, a new float block out).  Drawing the
    rows in blocks gives the same rows as one `multinomial` call of size
    `bootstrap`."""
    import numpy as np

    step = max(1, _BLOCK_ELEMENTS // pvals.size)
    entropies = np.empty(bootstrap)
    for start in range(0, bootstrap, step):
        block = rng.multinomial(total, pvals, size=min(step, bootstrap - start))
        entropies[start:start + len(block)] = _entropy_rows(probabilities(block))
    return entropies


# Trials per chunk of a walk hop: each hop's receivers and forwarding coins
# are drawn, and its walks split, this many at a time, so the int64, float
# and mask temporaries of a hop have a fixed size whatever the trial count.
_CHUNK = 1 << 16

# Chunks the caller may draw ahead of the compaction thread.
_QUEUE_CHUNKS = 4


def _compact(counts, holders, observed, values, moves, out, at):
    """One chunk's compaction: the walks where `moves` is False end, and if
    `observed` their holders are counted as observed predecessors; where
    `moves` is True (everywhere if it is None) the walk's value is packed
    into `out[at:]`, in order."""
    import numpy as np

    # `compress` selects the same elements as boolean indexing, in the same
    # order, at about a third of its cost on random masks.
    if observed:
        counts += np.bincount(holders.compress(~moves), minlength=counts.size)
    moved = values if moves is None else values.compress(moves)
    out[at:at + moved.size] = moved


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _CompactionThread:
    """Runs `_compact` calls on one helper thread, in the order they are
    made, from a queue of at most `_QUEUE_CHUNKS` calls.  An error in the
    thread is raised by `close`; the thread drains the queue either way,
    so the caller never blocks on it."""

    def __init__(self) -> None:
        self._queue: queue.Queue = queue.Queue(_QUEUE_CHUNKS)
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def __call__(self, *args) -> None:
        self._queue.put(args)

    def _run(self) -> None:
        while (args := self._queue.get()) is not None:
            if self._error is None:
                try:
                    _compact(*args)
                except BaseException as error:
                    self._error = error

    def close(self) -> None:
        """Wait for every queued call, end the thread and raise its error."""
        self._queue.put(None)
        self._thread.join()
        if self._error is not None:
            raise self._error


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
    ended unobserved.  With recipient_observes and C = 0 (the no-colluder
    limit), the final holder acts as observer, so every walk yields an
    observation; with C > 0 it has no effect.

    The walk state is two trial-length buffers of the narrowest unsigned
    type that holds N - 1: 2 bytes per trial up to N = 256, 4 up to
    N = 65536 and 8 beyond, where one-shot int64 draws, float coins and
    the index arrays that split them took 30-34.  Each hop is drawn and
    split `_CHUNK` trials at a time, which adds a fixed 1-3 MB.  Chunked
    `integers` and `random` draws give the same numbers as one call of
    the whole size.

    The calling thread makes every draw, in the one-shot order: a hop's
    receivers chunk by chunk, then its coins.  It casts each receiver
    chunk to the state type, computes the chunk's masks and counts them,
    and those counts alone size the next draws.  Each chunk's compaction
    (`_compact`: the observed predecessors' `bincount` and the packing of
    walks into the state buffers) runs on one helper thread in the order
    the chunks were drawn, while the caller draws ahead.  The helper
    starts when the first hop has two or more chunks, serves every hop to
    the last and is joined before the function returns.  The queue holds
    at most `_QUEUE_CHUNKS` chunks, each a state-type receiver or state
    view plus a boolean mask: under 1 MB at N <= 65536.  Calls of at most
    `_CHUNK` trials, and every call in a process allowed on one CPU, run
    `_compact` inline: on one CPU the two threads only take turns.  Only
    the caller touches the generator, and counts are sums of integers, so
    the random stream and every result for a fixed seed are the same as
    drawing and compacting on one thread.
    """
    import numpy as np

    honest = n - c
    counts = np.zeros(honest, dtype=np.int64)
    misses = 0
    if c == 0 and not recipient_observes:
        return counts, trials
    state = np.min_scalar_type(n - 1)
    # Per live trial, `pred[:live]` holds the honest agent currently holding
    # the message (the would-be observed predecessor of the next receiver);
    # within a hop, `kept[:received]` holds the receivers that are honest.
    pred = np.zeros(trials, dtype=state)
    kept = np.empty(trials, dtype=state)
    helper = _CompactionThread() if trials > _CHUNK and _cpus() > 1 else None
    compact = helper or _compact
    live = trials
    try:
        while live:
            # Each live walk hands the message on; a colluder receiving it
            # observes the holder, and that walk ends.
            received = 0
            for start in range(0, live, _CHUNK):
                receiver = rng.integers(0, n, size=min(_CHUNK, live - start)).astype(state)
                honest_receiver = receiver < honest if c else None
                kept_here = receiver.size if c == 0 else int(np.count_nonzero(honest_receiver))
                observed = kept_here < receiver.size
                # With every receiver honest, the whole chunk is kept as is.
                compact(
                    counts, pred[start:start + receiver.size], observed, receiver,
                    honest_receiver if observed else None, kept, received,
                )
                received += kept_here
            # Each honest receiver forwards on a coin.  A walk that stops
            # ends unobserved, or, with C = 0, observed by its recipient (no
            # receiver was removed, so `kept[i]` is still the receiver of
            # `pred[i]`).  Survivors are packed into `pred` behind the chunk
            # being read.
            live = 0
            for start in range(0, received, _CHUNK):
                stop = min(start + _CHUNK, received)
                forward = rng.random(stop - start) < p_f
                compact(counts, pred[start:stop], not c, kept[start:stop], forward, pred, live)
                live += int(np.count_nonzero(forward))
            if c:
                misses += received - live
    finally:
        if helper:
            helper.close()
    return counts, misses


def monte_carlo_entropy(
    s: AdversaryScenario,
    trials: int,
    seed: int = 0,
) -> MonteCarloEntropy:
    """Estimate the adversary's inference entropy by simulating walks.

    Adaptive attacks condition on interception: walks that never meet a
    colluder are discarded (with C = 0 the delivered-to agent serves as
    the observer).  Static attacks keep every walk; an unintercepted walk
    contributes a uniform posterior over all honest agents.  The 95%
    confidence interval comes from a multinomial bootstrap of
    `_BOOTSTRAP` resamples over trials.
    Bit-identical results for a fixed seed.
    """
    import numpy as np

    _require_honest_sender(s)
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
        total, cells = observations, counts

        def probabilities(block: np.ndarray) -> np.ndarray:
            return block / observations
    else:
        # The misses are the last cell; each spreads uniformly over the
        # honest agents.
        total, cells = trials, np.append(counts, misses)

        def probabilities(block: np.ndarray) -> np.ndarray:
            weights = block[..., :honest] + block[..., honest:] / honest
            weights /= trials
            return weights

    entropy = float(_entropy_rows(probabilities(cells)))
    entropies = _bootstrap_entropies(rng, total, cells / total, _BOOTSTRAP, probabilities)
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
) -> list[dict]:
    """Closed-form evaluation of each scenario, cross-checked by the
    simulation oracle unless `oracle_trials` is None; returns one CSV-ready
    row per scenario."""
    if oracle_trials is not None and oracle_trials < 1:
        raise ValueError("oracle_trials must be >= 1")
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
        if oracle_trials is not None:
            per_row_seed = (seed * 1_000_003 + index) % 2**63
            mc = monte_carlo_entropy(s, oracle_trials, seed=per_row_seed)
            row.update(
                mc_entropy_bits=mc.report.entropy_bits,
                mc_ci_low=mc.ci_low,
                mc_ci_high=mc.ci_high,
                mc_trials=mc.trials,
            )
        rows.append(row)
    return rows


def write_entropy_csv(rows: Sequence[dict], stream: IO[str]) -> None:
    writer = csv.DictWriter(stream, fieldnames=ENTROPY_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
