"""Random-walk forwarding tests: the forwarding coin, proxy choice and
full walks, all observed through run_walk."""

import math
import random

import pytest
from scipy import stats

from stegrouter.walk import run_walk


class BoundedRandom(random.Random):
    """A generator that counts its draws and fails after 10^4 of them."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def _count(self):
        self.draws += 1
        if self.draws > 10_000:
            raise RuntimeError("walk still drawing after 10^4 draws")

    def random(self):
        self._count()
        return super().random()

    def randrange(self, *args):
        self._count()
        return super().randrange(*args)

    def getrandbits(self, k):
        self._count()
        return super().getrandbits(k)


def walk_lengths(p_f, n_walks, seed, population_size=40):
    rng = random.Random(seed)
    population = list(range(population_size))
    return [len(run_walk(0, p_f, population, rng)) for _ in range(n_walks)]


class TestForwardDecision:
    """The coin each holder after the originator flips: forward with
    probability p_f, otherwise deliver."""

    def test_pf_zero_always_delivers(self):
        rng = random.Random(0)
        assert all(len(run_walk(0, 0.0, list(range(5)), rng)) == 2 for _ in range(1000))

    def test_bernoulli_rate(self):
        # ~10^6 coins at p_f = 0.75: forward fraction within +/- 0.002.
        # A walk of length k flips k-1 coins and forwards on k-2 of them.
        rng = random.Random(11)
        population = list(range(40))
        coins = forwarded = 0
        while coins < 1_000_000:
            length = len(run_walk(0, 0.75, population, rng))
            coins += length - 1
            forwarded += length - 2
        assert abs(forwarded / coins - 0.75) < 0.002

    def test_seeded_replay_is_identical(self):
        a = [run_walk(0, pf, list(range(9)), random.Random(42)) for pf in (0.5, 0.66, 0.75)]
        b = [run_walk(0, pf, list(range(9)), random.Random(42)) for pf in (0.5, 0.66, 0.75)]
        assert a == b

    def test_pf_domain(self):
        # checked before any draw, so a bad p_f consumes no randomness
        rng = random.Random(0)
        state = rng.getstate()
        for p_f in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError):
                run_walk(0, p_f, [0, 1], rng)
        assert rng.getstate() == state


class TestChooseNextProxy:
    """Each send picks the next holder uniformly from the population,
    excluding only the current holder."""

    def test_two_agents_forced_choice(self):
        rng = random.Random(0)
        assert run_walk(1, 0.0, [1, 2], rng) == [1, 2]
        for _ in range(100):
            path = run_walk(1, 0.9, [1, 2], rng)
            assert path == [1, 2] * (len(path) // 2) + [1] * (len(path) % 2)

    def test_no_candidates(self):
        # fewer than two distinct agents is rejected before the first
        # draw, whatever the seed; a walk that keeps drawing fails instead
        # of hanging
        for population, originator in (([], 1), ([3], 3), ([3, 3], 3), ([5], 0)):
            for seed in range(20):
                rng = BoundedRandom(seed)
                with pytest.raises(ValueError, match="two distinct"):
                    run_walk(originator, 0.5, population, rng)
                assert rng.draws == 0

    def test_uniform_over_other_candidates(self):
        # 100 agents, 10^6 first sends: each of the 99 candidates within
        # 3 sigma of 1/99, and a chi-square GOF does not reject uniformity
        # at alpha=0.01.
        rng = random.Random(17)
        population = list(range(100))
        draws = 1_000_000
        counts = [0] * 100
        for _ in range(draws):
            counts[run_walk(0, 0.0, population, rng)[1]] += 1
        assert counts[0] == 0
        expected = draws / 99
        sigma = math.sqrt(draws * (1 / 99) * (98 / 99))
        for c in counts[1:]:
            assert abs(c - expected) < 3.2 * sigma
        _, p_value = stats.chisquare(counts[1:])
        assert p_value > 0.01

    def test_uniform_over_other_candidates_at_a_stated_rate(self):
        # 100 agents, 10^6 first sends: each of the 99 candidates within
        # 4.42 sigma of 1/99.  Each count misses with probability 9.9e-6,
        # so by the Bonferroni bound a correct engine fails at most 0.1%
        # of seeds.
        rng = random.Random(1017)
        population = list(range(100))
        draws = 1_000_000
        counts = [0] * 100
        for _ in range(draws):
            counts[run_walk(0, 0.0, population, rng)[1]] += 1
        assert counts[0] == 0
        expected = draws / 99
        sigma = math.sqrt(draws * (1 / 99) * (98 / 99))
        for c in counts[1:]:
            assert abs(c - expected) < 4.42 * sigma

    def test_only_population_members_selected(self):
        # the caller passes the live population; nothing outside it can appear
        rng = random.Random(3)
        population = [2, 5, 8, 13]
        for _ in range(500):
            assert set(run_walk(5, 0.75, population, rng)) <= set(population)


class TestRunWalk:
    def test_pf_zero_path_length_two(self):
        rng = random.Random(0)
        path = run_walk(7, 0.0, list(range(10)), rng)
        assert len(path) == 2
        assert path[0] == 7

    def test_fixed_seed_paths_are_pinned(self):
        # exact paths for fixed seeds, recorded before the walk engine was
        # reduced to one loop: they pin the order of the rng.randrange and
        # rng.random draws, which every simulated discovery depends on
        rng = random.Random(2024)
        assert [run_walk(3, 0.75, list(range(10)), rng) for _ in range(6)] == [
            [3, 7, 9, 6], [3, 4, 7, 8, 3, 5, 3, 7], [3, 2, 6],
            [3, 5, 7, 2], [3, 6, 3, 6, 3], [3, 6, 0, 4],
        ]
        rng = random.Random(7)
        assert [run_walk(0, 0.5, [0, 4, 9], rng) for _ in range(4)] == [
            [0, 4], [0, 4], [0, 9, 0], [0, 4, 0, 4, 9, 0],
        ]

    def test_no_immediate_self_handoff(self):
        rng = random.Random(5)
        for _ in range(300):
            path = run_walk(0, 0.85, list(range(8)), rng)
            for here, there in zip(path, path[1:]):
                assert here != there

    def test_mean_length_pf_066(self):
        # (2 - 0.66) / (1 - 0.66) = 3.9412, tolerance +/- 0.02
        lengths = walk_lengths(0.66, 200_000, seed=23)
        mean = sum(lengths) / len(lengths)
        assert abs(mean - (2 - 0.66) / (1 - 0.66)) < 0.02

    def test_mean_length_pf_08(self):
        # (2 - 0.8) / (1 - 0.8) = 6, tolerance +/- 0.02; variance of the
        # geometric length at p_f=0.8 is 20, so 200k walks give sigma ~ 0.01
        lengths = walk_lengths(0.8, 200_000, seed=29)
        mean = sum(lengths) / len(lengths)
        assert abs(mean - 6.0) < 0.02

    def test_mean_length_pf_08_at_a_stated_rate(self):
        # sigma = sqrt(20 / 200k) = 0.01, so the tolerance +/- 0.0329 is
        # 3.29 sigma and a correct engine fails 0.1% of seeds
        lengths = walk_lengths(0.8, 200_000, seed=1029)
        mean = sum(lengths) / len(lengths)
        assert abs(mean - 6.0) < 0.0329

    def test_length_distribution_matches_geometric(self):
        # P(len = k) = p_f^(k-2) (1 - p_f) for k >= 2; chi-square at alpha=0.01
        p_f = 0.75
        lengths = walk_lengths(p_f, 100_000, seed=31)
        assert min(lengths) >= 2
        cap = 20
        observed = [0] * (cap + 1)
        for l in lengths:
            observed[min(l, cap)] += 1
        n = len(lengths)
        expected = [n * p_f ** (k - 2) * (1 - p_f) for k in range(2, cap)]
        expected.append(n * p_f ** (cap - 2))  # tail bucket: len >= cap
        _, p_value = stats.chisquare(observed[2:], expected)
        assert p_value > 0.01

    def test_seeded_walks_replay(self):
        first = [run_walk(1, 0.75, list(range(30)), random.Random(9))
                 for _ in range(5)]
        second = [run_walk(1, 0.75, list(range(30)), random.Random(9))
                  for _ in range(5)]
        assert first == second

    def test_revisits_are_allowed(self):
        # earlier path members may be chosen again (only the holder is excluded)
        rng = random.Random(2)
        squeezed = False
        for _ in range(2000):
            path = run_walk(0, 0.9, [0, 1, 2], rng)
            if len(path) != len(set(path)):
                squeezed = True
                break
        assert squeezed

    def test_relays_are_role_blind(self):
        # forwarding cannot depend on agent kind: the walk API receives bare
        # ids and a coin, nothing else, and relay load spreads evenly over
        # any arbitrary designation of ids as steg-capable
        import inspect
        params = set(inspect.signature(run_walk).parameters)
        assert not params & {"kind", "kinds", "roles", "capabilities"}
        population = list(range(12))
        relay_counts = [0] * 12
        rng = random.Random(41)
        for _ in range(2000):
            for hop in run_walk(0, 0.8, population, rng)[1:-1]:
                relay_counts[hop] += 1
        designated = sum(relay_counts[i] for i in range(0, 12, 2))
        total = sum(relay_counts)
        assert total > 0
        # arbitrary even/odd split of ids: shares equal within 5 sigma
        sigma = math.sqrt(total * 0.5 * 0.5)
        assert abs(designated - total / 2) < 5 * sigma

class TestWalkState:
    """The walk's state (current holder, sends so far), step by step: a
    draw-by-draw replay from an identically seeded generator."""

    @staticmethod
    def step(rng, holder, population):
        nxt = population[rng.randrange(len(population))]
        while nxt == holder:
            nxt = population[rng.randrange(len(population))]
        return nxt

    def test_first_send_is_unconditional(self):
        # p_f = 0 never passes the coin, yet the originator still sends once;
        # the walk then delivers at the first relay
        for seed in range(20):
            path = run_walk(0, 0.0, [0, 1], random.Random(seed))
            assert path == [0, 1]

    def test_delivery_freezes_the_state(self):
        # after the delivering coin nothing more is drawn: the generator is
        # left exactly where one send and one coin leave it
        population = list(range(6))
        for seed in range(20):
            walked, replay = random.Random(seed), random.Random(seed)
            path = run_walk(2, 0.0, population, walked)
            assert path == [2, self.step(replay, 2, population)]
            replay.random()
            assert walked.getstate() == replay.getstate()

    def stepped_walk(self, rng, originator, p_f, population):
        holder, path = originator, [originator]
        while True:
            holder = self.step(rng, holder, population)
            path.append(holder)
            if rng.random() >= p_f:
                return path

    def test_stepping_reproduces_run_walk(self):
        # one send per step and a coin after every send gives the same path
        population = list(range(20))
        for seed in range(25):
            path = run_walk(7, 0.75, population, random.Random(seed))
            assert self.stepped_walk(random.Random(seed), 7, 0.75, population) == path

    @pytest.mark.parametrize("size", [2, 3, 255, 256, 257, 1000, 1024, 1025])
    def test_draws_are_randrange_draws(self, size):
        # run_walk draws its indices without calling randrange, yet must
        # draw exactly what rng.randrange(len(population)) draws, also at
        # and around powers of two, and leave the generator where it leaves
        population = list(range(size))
        for seed in range(25):
            walked, replay = random.Random(seed), random.Random(seed)
            path = run_walk(1, 0.75, population, walked)
            assert self.stepped_walk(replay, 1, 0.75, population) == path
            assert walked.getstate() == replay.getstate()


class TestFullScaleWalks:
    @pytest.mark.slow
    @pytest.mark.parametrize("p_f", [0.5, 0.66, 0.75, 0.8])
    def test_mean_length_million_walks(self, p_f):
        # full-scale check of the closed-form mean at every recommended
        # operating point and both documented extremes
        lengths = walk_lengths(p_f, 1_000_000, seed=int(p_f * 100))
        mean = sum(lengths) / len(lengths)
        target = (2 - p_f) / (1 - p_f)
        assert abs(mean - target) / target < 0.01
