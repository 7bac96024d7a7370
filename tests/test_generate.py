import pytest

from fta import (
    DEFAULT_SIGNATURE,
    Automaton,
    GenParams,
    SplitMix64,
    Var,
    positions,
    random_automaton,
    random_term,
    render_automaton,
    render_term,
    subterm_at,
    variables,
)

from conftest import depth


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for the splitmix64 recurrence, seed 1234567
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_below_bounds(self):
        rng = SplitMix64(99)
        draws = [rng.below(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        assert len(set(draws)) == 7


class TestRandomTerm:
    def test_deterministic(self):
        p = GenParams(seed=7, max_depth=2, var_pool=2)
        assert render_term(random_term(p)) == render_term(random_term(p))

    def test_depth_zero_gives_leaf(self):
        for seed in range(20):
            t = random_term(GenParams(seed=seed, max_depth=0, var_pool=0))
            assert depth(t) == 0
            assert variables(t) == frozenset()

    @pytest.mark.parametrize("seed", range(30))
    def test_structural_bounds(self, seed):
        params = GenParams(seed=seed, max_depth=3, var_pool=4)
        t = random_term(params)
        assert depth(t) <= 3
        assert variables(t) <= {1, 2, 3, 4}

    @pytest.mark.parametrize("seed", range(30))
    def test_linear(self, seed):
        t = random_term(GenParams(seed=seed, max_depth=4, var_pool=4))
        leaves = [s for p in positions(t) if isinstance(s := subterm_at(t, p), Var)]
        assert len(leaves) == len(set(leaves))


class TestRandomAutomaton:
    def test_deterministic(self):
        p = GenParams(seed=11, state_count=3)
        assert render_automaton(random_automaton(p)) == render_automaton(random_automaton(p))

    @pytest.mark.parametrize("seed", range(20))
    def test_valid_and_complete(self, seed):
        aut = random_automaton(GenParams(seed=seed, state_count=3))
        assert Automaton(DEFAULT_SIGNATURE, aut.states, aut.final, aut.rules) == aut
        assert aut.final

    def test_single_state_collapse(self):
        aut = random_automaton(GenParams(seed=5, state_count=1))
        assert set(aut.rules.values()) == {"q0"}


class TestGenParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenParams(state_count=0)
        with pytest.raises(ValueError):
            GenParams(max_depth=-1)

    def test_depth_is_at_most_64(self):
        assert GenParams(max_depth=64).max_depth == 64
        with pytest.raises(ValueError, match=r"max_depth must be in 0\.\.64"):
            GenParams(max_depth=65)
