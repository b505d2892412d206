import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temporal_pluralism.environment import (
    DeliveryConfig,
    DeliveryGridEnv,
    InvalidActionError,
    RestaurantConfig,
    RestaurantEnv,
    Trajectory,
    cycle_policy,
    random_policy,
    replay,
    rollout,
    sequence_policy,
)


def make_restaurant(n=3):
    types = ("italian", "sushi", "taco", "indian", "bistro")[:n]
    return RestaurantEnv(
        RestaurantConfig(n_friends=n, restaurant_types=types, preferred=types)
    )


class TestTrajectory:
    def test_lengths_must_agree(self):
        with pytest.raises(ValueError):
            Trajectory(states=("a",), actions=("x",), labels=(frozenset(),))
        with pytest.raises(ValueError):
            Trajectory(states=("a", "b"), actions=("x",), labels=())

    def test_horizon_zero(self):
        t = Trajectory(states=("a",), actions=(), labels=())
        assert t.horizon == 0
        assert t.prefix(0) == t

    def test_prefix(self):
        t = Trajectory(
            states=("a", "b", "c"),
            actions=("x", "y"),
            labels=(frozenset({"p"}), frozenset()),
        )
        p = t.prefix(1)
        assert p.states == ("a", "b")
        assert p.actions == ("x",)
        assert p.labels == (frozenset({"p"}),)
        assert t.prefix(2) == t

    def test_prefix_out_of_range(self):
        t = Trajectory(states=("a",), actions=(), labels=())
        with pytest.raises(ValueError):
            t.prefix(1)
        with pytest.raises(ValueError):
            t.prefix(-1)


class TestRestaurant:
    def test_alphabet_lists_every_friend_then_visit(self):
        env = make_restaurant(3)
        assert env.alphabet == ("served_1", "served_2", "served_3", "visit")

    def test_label_marks_the_matching_friends(self):
        env = make_restaurant(3)
        rng = random.Random(0)
        _, lab = env.step(0, "sushi", rng)
        assert lab == frozenset({"served_2", "visit"})

    def test_nobody_preferring_a_type_still_visits(self):
        env = RestaurantEnv(
            RestaurantConfig(
                n_friends=1, restaurant_types=("italian", "sushi"), preferred=("italian",)
            )
        )
        _, lab = env.step(0, "sushi", random.Random(0))
        assert lab == frozenset({"visit"})

    def test_shared_preference_serves_both(self):
        env = RestaurantEnv(
            RestaurantConfig(
                n_friends=2, restaurant_types=("italian",), preferred=("italian", "italian")
            )
        )
        _, lab = env.step(0, "italian", random.Random(0))
        assert lab == frozenset({"served_1", "served_2", "visit"})

    def test_unknown_action(self):
        env = make_restaurant(2)
        with pytest.raises(InvalidActionError):
            env.step(0, "fondue", random.Random(0))

    def test_state_counts_visits(self):
        env = make_restaurant(2)
        state = env.reset(0)
        for k in range(3):
            assert env.state_id(state) == f"v{k}"
            state, _ = env.step(state, "italian", random.Random(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RestaurantConfig(n_friends=2, restaurant_types=("a",), preferred=("a",))
        with pytest.raises(ValueError):
            RestaurantConfig(n_friends=1, restaurant_types=("a",), preferred=("b",))
        with pytest.raises(ValueError):
            RestaurantConfig(n_friends=1, restaurant_types=("a", "a"), preferred=("a",))


class TestDelivery:
    @pytest.fixture
    def env(self):
        return DeliveryGridEnv(
            DeliveryConfig(width=3, height=1, start=(1, 0), recipients=((0, 0), (2, 0)))
        )

    def test_moves_clamp_at_the_edge(self, env):
        rng = random.Random(0)
        state = env.reset(0)
        state, _ = env.step(state, "west", rng)
        state, _ = env.step(state, "west", rng)
        assert state[:2] == (0, 0)
        state, _ = env.step(state, "north", rng)
        assert state[:2] == (0, 0)

    def test_deliver_labels_the_recipient(self, env):
        rng = random.Random(0)
        state = env.reset(0)
        state, _ = env.step(state, "west", rng)
        state, lab = env.step(state, "deliver", rng)
        assert lab == frozenset({"delivered_1"})

    def test_deliver_nowhere_is_a_quiet_step(self, env):
        rng = random.Random(0)
        state, lab = env.step(env.reset(0), "deliver", rng)
        assert lab == frozenset()

    def test_second_delivery_same_round_is_quiet(self, env):
        rng = random.Random(0)
        state = env.reset(0)
        state, _ = env.step(state, "west", rng)
        state, _ = env.step(state, "deliver", rng)
        state, lab = env.step(state, "deliver", rng)
        assert lab == frozenset()

    def test_round_completes_when_everyone_has_one(self, env):
        rng = random.Random(0)
        state = env.reset(0)
        plan = ["west", "deliver", "east", "east", "deliver"]
        labs = []
        for a in plan:
            state, lab = env.step(state, a, rng)
            labs.append(lab)
        assert labs[-1] == frozenset({"delivered_2", "round_complete"})
        # the flags reset, so the same spot can deliver again next round
        state, lab = env.step(state, "deliver", rng)
        assert lab == frozenset({"delivered_2"})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeliveryConfig(width=0, height=1, start=(0, 0), recipients=((0, 0),))
        with pytest.raises(ValueError):
            DeliveryConfig(width=2, height=1, start=(5, 0), recipients=((0, 0),))
        with pytest.raises(ValueError):
            DeliveryConfig(width=2, height=1, start=(0, 0), recipients=())
        with pytest.raises(ValueError):
            DeliveryConfig(width=2, height=1, start=(0, 0), recipients=((0, 0), (0, 0)))


class TestRollout:
    def test_horizon_zero(self):
        env = make_restaurant(2)
        t = rollout(env, cycle_policy(("italian",)), horizon=0)
        assert t.horizon == 0
        assert t.states == ("v0",)

    def test_always_policy_feeds_one_friend(self):
        env = make_restaurant(2)
        t = rollout(env, cycle_policy(("italian",)), horizon=3)
        assert all(lab == frozenset({"served_1", "visit"}) for lab in t.labels)

    def test_cycle_policy_round_robins(self):
        env = make_restaurant(2)
        t = rollout(env, cycle_policy(("italian", "sushi")), horizon=4)
        assert t.actions == ("italian", "sushi", "italian", "sushi")

    def test_sequence_policy_exhaustion(self):
        env = make_restaurant(2)
        with pytest.raises(InvalidActionError):
            rollout(env, sequence_policy(("italian",)), horizon=2)

    def test_each_action_is_read_just_before_its_step(self):
        # The env refuses step 1's action before the policy is asked for step 2.
        env = make_restaurant(2)
        with pytest.raises(InvalidActionError, match="unknown restaurant type 'fondue'"):
            rollout(env, sequence_policy(("fondue",)), horizon=2)

    def test_random_policy_reproducible(self):
        env = make_restaurant(3)
        pol = random_policy(env.actions)
        a = rollout(env, pol, horizon=6, seed=11)
        b = rollout(env, pol, horizon=6, seed=11)
        assert a == b
        c = rollout(env, pol, horizon=6, seed=12)
        assert a != c  # different stream, almost surely a different sequence

    def test_replay_fixed_actions(self):
        env = make_restaurant(2)
        t = replay(env, ("sushi", "italian"))
        assert t.actions == ("sushi", "italian")
        assert t.labels[0] == frozenset({"served_2", "visit"})

    def test_negative_horizon(self):
        env = make_restaurant(2)
        with pytest.raises(ValueError):
            rollout(env, cycle_policy(("italian",)), horizon=-1)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 5))
def test_rollout_prefix_property(total, k, seed):
    env = make_restaurant(3)
    k = min(k, total)
    pol = random_policy(env.actions)
    long = rollout(env, pol, horizon=total, seed=seed)
    short = rollout(env, pol, horizon=k, seed=seed)
    assert long.prefix(k) == short
    assert replay(env, long.actions) == long


@given(st.lists(st.sampled_from(("italian", "sushi", "taco")), max_size=10))
def test_served_counts_add_up(actions):
    env = make_restaurant(3)
    t = replay(env, actions)
    total_served = sum(
        sum(1 for lab in t.labels if f"served_{i}" in lab) for i in (1, 2, 3)
    )
    # with one friend per type, every visit serves exactly one friend
    assert total_served == len(actions)


delivery_actions = st.lists(
    st.sampled_from(("north", "south", "east", "west", "deliver")), max_size=14
)


@given(delivery_actions)
def test_round_complete_needs_everyone(actions):
    env = DeliveryGridEnv(
        DeliveryConfig(width=3, height=1, start=(1, 0), recipients=((0, 0), (2, 0)))
    )
    t = replay(env, actions)
    rounds = 0
    delivered = [0, 0]
    for lab in t.labels:
        for i in (0, 1):
            if f"delivered_{i + 1}" in lab:
                delivered[i] += 1
        if "round_complete" in lab:
            rounds += 1
        assert rounds <= min(delivered)
