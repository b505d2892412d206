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
from temporal_pluralism.serialize import load_env


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
        with pytest.raises(InvalidActionError, match=r"^unknown restaurant type 'fondue'$"):
            env.step(0, "fondue", random.Random(0))
        with pytest.raises(InvalidActionError, match=r"^unknown restaurant type '\['italian'\]'$"):
            env.step(0, ["italian"], None)  # unhashable

    @pytest.mark.parametrize("name", ["restaurant2", "restaurant3", "restaurant5", "greedy_trap"])
    def test_each_label_follows_the_preferences(self, fixtures_dir, name):
        env = load_env(fixtures_dir / f"{name}.env")
        assert isinstance(env, RestaurantEnv)
        for action in env.actions:
            served = {
                f"served_{i + 1}" for i, pref in enumerate(env.config.preferred) if pref == action
            }
            assert env.step(4, action, None) == (5, frozenset(served | {"visit"}))

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

    def test_unknown_action(self, env):
        with pytest.raises(InvalidActionError, match=r"^unknown action 'teleport'$"):
            env.step(env.reset(0), "teleport", None)


def scanning_delivery_step(config, state, action):
    """A delivery step by the rule as first written: scan the recipients
    for one on this cell still waiting for this round's good."""
    x, y, done = state
    if action != "deliver":
        dx, dy = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0)}[action]
        x = min(max(x + dx, 0), config.width - 1)
        y = min(max(y + dy, 0), config.height - 1)
        return (x, y, done), frozenset()
    atoms, new_done = set(), list(done)
    for i, cell in enumerate(config.recipients):
        if cell == (x, y) and not done[i]:
            new_done[i] = True
            atoms.add(f"delivered_{i + 1}")
            break
    if atoms and all(new_done):
        atoms.add("round_complete")
        new_done = [False] * len(new_done)
    return (x, y, tuple(new_done)), frozenset(atoms)


def generated_grid(seed):
    rng = random.Random(seed)
    width, height = rng.randint(2, 4), rng.randint(1, 3)
    cells = [(x, y) for x in range(width) for y in range(height)]
    recipients = rng.sample(cells, rng.randint(2, 3))
    return DeliveryConfig(width, height, rng.choice(cells), tuple(recipients))


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
def test_delivery_step_matches_the_recipient_scan(fixtures_dir, seed):
    """Every reachable state x action, stepped twice: the first call runs
    the rule and the second reads the recorded transition, and both give
    the next state and label the scan over recipients gives.  Every state
    id is the x{x}y{y}d{flags} rendering, and the tables hold one entry per
    distinct pair or state taken."""
    if seed is None:
        env = load_env(fixtures_dir / "delivery2.env")
    else:
        env = DeliveryGridEnv(generated_grid(seed))
    seen = {env.reset(0)}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        x, y, done = state
        rendered = f"x{x}y{y}d{''.join('1' if d else '0' for d in done)}"
        assert env.state_id(state) == env.state_id(state) == rendered
        for action in env.actions:
            expected = scanning_delivery_step(env.config, state, action)
            assert env.step(state, action, None) == expected
            assert env.step(state, action, None) == expected
            nxt = expected[0]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) >= env.config.width * env.config.height
    assert len(env._steps) == len(seen) * len(env.actions)
    assert len(env._ids) == len(seen)


@pytest.mark.parametrize("action", ["teleport", "", ["north"], {"deliver": 1}])
def test_an_unknown_delivery_action_is_refused_on_every_call(action):
    """Hashable or not, an unknown action raises each time and is never
    recorded, before and after the state's known pairs are."""
    env = DeliveryGridEnv(generated_grid(0))
    state = env.reset(0)
    for _ in range(2):
        with pytest.raises(InvalidActionError, match=r"^unknown action "):
            env.step(state, action, None)
        assert env._steps == {}
    env.step(state, "north", None)
    with pytest.raises(InvalidActionError):
        env.step(state, action, None)
    assert list(env._steps) == [(state, "north")]


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

    def test_cycle_policy_needs_an_action(self):
        with pytest.raises(ValueError, match="cycle needs at least one action"):
            cycle_policy(())

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
