"""Scoring and optimizing sequential decisions for groups of stakeholders
whose preferences stretch over time.

The pieces: `formula` (propositional guards), `machine` (reward machines),
`environment` (labelled environments and trajectories), `scheme` (status
functions, aggregation, filters, and the pluralism score), `optimize`
(exhaustive, greedy, and memory-augmented learners), `serialize` (text
formats), `cli` (the `pluralism` command).
"""

from .environment import (
    DeliveryConfig,
    DeliveryGridEnv,
    RestaurantConfig,
    RestaurantEnv,
    Trajectory,
    cycle_policy,
    random_policy,
    replay,
    rollout,
    sequence_policy,
)
from .errors import PluralismError
from .formula import parse_formula, print_formula
from .machine import RewardMachine, Transition, run_machine, validate_machine
from .optimize import (
    PolicyResult,
    optimize_exhaustive,
    optimize_greedy,
    optimize_memory_q,
)
from .scheme import (
    Aggregation,
    AnytimeFilter,
    AtomCountSource,
    EventCountFilter,
    LongTermFilter,
    MachineSource,
    MarkovTableSource,
    PeriodicFilter,
    Scheme,
    StakeholderStatus,
    StatusFunction,
    aggregate,
    filter_times,
    pluralism_score,
    status_eval,
)
from .serialize import (
    load_env,
    load_machine,
    load_scheme,
    load_trajectory,
    save_env,
    save_machine,
    save_scheme,
    save_trajectory,
)
