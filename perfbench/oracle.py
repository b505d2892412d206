"""Answers every benchmark command is checked against.

None of them runs the optimizer being timed.  Exact searches are checked
against a plain `itertools.product` enumeration scored by the scheme's
scratch route (`pluralism_score_reference`); heuristic searches against the
closed-form optimum of a count-only Nash scheme with distinct preferences;
evaluations against the scratch route on the same rollout.  Answers are
computed once per seed, before any timed run, and cached with the
instance files.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

from temporal_pluralism.environment import cycle_policy, random_policy, replay, rollout
from temporal_pluralism.scheme import (
    EmptyFilterError,
    LongTermFilter,
    PeriodicFilter,
    aggregate,
    filter_times,
    pluralism_score_reference,
    status_eval,
)
from temporal_pluralism.serialize import (
    format_real,
    parse_trajectory_text,
    trajectory_to_text,
)


class Rejected(Exception):
    """The generated instance has no well-defined answer; draw another."""


def exhaustive_search(env, scheme, horizon: int, seed: int = 0):
    """(score, actions) of the first maximum in declared action order.

    Sequences no prefix of which passes the filter are skipped; (None,
    None) means nothing was scorable.
    """
    best, best_seq = None, None
    for seq in itertools.product(env.actions, repeat=horizon):
        try:
            score = pluralism_score_reference(scheme, replay(env, seq, seed))
        except EmptyFilterError:
            continue
        if best is None or score > best:
            best, best_seq = score, seq
    return best, best_seq


def exhaustive_answer(env, scheme, horizon: int, seed: int) -> dict:
    score, seq = exhaustive_search(env, scheme, horizon, seed)
    if seq is None:
        raise Rejected(f"no sequence of {horizon} actions passes the filter")
    if not math.isfinite(score):
        raise Rejected(f"optimum {score} is not finite")
    return {"score": format_real(score), "traj": trajectory_to_text(replay(env, seq, seed))}


def balanced_optimum(n: int, times) -> float:
    """Product over filtered t of the most balanced split of t among n.

    With distinct preferences each step serves at most one friend, so the
    counts at time t sum to at most t, their product is largest when they
    differ by at most one, and a round-robin order reaches that at every t
    at once.
    """
    out = 1.0
    for t in times:
        q, r = divmod(t, n)
        out *= float((q + 1) ** r * q ** (n - r))
    return out


def balanced_answer(scheme, horizon: int) -> dict:
    filt = scheme.filter
    if isinstance(filt, LongTermFilter):
        times = [horizon]
    elif isinstance(filt, PeriodicFilter):
        times = list(range(filt.period, horizon + 1, filt.period))
    else:
        raise ValueError("the closed form covers long-term and periodic filters")
    optimum = balanced_optimum(scheme.status.n, times)
    if not 0.0 < optimum < math.inf:
        raise Rejected(f"closed-form optimum {optimum} is not positive and finite")
    return {"optimum": optimum}


def make_policy(text: str, env):
    if text == "random":
        return random_policy(env.actions)
    kind, _, rest = text.partition(":")
    if kind != "cycle":
        raise ValueError(f"unexpected policy '{text}'")
    return cycle_policy(rest.split(","))


def evaluation_answer(env, scheme, policy_text: str, horizon: int, seed: int) -> dict:
    """Score, log score and status CSV of one rollout, by the scratch route.

    The vectors are what `pluralism_score_reference` computes: each
    filtered prefix's status from scratch, then `aggregate`.  They are kept
    to derive the log score and the CSV as well.
    """
    traj = rollout(env, make_policy(policy_text, env), horizon, seed)
    times = filter_times(scheme.filter, traj)
    if not times:
        raise Rejected(f"the horizon-{horizon} rollout passes no time of the filter")
    vectors = [status_eval(scheme.status, traj.prefix(t)) for t in times]
    score = aggregate(scheme.aggregation, vectors)
    if not math.isfinite(score):
        raise Rejected(f"score {score} is not finite")
    log_score = None
    agg = scheme.aggregation
    entries = [x for vec in vectors for x in vec]
    if agg.mode == "flattened" and agg.op == "product" and all(x > 0.0 for x in entries):
        log_score = format_real(sum(math.log(x) for x in sorted(entries)))
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["t"] + [f"u_{j}" for j in range(1, scheme.status.n + 1)])
    for t, vec in zip(times, vectors):
        writer.writerow([t] + [format_real(x) for x in vec])
    return {"score": format_real(score), "log_score": log_score, "csv": table.getvalue()}


# ---------------------------------------------------------------------------
# checking command output


def printed_fields(stdout: str) -> dict:
    """The `key value` lines a command printed."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def check(command: dict, stdout: str, out_dir, env=None, scheme=None):
    """None if the command's output agrees with the oracle, else the reason.

    Heuristic commands need the instance's env and scheme to replay and
    re-score the returned trajectory.
    """
    expect = command["expect"]
    fields = printed_fields(stdout)
    kind = command["kind"]
    if kind == "exhaustive":
        if fields.get("score") != expect["score"]:
            return f"score {fields.get('score')} != oracle {expect['score']}"
        if (out_dir / "best.traj").read_text() != expect["traj"]:
            return "best.traj differs from the oracle's first maximum"
        return None
    if kind == "evaluate":
        for key in ("score", "log_score"):
            if fields.get(key) != expect[key]:
                return f"{key} {fields.get(key)} != oracle {expect[key]}"
        if (out_dir / "statuses.csv").read_text() != expect["csv"]:
            return "statuses.csv differs from the scratch route"
        return None
    traj = parse_trajectory_text((out_dir / "best.traj").read_text())
    if traj.horizon != command["horizon"]:
        return f"best.traj has horizon {traj.horizon}"
    if replay(env, traj.actions, command["seed"]) != traj:
        return "best.traj is not a run of the environment"
    reference = pluralism_score_reference(scheme, traj)
    if fields.get("score") != format_real(reference):
        return f"score {fields.get('score')} != reference {format_real(reference)}"
    if reference > expect["optimum"]:
        return f"score {reference} exceeds the optimum {expect['optimum']}"
    return None
