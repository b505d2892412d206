"""End-to-end checks of the command line: exit codes, stdout wording,
files written.  Everything runs in-process through main() so coverage and
tracebacks behave."""

import contextlib
import io
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporal_pluralism.cli import main, parse_policy, read_list
from temporal_pluralism.environment import RestaurantConfig, RestaurantEnv
from temporal_pluralism.errors import PluralismError
from temporal_pluralism.formula import MAX_GUARD_DEPTH
from temporal_pluralism.machine import step_machine
from temporal_pluralism.scheme import pluralism_score
from temporal_pluralism.serialize import (
    format_real,
    load_machine,
    load_scheme,
    load_trajectory,
    save_machine,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


class TestValidate:
    def test_good_machine(self, run_cli, fixtures_dir):
        code, out, err = run_cli("validate", str(fixtures_dir / "fig2.rm"))
        assert code == 0
        assert "ok (deterministic, total)" in out

    def test_good_bundle(self, run_cli, fixtures_dir):
        paths = [str(p) for p in sorted(fixtures_dir.glob("*.scheme"))]
        code, out, err = run_cli("validate", *paths)
        assert code == 0
        assert out.count(": ok") == len(paths)

    def test_nondeterministic_machine_names_the_overlap(self, run_cli, tmp_path):
        bad = tmp_path / "clash.rm"
        bad.write_text(
            "alphabet go\n"
            "state q init\n"
            'trans q "go" q 1\n'
            'trans q "true" q 0\n'
        )
        code, out, err = run_cli("validate", str(bad))
        assert code == 1
        assert "INVALID" in out
        assert "q" in out
        assert "{go}" in out

    def test_keeps_going_after_a_failure(self, run_cli, tmp_path, fixtures_dir):
        gap = tmp_path / "gap.rm"
        gap.write_text('alphabet a\nstate q init\ntrans q "a" q 0\n')
        code, out, err = run_cli(
            "validate", str(gap), str(fixtures_dir / "fig2.rm")
        )
        assert code == 1
        assert "INVALID" in out
        assert "fig2.rm: ok" in out

    def test_a_line_the_scheme_never_reads_is_invalid(self, run_cli, fixtures_dir, tmp_path):
        bad = tmp_path / "stray_gamma.scheme"
        text = (fixtures_dir / "restaurant3_longterm_nash.scheme").read_text()
        bad.write_text(text.replace("accumulation 3 sum\n", "accumulation 3 sum\ngamma 1 0.5\n"))
        code, out, err = run_cli("validate", str(bad))
        assert code == 1
        assert f"{bad}: INVALID" in out
        assert f"{bad}:9: 'gamma 1' is never read" in out

    def test_missing_file(self, run_cli, tmp_path):
        code, out, err = run_cli("validate", str(tmp_path / "nowhere.rm"))
        assert code == 1

    def test_no_subcommand_is_a_usage_error(self, run_cli):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2


class TestEvaluate:
    def test_score_matches_the_library_exactly(self, run_cli, fixtures_dir):
        scheme_path = fixtures_dir / "restaurant5_nash_every10.scheme"
        traj_path = fixtures_dir / "restaurant5_sample.traj"
        code, out, err = run_cli(
            "evaluate", "--scheme", str(scheme_path), "--traj", str(traj_path)
        )
        assert code == 0
        expected = pluralism_score(load_scheme(scheme_path), load_trajectory(traj_path))
        assert f"score {format_real(expected)}" in out

    def test_rollout_route(self, run_cli, fixtures_dir):
        code, out, err = run_cli(
            "evaluate",
            "--scheme", str(fixtures_dir / "restaurant5_longterm_nash.scheme"),
            "--env", str(fixtures_dir / "restaurant5.env"),
            "--policy", "cycle:italian,sushi,taco,indian,bistro",
            "--horizon", "10",
            "--seed", "0",
        )
        assert code == 0
        assert "score 32" in out

    @pytest.mark.parametrize("policy, code, out, err", [
        ("cycle:'a,b',c", 0, "score 4\nlog_score 1.3862943611198906\n", ""),
        ("seq:c,\"a,b\",c,'a,b'", 0, "score 4\nlog_score 1.3862943611198906\n", ""),
        ("cycle:a,b", 1, "", "error: unknown restaurant type 'a'\n"),
        ("cycle:'a,b,c", 1, "", "error: bad policy 'cycle:'a,b,c': No closing quotation\n"),
        ("always:'a,b'", 0, "score 0\n", ""),
        ("always:a,b", 0, "score 0\n", ""),
        ("always:'a,b", 1, "", "error: bad policy 'always:'a,b': No closing quotation\n"),
        ("cycle:'a,b',,c", 1, "", "error: unknown restaurant type ''\n"),
        ("cycle", 1, "",
         "error: bad policy 'cycle' (try always:ACT, cycle:A,B, seq:A,B, random)\n"),
        ("loop:a", 1, "", "error: unknown policy kind 'loop'\n"),
    ])
    def test_a_quoted_list_item_may_hold_a_comma(
        self, run_cli, tmp_path, policy, code, out, err
    ):
        (tmp_path / "comma.env").write_text(
            "env restaurant\nn_friends 2\ntypes 'a,b' c\nprefers 1 'a,b'\nprefers 2 c\n")
        (tmp_path / "both.scheme").write_text(
            "n 2\nsource 1 count served_1\nsource 2 count served_2\n"
            "aggregation.op product\nfilter.kind long_term\n")
        assert run_cli(
            "evaluate", "--env", tmp_path / "comma.env", "--scheme", tmp_path / "both.scheme",
            "--policy", policy, "--horizon", "4",
        ) == (code, out, err)

    def test_an_unquoted_list_splits_at_every_comma(self):
        env = RestaurantEnv(RestaurantConfig(1, ("a b", "c"), ("c",)))
        policy = parse_policy("seq:a b,,c,", env)
        assert [policy(t, None) for t in range(1, 5)] == ["a b", "", "c", ""]
        with pytest.raises(PluralismError, match="No closing quotation"):
            parse_policy('cycle:a,"b', env)

    @given(st.lists(st.text(st.characters(codec="utf-8"), max_size=5), min_size=1, max_size=4))
    def test_a_list_of_quoted_items_reads_back(self, items):
        # shlex.quote leaves a comma bare, so an item that holds one is
        # single-quoted the way shlex.quote quotes any other unsafe item.
        def quote(item):
            if "," not in item:
                return shlex.quote(item)
            return "'" + item.replace("'", "'\"'\"'") + "'"
        assert read_list(",".join(map(quote, items)), "list") == items

    def test_env_needs_policy(self, run_cli, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "evaluate",
                "--scheme", str(fixtures_dir / "restaurant5_longterm_nash.scheme"),
                "--env", str(fixtures_dir / "restaurant5.env"),
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("source, flags, message", [
        ("--env", ("--policy", "always:italian"), "--env requires --horizon"),
        ("--traj", ("--policy", "cycle:nothing"), "--traj takes no --policy or --horizon"),
        ("--traj", ("--horizon", "99"), "--traj takes no --policy or --horizon"),
    ], ids=["env-without-horizon", "traj-with-policy", "traj-with-horizon"])
    def test_a_rollout_flag_must_match_the_source(
        self, run_cli, fixtures_dir, capsys, source, flags, message
    ):
        given = {"--env": "restaurant2.env", "--traj": "dinner.traj"}[source]
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--scheme", fixtures_dir / "dinner_machine.scheme",
                    source, fixtures_dir / given, *flags)
        assert exc.value.code == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_traj_and_env_are_exclusive(self, run_cli, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "evaluate",
                "--scheme", str(fixtures_dir / "restaurant5_longterm_nash.scheme"),
                "--traj", str(fixtures_dir / "restaurant5_sample.traj"),
                "--env", str(fixtures_dir / "restaurant5.env"),
            )
        assert exc.value.code == 2

    def test_status_csv_has_one_row_per_filtered_time(
        self, run_cli, fixtures_dir, tmp_path
    ):
        code, out, err = run_cli(
            "evaluate",
            "--scheme", str(fixtures_dir / "restaurant5_periodic2_nash.scheme"),
            "--traj", str(fixtures_dir / "restaurant5_sample.traj"),
            "--out", str(tmp_path / "ev"),
        )
        assert code == 0
        lines = (tmp_path / "ev" / "statuses.csv").read_text().splitlines()
        assert lines[0] == "t,u_1,u_2,u_3,u_4,u_5"
        assert len(lines) - 1 == 6  # periodic(2), horizon 12

    def test_alphabet_mismatch_is_a_clean_failure(self, run_cli, fixtures_dir):
        code, out, err = run_cli(
            "evaluate",
            "--scheme", str(fixtures_dir / "dinner_machine.scheme"),
            "--traj", str(fixtures_dir / "restaurant5_sample.traj"),
        )
        assert code == 1
        assert err.startswith("error:")

    def test_warns_when_every_step_must_satisfy_everyone(self, run_cli, fixtures_dir):
        code, out, err = run_cli(
            "evaluate",
            "--scheme", str(fixtures_dir / "restaurant2_anytime_nash.scheme"),
            "--env", str(fixtures_dir / "restaurant2.env"),
            "--policy", "cycle:italian,sushi",
            "--horizon", "4",
            "--seed", "0",
        )
        assert code == 0
        assert "score 0" in out
        assert "warning" in err
        assert "unsatisfiable" in err

    def test_no_warning_when_the_anytime_score_is_positive(
        self, run_cli, fixtures_dir, tmp_path
    ):
        # A lone stakeholder counting visits is satisfied on every prefix.
        scheme = tmp_path / "solo.scheme"
        scheme.write_text(
            "n 1\n"
            "source 1 count visit\n"
            "aggregation.op product\n"
            "filter.kind anytime\n"
        )
        code, out, err = run_cli(
            "evaluate",
            "--scheme", str(scheme),
            "--env", str(fixtures_dir / "restaurant5.env"),
            "--policy", "always:italian",
            "--horizon", "4",
            "--seed", "0",
        )
        assert code == 0
        assert "score 24" in out  # 1 * 2 * 3 * 4 visits
        assert err == ""


class TestOptimize:
    def test_exhaustive_finds_the_known_optimum(self, run_cli, fixtures_dir, tmp_path):
        code, out, err = run_cli(
            "optimize",
            "--env", str(fixtures_dir / "restaurant3.env"),
            "--scheme", str(fixtures_dir / "restaurant3_longterm_nash.scheme"),
            "--method", "exhaustive",
            "--horizon", "6",
            "--seed", "0",
            "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert "score 8" in out
        assert "evaluations 729" in out
        assert (tmp_path / "run" / "result.txt").exists()
        assert (tmp_path / "run" / "statuses.csv").exists()
        best = load_trajectory(tmp_path / "run" / "best.traj")
        assert best.horizon == 6

    def test_memory_q_takes_a_discounted_markov_mean_scheme(self, run_cli, fixtures_dir, tmp_path):
        code, out, err = run_cli(
            "optimize",
            "--env", str(fixtures_dir / "restaurant3.env"),
            "--scheme", str(fixtures_dir / "restaurant3_mixed.scheme"),
            "--method", "memory_q",
            "--horizon", "3",
            "--episodes", "50",
            "--seed", "0",
            "--out", str(tmp_path / "run"),
        )
        assert code == 0, err
        assert out.startswith("score ")
        assert "evaluations 51" in out

    def test_same_seed_reruns_are_byte_identical(self, run_cli, fixtures_dir, tmp_path):
        args = (
            "optimize",
            "--env", str(fixtures_dir / "restaurant3.env"),
            "--scheme", str(fixtures_dir / "restaurant3_longterm_nash.scheme"),
            "--method", "memory_q",
            "--horizon", "4",
            "--seed", "7",
            "--episodes", "300",
        )
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for name in ("result.txt", "statuses.csv", "best.traj"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_budget_exceeded(self, run_cli, fixtures_dir, tmp_path):
        code, out, err = run_cli(
            "optimize",
            "--env", str(fixtures_dir / "restaurant5.env"),
            "--scheme", str(fixtures_dir / "restaurant5_longterm_nash.scheme"),
            "--method", "exhaustive",
            "--horizon", "6",
            "--seed", "0",
            "--budget", "100",
            "--out", str(tmp_path / "run"),
        )
        assert code == 1
        assert "error:" in err

    def test_budget_message_does_not_expand_the_count(self, run_cli, fixtures_dir, tmp_path):
        code, out, err = run_cli(
            "optimize",
            "--env", str(fixtures_dir / "restaurant5.env"),
            "--scheme", str(fixtures_dir / "restaurant5_longterm_nash.scheme"),
            "--method", "exhaustive",
            "--horizon", "10000",
            "--seed", "0",
            "--out", str(tmp_path / "run"),
        )
        assert code == 1
        assert "error: 5^10000 sequences exceed the budget" in err
        assert "Traceback" not in err

    def test_greedy_with_lookahead(self, run_cli, fixtures_dir, tmp_path):
        code, out, err = run_cli(
            "optimize",
            "--env", str(fixtures_dir / "greedy_trap.env"),
            "--scheme", str(fixtures_dir / "greedy_trap.scheme"),
            "--method", "greedy",
            "--lookahead", "2",
            "--horizon", "2",
            "--seed", "0",
            "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert "score 5" in out


OPTIMIZE_R3 = ("optimize", "--env", "restaurant3.env", "--scheme",
               "restaurant3_longterm_nash.scheme", "--seed", "0", "--out", "run")
EVALUATE_R3 = ("evaluate", "--env", "restaurant3.env", "--scheme",
               "restaurant3_longterm_nash.scheme", "--policy", "always:italian")


@pytest.mark.parametrize(
    "argv, message",
    [
        (OPTIMIZE_R3 + ("--method", "exhaustive", "--horizon", "-1"), ">= 0, got '-1'"),
        (OPTIMIZE_R3 + ("--method", "memory_q", "--horizon", "-1"), ">= 0, got '-1'"),
        (OPTIMIZE_R3 + ("--method", "greedy", "--horizon", "3", "--lookahead", "0"),
         ">= 1, got '0'"),
        (OPTIMIZE_R3 + ("--method", "memory_q", "--horizon", "3", "--episodes", "-1"),
         ">= 0, got '-1'"),
        (OPTIMIZE_R3 + ("--method", "greedy", "--horizon", "three"), ">= 0, got 'three'"),
        (EVALUATE_R3 + ("--horizon", "-2"), ">= 0, got '-2'"),
        (OPTIMIZE_R3 + ("--method", "exhaustive", "--horizon", "3", "--budget", "-1"),
         ">= 0, got '-1'"),
    ],
    ids=["exhaustive-horizon", "memory_q-horizon", "lookahead", "episodes", "not-an-integer",
         "evaluate-horizon", "budget"],
)
def test_bad_numeric_arguments_are_usage_errors(
    run_cli, tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"expected an integer {message}" in err


class TestCompare:
    def test_table_layout_and_scores(self, run_cli, fixtures_dir):
        schemes = ",".join(
            str(fixtures_dir / name)
            for name in (
                "restaurant5_longterm_nash.scheme",
                "restaurant5_periodic2_nash.scheme",
                "restaurant5_anytime_nash.scheme",
            )
        )
        code, out, err = run_cli(
            "compare",
            "--traj", str(fixtures_dir / "restaurant5_sample.traj"),
            "--schemes", schemes,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["scheme", "k", "score"]
        assert len(lines) == 4
        k_values = [line.split()[1] for line in lines[1:]]
        assert k_values == ["1", "6", "12"]

    def test_single_scheme_is_a_usage_error(self, run_cli, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "compare",
                "--traj", str(fixtures_dir / "restaurant5_sample.traj"),
                "--schemes", str(fixtures_dir / "restaurant5_longterm_nash.scheme"),
            )
        assert exc.value.code == 2

    def test_incompatible_scheme_shows_a_dash(self, run_cli, fixtures_dir):
        schemes = ",".join(
            str(fixtures_dir / name)
            for name in (
                "restaurant5_longterm_nash.scheme",
                "dinner_machine.scheme",
            )
        )
        code, out, err = run_cli(
            "compare",
            "--traj", str(fixtures_dir / "restaurant5_sample.traj"),
            "--schemes", schemes,
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows[1].split()[-1] == "-"


    def test_a_missing_scheme_prints_no_row(self, run_cli, fixtures_dir, tmp_path):
        schemes = f"{fixtures_dir / 'restaurant5_longterm_nash.scheme'},{tmp_path / 'none.scheme'}"
        code, out, err = run_cli(
            "compare",
            "--traj", str(fixtures_dir / "restaurant5_sample.traj"),
            "--schemes", schemes,
        )
        assert (code, out) == (1, "")
        assert "none.scheme" in err


    def test_a_quoted_scheme_name_may_hold_a_comma(self, run_cli, fixtures_dir, tmp_path):
        for name in ("a,b.scheme", "two.scheme"):
            shutil.copy(fixtures_dir / "restaurant5_longterm_nash.scheme", tmp_path / name)
        traj = fixtures_dir / "restaurant5_sample.traj"
        expected = "scheme k score\na,b.scheme 1 72\ntwo.scheme 1 72\n"
        schemes = f"'{tmp_path / 'a,b.scheme'}',,{tmp_path / 'two.scheme'},"
        assert run_cli("compare", "--traj", traj, "--schemes", schemes) == (0, expected, "")
        schemes = f"'{tmp_path / 'a,b.scheme'},{tmp_path / 'two.scheme'}"
        assert run_cli("compare", "--traj", traj, "--schemes", schemes) == (
            1, "", f"error: bad --schemes '{schemes}': No closing quotation\n")


class TestDescribe:
    @pytest.mark.parametrize(
        "name",
        [
            "fig2.rm",
            "restaurant5.env",
            "restaurant5_nash_every10.scheme",
            "opening_moves.mt",
            "dinner.traj",
        ],
    )
    def test_exits_clean(self, run_cli, fixtures_dir, name):
        code, out, err = run_cli("describe", str(fixtures_dir / name))
        assert code == 0
        assert out.strip()

    def test_machine_summary_mentions_counts(self, run_cli, fixtures_dir):
        code, out, err = run_cli("describe", str(fixtures_dir / "fig2.rm"))
        assert "3 states" in out
        assert "6 transitions" in out

    def test_markov_table_lists_its_entries(self, run_cli, fixtures_dir):
        code, out, err = run_cli("describe", str(fixtures_dir / "opening_moves.mt"))
        lines = out.splitlines()
        assert lines[0].endswith("opening_moves.mt: markov reward table, 3 entries, default 0")
        assert lines[1:] == [
            "  v0 --italian 2--> v1",
            "  v1 --sushi 1--> v2",
            "  v2 --taco 0.5--> v3",
        ]

    def test_trajectory_lists_its_steps(self, run_cli, fixtures_dir):
        code, out, err = run_cli("describe", str(fixtures_dir / "dinner.traj"))
        lines = out.splitlines()
        assert lines[0].endswith("dinner.traj: trajectory, horizon 3, initial state d0")
        assert lines[1:] == [
            "  1: pasta --> d1 {pasta}",
            "  2: nothing --> d2 {}",
            "  3: cake --> d3 {cake}",
        ]

    def test_schemes_of_every_kind(self, run_cli, fixtures_dir, tmp_path):
        """Every filter kind, aggregation mode, empty-filter policy,
        accumulation and source kind, as describe prints it."""
        for name in ("fig2.rm", "opening_moves.mt"):
            (tmp_path / name).write_text((fixtures_dir / name).read_text())
        schemes = {
            "a.scheme": "n 3\nsource 1 count served_1\nsource 2 machine fig2.rm\n"
            "source 3 markov opening_moves.mt\naccumulation 2 discounted\ngamma 2 0.5\n"
            "accumulation 3 mean\naggregation.op product\nfilter.kind long_term\n",
            "b.scheme": "n 1\nsource 1 count cake\naggregation.mode time_then_stakeholders\n"
            "aggregation.inner_op min\naggregation.outer_op sum\n"
            "filter.kind periodic\nfilter.p 3\n",
            "c.scheme": "n 1\nsource 1 count cake\naggregation.mode stakeholders_then_time\n"
            "aggregation.inner_op mean\naggregation.outer_op product\nfilter.kind anytime\n",
            "d.scheme": "n 1\nsource 1 count cake\naggregation.op sum\nfilter.kind event_count\n"
            "filter.atom pasta\nfilter.k 2\nempty_filter neutral\n",
        }
        for name, text in schemes.items():
            (tmp_path / name).write_text(text)
        code, out, err = run_cli("describe", *(tmp_path / name for name in schemes))
        assert (code, err) == (0, "")
        assert out == (
            f"{tmp_path / 'a.scheme'}: scheme over 3 stakeholder(s)\n"
            "  stakeholder 1: count of 'served_1', sum\n"
            "  stakeholder 2: machine fig2.rm, discounted (gamma 0.5)\n"
            "  stakeholder 3: markov table opening_moves.mt, mean\n"
            "  aggregation: flattened product\n"
            "  filter: long-term (final prefix only)\n"
            "  empty filter: error\n"
            f"{tmp_path / 'b.scheme'}: scheme over 1 stakeholder(s)\n"
            "  stakeholder 1: count of 'cake', sum\n"
            "  aggregation: time_then_stakeholders, inner min, outer sum\n"
            "  filter: periodic, every 3 steps\n"
            "  empty filter: error\n"
            f"{tmp_path / 'c.scheme'}: scheme over 1 stakeholder(s)\n"
            "  stakeholder 1: count of 'cake', sum\n"
            "  aggregation: stakeholders_then_time, inner mean, outer product\n"
            "  filter: anytime (every prefix)\n"
            "  empty filter: error\n"
            f"{tmp_path / 'd.scheme'}: scheme over 1 stakeholder(s)\n"
            "  stakeholder 1: count of 'cake', sum\n"
            "  aggregation: flattened sum\n"
            "  filter: event-count, every 2 occurrences of 'pasta'\n"
            "  empty filter: neutral\n"
        )

    def test_unknown_suffix_fails(self, run_cli, tmp_path):
        odd = tmp_path / "notes.txt"
        odd.write_text("hello\n")
        code, out, err = run_cli("describe", str(odd))
        assert code == 1
        assert "unknown file kind '.txt'" in err


class TestNonFiniteNumbers:
    """nan and infinities in a reward file are rejected, naming the line."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_machine_reward(self, run_cli, fixtures_dir, tmp_path, token):
        text = (fixtures_dir / "fig2.rm").read_text()
        bad = tmp_path / "fig2.rm"
        bad.write_text(text.replace('trans u1 "cake" u2 1', f'trans u1 "cake" u2 {token}'))
        code, out, err = run_cli("validate", str(bad))
        assert code == 1
        assert "INVALID" in out
        assert f"fig2.rm:9: not a finite number: '{token}'" in out
        code, out, err = run_cli("describe", str(bad))
        assert code == 1
        assert f"fig2.rm:9: not a finite number: '{token}'" in err

    @pytest.mark.parametrize("line", ["default", "reward"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_markov_table(self, run_cli, fixtures_dir, tmp_path, token, line):
        scheme = tmp_path / "restaurant3_mixed.scheme"
        scheme.write_text((fixtures_dir / scheme.name).read_text())
        text = (fixtures_dir / "opening_moves.mt").read_text()
        old, lineno = ("default 0", 2) if line == "default" else ("v1 sushi v2 1", 4)
        new = old.rsplit(" ", 1)[0] + " " + token
        bad = tmp_path / "opening_moves.mt"
        bad.write_text(text.replace(old, new))
        message = f"opening_moves.mt:{lineno}: not a finite number: '{token}'"
        code, out, err = run_cli("validate", str(bad))
        assert code == 1
        assert "INVALID" in out
        assert message in out
        code, out, err = run_cli("describe", str(scheme))
        assert code == 1
        assert message in err


class TestUnreadableSource:
    """A machine or Markov file a scheme cannot open is an error at the
    scheme's `source` line."""

    @pytest.mark.parametrize("source", ["machine nowhere.rm", "markov table.mt"])
    def test_validate_describe_and_evaluate_name_the_line(
        self, run_cli, fixtures_dir, tmp_path, source
    ):
        (tmp_path / "table.mt").mkdir()
        scheme = tmp_path / "s.scheme"
        scheme.write_text(f"n 2\nsource 1 count cake\nsource 2 {source}\n"
                          "aggregation.op sum\nfilter.kind long_term\n")
        where, unread = f"{scheme}:3: ", str(tmp_path / source.split()[1])
        code, out, err = run_cli("validate", scheme)
        assert code == 1
        assert out.startswith(f"{scheme}: INVALID\n  {where}") and unread in out
        traj = fixtures_dir / "dinner.traj"
        for argv in (["describe", scheme], ["evaluate", "--scheme", scheme, "--traj", traj]):
            code, out, err = run_cli(*argv)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {where}") and unread in err


class TestInvalidMachine:
    """Every command reports an invalid machine one way, naming its file."""

    @pytest.fixture
    def gap(self, tmp_path):
        (tmp_path / "gap.rm").write_text('alphabet pasta cake\nstate q init\ntrans q "pasta" q 0\n')
        scheme = tmp_path / "gap.scheme"
        scheme.write_text("n 1\nsource 1 machine gap.rm\naggregation.op sum\nfilter.kind long_term\n")
        return tmp_path / "gap.rm", scheme

    @staticmethod
    def report(rm):
        return f"{rm}: not a valid machine\n  state q: no guard holds on {{}}\n"

    def test_validate_and_describe_the_machine(self, run_cli, gap):
        rm, _ = gap
        code, out, err = run_cli("validate", str(rm))
        assert code == 1
        assert out.startswith(f"{rm}: INVALID\n  {self.report(rm)}")
        code, out, err = run_cli("describe", str(rm))
        assert code == 1
        assert err.startswith(f"error: {self.report(rm)}")

    def test_a_scheme_that_references_it(self, run_cli, fixtures_dir, gap):
        rm, scheme = gap
        code, out, err = run_cli("validate", str(scheme))
        assert code == 1
        assert out.startswith(f"{scheme}: INVALID\n  {self.report(rm)}")
        for command in ("describe", "evaluate"):
            argv = [command, str(scheme)] if command == "describe" else [
                command, "--scheme", str(scheme), "--traj", str(fixtures_dir / "dinner.traj")]
            code, out, err = run_cli(*argv)
            assert code == 1
            assert err.startswith(f"error: {self.report(rm)}")


class TestDeepGuards:
    """A guard nested past the bound is a bad guard at its line, with exit
    1; one at the bound loads, steps and is saved back as it was read."""

    SHAPES = {
        "negations": lambda n: "!" * n + "a",
        "and-chain": lambda n: " & ".join(["a"] * (n + 1)),
        "parentheses": lambda n: "(" * n + "a" + ")" * n,
    }

    @staticmethod
    def machine(tmp_path, guard):
        rm = tmp_path / "deep.rm"
        rm.write_text(f'alphabet a\nstate q init\ntrans q "{guard}" q 1\ntrans q "!a" q 0\n')
        return rm

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_validate_and_describe_name_the_line(self, run_cli, tmp_path, shape):
        rm = self.machine(tmp_path, shape(3000))
        message = f"{rm}:3: bad guard: nested deeper than {MAX_GUARD_DEPTH} levels at position "
        code, out, err = run_cli("validate", rm)
        assert (code, err) == (1, "")
        assert out.startswith(f"{rm}: INVALID\n  {message}")
        code, out, err = run_cli("describe", rm)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_a_guard_at_the_bound_loads_and_steps(self, run_cli, tmp_path, shape):
        rm = self.machine(tmp_path, shape(MAX_GUARD_DEPTH))
        machine = load_machine(rm)
        assert step_machine(machine, "q", frozenset({"a"})) == ("q", 1.0)
        assert step_machine(machine, "q", frozenset()) == ("q", 0.0)
        save_machine(machine, tmp_path / "saved.rm")
        save_machine(load_machine(tmp_path / "saved.rm"), tmp_path / "again.rm")
        assert (tmp_path / "again.rm").read_bytes() == (tmp_path / "saved.rm").read_bytes()
        assert run_cli("validate", rm)[:2] == (0, f"{rm}: ok (deterministic, total)\n")


class TestNotUtf8:
    """A file that is not UTF-8 text is refused by name, with exit 1."""

    BYTES = b"version 1\n\xff\xfe\n"

    @pytest.mark.parametrize("suffix", [".rm", ".env", ".scheme", ".mt", ".traj"])
    def test_validate_and_describe(self, run_cli, tmp_path, suffix):
        bad = tmp_path / f"binary{suffix}"
        bad.write_bytes(self.BYTES)
        message = f"{bad}: not UTF-8 text (byte 10)"
        code, out, err = run_cli("validate", str(bad))
        assert (code, out) == (1, f"{bad}: INVALID\n  {message}\n")
        code, out, err = run_cli("describe", str(bad))
        assert (code, err) == (1, f"error: {message}\n")

    def test_a_scheme_that_references_a_binary_machine(self, run_cli, tmp_path):
        rm = tmp_path / "binary.rm"
        rm.write_bytes(self.BYTES)
        scheme = tmp_path / "binary_machine.scheme"
        scheme.write_text(
            "n 1\nsource 1 machine binary.rm\naggregation.op sum\nfilter.kind long_term\n")
        message = f"{rm}: not UTF-8 text (byte 10)"
        code, out, err = run_cli("validate", str(scheme))
        assert (code, out) == (1, f"{scheme}: INVALID\n  {message}\n")
        code, out, err = run_cli("describe", str(scheme))
        assert (code, err) == (1, f"error: {message}\n")


def test_optimize_writes_utf8_under_an_ascii_locale(tmp_path):
    """Result files are UTF-8 whatever the locale, so best.traj reads back."""
    (tmp_path / "cafe.env").write_text(
        "env restaurant\nn_friends 2\ntypes 'it alian' café\nprefers 1 'it alian'\n"
        "prefers 2 café\n", encoding="utf-8")
    (tmp_path / "both.scheme").write_text(
        "n 2\nsource 1 count served_1\nsource 2 count served_2\naggregation.op product\n"
        "filter.kind long_term\n")
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(SRC)}
    env.pop("PYTHONIOENCODING", None)
    argv = [sys.executable, "-X", "utf8=0", "-m", "temporal_pluralism", "optimize",
            "--env", "cafe.env", "--scheme", "both.scheme", "--method", "exhaustive",
            "--horizon", "2", "--seed", "0", "--out", "out"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    traj = load_trajectory(tmp_path / "out" / "best.traj")
    assert traj.actions == ("it alian", "café")


@pytest.mark.parametrize("argv, code, out, err", [
    (["describe", "cafe.env"], 0,
     "cafe.env: restaurant environment, 1 friends\n  types: café, bistro\n"
     "  friend 1 prefers café\n  actions: café, bistro\n  alphabet: served_1, visit\n", ""),
    (["describe", "caffe.env"], 1,
     "", "error: caffe.env:4: preferred type 'caffè' not offered\n"),
])
def test_prints_utf8_under_an_ascii_locale(tmp_path, argv, code, out, err):
    """stdout and stderr are UTF-8 whatever the locale, like the result
    files: a name outside ASCII is printed as it is, with no traceback."""
    (tmp_path / "cafe.env").write_text(
        "env restaurant\nn_friends 1\ntypes café bistro\nprefers 1 café\n", encoding="utf-8")
    (tmp_path / "caffe.env").write_text(
        "env restaurant\nn_friends 1\ntypes café bistro\nprefers 1 caffè\n", encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(SRC)}
    env.pop("PYTHONIOENCODING", None)
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "temporal_pluralism", *argv],
                          cwd=tmp_path, env=env, capture_output=True)
    assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (code, out, err)


def test_an_overflowed_score_prints_inf(run_cli, fixtures_dir, tmp_path):
    (tmp_path / "big.mt").write_text("default 1e308\n")
    scheme = tmp_path / "big.scheme"
    scheme.write_text(
        "n 2\nsource 1 markov big.mt\nsource 2 markov big.mt\n"
        "aggregation.op product\nfilter.kind long_term\n"
    )
    code, out, err = run_cli(
        "evaluate", "--scheme", str(scheme), "--traj", str(fixtures_dir / "dinner.traj"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 0
    assert "Traceback" not in err
    assert out == "score inf\nlog_score inf\n"
    assert (tmp_path / "out" / "statuses.csv").read_text() == "t,u_1,u_2\n3,inf,inf\n"


def test_a_path_is_read_as_given(run_cli, fixtures_dir, monkeypatch, tmp_path):
    """No directory is searched: a name missing from the working directory
    is a missing file, whatever the environment holds."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PLURALISM_FIXTURE_DIR", str(fixtures_dir))
    code, out, err = run_cli(
        "evaluate", "--scheme", "dinner_machine.scheme", "--traj", "dinner.traj"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "dinner_machine.scheme" in err


def test_main_returns_not_raises_on_domain_errors(tmp_path):
    assert main(["validate", str(tmp_path / "ghost.rm")]) == 1


# (env, scheme, trajectory, files the scheme references); every fixture is in one
FUZZ_GROUPS = (
    ("restaurant5.env", "restaurant5_longterm_nash.scheme", "restaurant5_sample.traj"),
    ("restaurant5.env", "restaurant5_anytime_nash.scheme", "restaurant5_sample.traj"),
    ("restaurant5.env", "restaurant5_nash_every10.scheme", "restaurant5_sample.traj"),
    ("restaurant5.env", "restaurant5_periodic2_nash.scheme", "restaurant5_sample.traj"),
    ("restaurant3.env", "restaurant3_longterm_nash.scheme", "restaurant5_sample.traj"),
    ("restaurant3.env", "restaurant3_mixed.scheme", "restaurant5_sample.traj",
     "opening_moves.mt"),
    ("restaurant2.env", "restaurant2_anytime_nash.scheme", "dinner.traj"),
    ("greedy_trap.env", "greedy_trap.scheme", "dinner.traj", "greedy_trap.rm"),
    ("restaurant2.env", "dinner_machine.scheme", "dinner.traj", "fig2.rm"),
    ("delivery2.env", "delivery2_roundly_nash.scheme", "restaurant5_sample.traj"),
)
FUZZ_TOKENS = ("0", "-1", "nan", "inf", "x", '"', "#", "-", "1.5", "9", "init", "a,b")


@st.composite
def mutated_lines(draw, lines):
    """Fixture lines with 1-3 lines duplicated, dropped, shuffled or re-tokened."""
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("duplicate", "drop", "shuffle", "token")))
        if op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "drop":
            del lines[i]
        elif op == "shuffle":
            lines = draw(st.permutations(lines))
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
    return lines


def _exit_code(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


# Derandomized so that tier-1 runs the same examples every time.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_fixtures_exit_cleanly(data):
    """Any mutation of a fixture gives exit 0, 1 or 2 and never a traceback."""
    env, scheme, traj, *refs = group = data.draw(st.sampled_from(FUZZ_GROUPS))
    victim = data.draw(st.sampled_from(group))
    lines = (FIXTURES / victim).read_text().splitlines()
    text = "\n".join(data.draw(mutated_lines(lines))) + "\n"
    horizon = str(data.draw(st.integers(0, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in group:
            shutil.copy(FIXTURES / name, work)
        (work / victim).write_text(text)
        env, scheme, traj, victim = (str(work / n) for n in (env, scheme, traj, victim))
        runs = [["validate", victim], ["describe", victim],
                ["evaluate", "--scheme", scheme, "--traj", traj]]
        for method in ("exhaustive", "greedy", "memory_q"):
            runs.append(["optimize", "--env", env, "--scheme", scheme, "--method", method,
                         "--horizon", horizon, "--seed", "0", "--out", str(work / "out"),
                         "--lookahead", str(data.draw(st.integers(1, 3))),
                         "--episodes", str(data.draw(st.integers(0, 20)))])
        for argv in runs:
            code, err = _exit_code(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
