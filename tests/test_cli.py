"""End-to-end checks of the command line: exit codes, stdout wording,
files written.  Everything runs in-process through main() so coverage and
tracebacks behave."""

import pytest

from temporal_pluralism.cli import main
from temporal_pluralism.scheme import pluralism_score
from temporal_pluralism.serialize import format_real, load_scheme, load_trajectory


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

    def test_env_needs_policy(self, run_cli, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "evaluate",
                "--scheme", str(fixtures_dir / "restaurant5_longterm_nash.scheme"),
                "--env", str(fixtures_dir / "restaurant5.env"),
            )
        assert exc.value.code == 2

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


class TestDescribe:
    @pytest.mark.parametrize(
        "name", ["fig2.rm", "restaurant5.env", "restaurant5_nash_every10.scheme"]
    )
    def test_exits_clean(self, run_cli, fixtures_dir, name):
        code, out, err = run_cli("describe", str(fixtures_dir / name))
        assert code == 0
        assert out.strip()

    def test_machine_summary_mentions_counts(self, run_cli, fixtures_dir):
        code, out, err = run_cli("describe", str(fixtures_dir / "fig2.rm"))
        assert "3 states" in out
        assert "6 transitions" in out


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


class TestFixtureDirFallback:
    def test_bare_names_resolve_through_the_env_var(
        self, run_cli, fixtures_dir, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)  # nothing resolvable in cwd
        monkeypatch.setenv("PLURALISM_FIXTURE_DIR", str(fixtures_dir))
        code, out, err = run_cli(
            "evaluate", "--scheme", "dinner_machine.scheme", "--traj", "dinner.traj"
        )
        assert code == 0
        assert "score 1" in out

    def test_explicit_paths_win(self, run_cli, fixtures_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("PLURALISM_FIXTURE_DIR", str(tmp_path))
        code, out, err = run_cli(
            "evaluate",
            "--scheme", str(fixtures_dir / "dinner_machine.scheme"),
            "--traj", str(fixtures_dir / "dinner.traj"),
        )
        assert code == 0


def test_main_returns_not_raises_on_domain_errors(tmp_path):
    assert main(["validate", str(tmp_path / "ghost.rm")]) == 1
