import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kdsm import parse_instance, parse_matching, solve
from kdsm.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.kdsm", tmp_path / "b.kdsm"
        assert run(capsys, "gen", "--k", "3", "--n", "2", "--seed", "7", "--out", str(out1))[0] == 0
        assert run(capsys, "gen", "--k", "3", "--n", "2", "--seed", "7", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        inst = parse_instance(out1.read_text())
        assert inst.is_complete and inst.k == 3 and inst.n == 2

    def test_degenerate_empty(self, tmp_path, capsys):
        out = tmp_path / "e.kdsm"
        assert run(capsys, "gen", "--k", "3", "--n", "0", "--out", str(out))[0] == 0
        assert parse_instance(out.read_text()).n == 0

    def test_config_echoed(self, capsys):
        code, _out, err = run(capsys, "gen", "--k", "3", "--n", "1")
        assert code == 0
        assert "kdsm config:" in err and "seed=0" in err

    def test_env_variable_default(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "a.kdsm", tmp_path / "b.kdsm"
        monkeypatch.setenv("KDSM_SEED", "123")
        run(capsys, "gen", "--k", "3", "--n", "3", "--out", str(out1))
        monkeypatch.delenv("KDSM_SEED")
        run(capsys, "gen", "--k", "3", "--n", "3", "--seed", "123", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--k", "1", "--n", "2"), "error: invalid dimensions k=1, n=2"),
            (("--n", "-1"), "error: invalid dimensions k=3, n=-1"),
            (("--density", "1.5"), "error: density must be in [0, 1], got 1.5"),
        ],
    )
    def test_bad_parameter_exit_two(self, capsys, flags, message):
        code, out, err = run(capsys, "gen", *flags)
        assert code == 2 and out == ""
        assert message in err.splitlines()


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.kdsm"
    assert run(capsys, "gen", "--k", "3", "--n", "2", "--seed", "7", "--out", str(path))[0] == 0
    return path


class TestVerify:
    def test_stable_exit_zero(self, tmp_path, capsys, instance_file):
        mfile = tmp_path / "m.kdsm"
        mfile.write_text("KDSM-MATCHING 1\nfamily 0 0 0\nfamily 1 1 1\n")
        code, out, _ = run(capsys, "verify", str(instance_file), str(mfile))
        assert code == 0 and out.strip() == "STABLE"

    def test_unstable_exit_one_with_witness(self, tmp_path, capsys, instance_file):
        mfile = tmp_path / "m.kdsm"
        mfile.write_text("KDSM-MATCHING 1\n")
        code, out, _ = run(capsys, "verify", str(instance_file), str(mfile))
        assert code == 1
        assert out.startswith("UNSTABLE witness ")
        assert len(out.split()) == 5

    def test_invalid_matching_exit_two(self, tmp_path, capsys, instance_file):
        mfile = tmp_path / "m.kdsm"
        mfile.write_text("KDSM-MATCHING 1\nfamily 0 0 9\n")
        code, out, _ = run(capsys, "verify", str(instance_file), str(mfile))
        assert code == 2 and "INVALID" in out

    def test_unparseable_instance_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.kdsm"
        bad.write_text("not a kdsm file\n")
        mfile = tmp_path / "m.kdsm"
        mfile.write_text("KDSM-MATCHING 1\n")
        assert run(capsys, "verify", str(bad), str(mfile))[0] == 2


class TestSolve:
    def test_count(self, capsys, instance_file):
        code, out, _ = run(capsys, "solve", str(instance_file), "--mode", "count")
        assert code == 0 and out.strip() == "4"

    def test_enumerate_limit(self, capsys, instance_file):
        code, out, _ = run(capsys, "solve", str(instance_file), "--mode", "enumerate", "--limit", "2")
        assert code == 0
        blocks = [b for b in out.strip().split("\n\n") if b.strip()]
        assert len(blocks) == 2
        for b in blocks:
            parse_matching(b + "\n")

    def test_find_on_no_stable(self, tmp_path, capsys):
        from conftest import DATA

        code, out, _ = run(capsys, "solve", str(DATA / "no_stable_3dsmi.kdsm"), "--mode", "find")
        assert code == 0
        assert out.splitlines()[0] == "EXHAUSTED-NONE"

    def test_find_out_feeds_verify(self, tmp_path, capsys):
        inst, mfile = tmp_path / "inst.kdsm", tmp_path / "m.kdsm"
        assert run(capsys, "gen", "--k", "3", "--n", "3", "--seed", "5", "--out", str(inst))[0] == 0
        code, plain, _ = run(capsys, "solve", str(inst))
        assert code == 0 and plain.splitlines()[0] == "FOUND"
        code, out, _ = run(capsys, "solve", str(inst), "--out", str(mfile))
        assert code == 0
        # the status and nodes lines stay on stdout, the matching goes to the file
        assert out.splitlines() == plain.splitlines()[:2]
        assert out + mfile.read_text() == plain
        code, out, _ = run(capsys, "verify", str(inst), str(mfile))
        assert (code, out) == (0, "STABLE\n")

    def test_find_out_without_a_matching_writes_nothing(self, tmp_path, capsys):
        from conftest import DATA

        mfile = tmp_path / "m.kdsm"
        code, out, _ = run(capsys, "solve", str(DATA / "no_stable_3dsmi.kdsm"), "--out", str(mfile))
        assert code == 0 and out.splitlines()[0] == "EXHAUSTED-NONE"
        assert not mfile.exists()

    @pytest.mark.parametrize("mode", ["count", "enumerate"])
    def test_out_outside_find_mode_exit_two(self, tmp_path, capsys, monkeypatch, instance_file,
                                            mode):
        mfile = tmp_path / "m.kdsm"
        code, out, err = run(capsys, "solve", str(instance_file), "--mode", mode,
                             "--out", str(mfile))
        assert (code, out) == (2, "") and not mfile.exists()
        assert err.splitlines()[-1] == "error: --out takes the matching of --mode find"
        # a value set only by the variable reaches find mode alone
        plain = run(capsys, "solve", str(instance_file), "--mode", mode)[:2]
        monkeypatch.setenv("KDSM_OUT", str(mfile))
        assert run(capsys, "solve", str(instance_file), "--mode", mode)[:2] == plain
        assert not mfile.exists()

    def test_find_time_limit_zero(self, tmp_path, capsys):
        from conftest import DATA

        completed = tmp_path / "completed.kdsm"
        code, _, _ = run(
            capsys, "reduce", str(DATA / "no_stable_3dsmi.kdsm"), "--out", str(completed)
        )
        assert code == 0
        code, out, _ = run(capsys, "solve", str(completed), "--mode", "find", "--time-limit", "0")
        assert code == 0
        assert out.splitlines() == ["BUDGET-EXCEEDED", "nodes 1024"]

    @pytest.mark.parametrize("flags", [("--budget", "-5"), ("--time-limit", "-1")])
    def test_negative_budget_exit_two(self, capsys, flags):
        from conftest import DATA

        code, out, err = run(
            capsys, "solve", str(DATA / "no_stable_3dsmi.kdsm"), "--mode", "find", *flags
        )
        assert code == 2 and out == "" and "must be >= 0" in err

    def test_space_bound_exit_three(self, tmp_path, capsys):
        big = tmp_path / "big.kdsm"
        assert run(capsys, "gen", "--k", "3", "--n", "60", "--seed", "1", "--out", str(big))[0] == 0
        code, _out, err = run(capsys, "solve", str(big), "--mode", "count")
        assert code == 3 and "bound" in err

    def test_matching_walk_bound_exit_three(self, tmp_path, capsys, monkeypatch):
        # few enough families for the family bound, too many matchings for the walk
        monkeypatch.setattr(solve, "MAX_CANDIDATE_FAMILIES", 10_000)
        wide = tmp_path / "wide.kdsm"
        argv = ("--k", "3", "--n", "40", "--seed", "1", "--density", "0.5", "--out", str(wide))
        assert run(capsys, "gen", *argv)[0] == 0
        code, out, err = run(capsys, "solve", str(wide), "--mode", "count")
        assert code == 3 and out == ""
        assert "error: 10001 or more matchings exceed the bound 10000" in err.splitlines()

    def test_find_past_the_recursion_limit(self, tmp_path, capsys):
        sparse = tmp_path / "sparse.kdsm"
        argv = ("--k", "2", "--n", "1100", "--seed", "3", "--density", "0.003", "--out", str(sparse))
        assert run(capsys, "gen", *argv)[0] == 0
        code, out, _ = run(capsys, "solve", str(sparse), "--mode", "find")
        assert code == 0
        assert out.splitlines()[:2] == ["FOUND", "nodes 1100"]


class TestReduceInduce:
    def test_complete_reduction_header(self, tmp_path, capsys, instance_file):
        out = tmp_path / "c.kdsm"
        mp = tmp_path / "c.map"
        code, _, _ = run(capsys, "reduce", str(instance_file), "--mode", "complete",
                         "--out", str(out), "--map-out", str(mp))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "k 3" and lines[2] == "n 30"
        assert mp.read_text().splitlines()[0] == "KDSM-MAP 1"

    def test_3k_reduction_header(self, tmp_path, capsys, instance_file):
        out = tmp_path / "l.kdsm"
        code, _, _ = run(capsys, "reduce", str(instance_file), "--mode", "3k",
                         "--target-k", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "k 5" and lines[2] == "n 4"

    def test_3k_requires_k3_input(self, tmp_path, capsys):
        four = tmp_path / "k4.kdsm"
        run(capsys, "gen", "--k", "4", "--n", "2", "--out", str(four))
        code, _, err = run(capsys, "reduce", str(four), "--mode", "3k", "--target-k", "6")
        assert code == 2 and "3-type" in err

    def test_induce_round_trip_bytes(self, tmp_path, capsys, instance_file):
        comp, mp = tmp_path / "c.kdsm", tmp_path / "c.map"
        run(capsys, "reduce", str(instance_file), "--mode", "complete",
            "--out", str(comp), "--map-out", str(mp))
        mfile = tmp_path / "m.kdsm"
        mfile.write_text("KDSM-MATCHING 1\nfamily 0 0 0\nfamily 1 1 1\n")
        up = tmp_path / "up.kdsm"
        code, _, _ = run(capsys, "induce", "--direction", "up", "--map", str(mp),
                         "--matching", str(mfile), "--instance", str(instance_file),
                         "--out", str(up))
        assert code == 0
        # induced matching is perfect and stable upstairs
        code, out, _ = run(capsys, "verify", str(comp), str(up))
        assert code == 0 and out.strip() == "STABLE"
        down = tmp_path / "down.kdsm"
        code, _, _ = run(capsys, "induce", "--direction", "down", "--map", str(mp),
                         "--matching", str(up), "--instance", str(instance_file),
                         "--out", str(down))
        assert code == 0
        assert down.read_bytes() == mfile.read_bytes()

    def test_induce_up_of_empty_is_perfect(self, tmp_path, capsys, instance_file):
        comp, mp = tmp_path / "c.kdsm", tmp_path / "c.map"
        run(capsys, "reduce", str(instance_file), "--mode", "complete",
            "--out", str(comp), "--map-out", str(mp))
        empty = tmp_path / "empty.kdsm"
        empty.write_text("KDSM-MATCHING 1\n")
        up = tmp_path / "up.kdsm"
        run(capsys, "induce", "--direction", "up", "--map", str(mp),
            "--matching", str(empty), "--out", str(up))
        assert len(up.read_text().splitlines()) == 1 + 30  # header + n_out families

    def test_wrong_map_errors(self, tmp_path, capsys, instance_file):
        bad = tmp_path / "bad.map"
        bad.write_text("0 0 0\n")
        mfile = tmp_path / "m.kdsm"
        mfile.write_text("KDSM-MATCHING 1\n")
        code, _, err = run(capsys, "induce", "--direction", "up", "--map", str(bad),
                           "--matching", str(mfile))
        assert code == 2 and "malformed" in err

    def test_out_of_range_family_without_instance_exit_two(self, tmp_path, capsys,
                                                           instance_file):
        mp = tmp_path / "big.map"
        run(capsys, "reduce", str(instance_file), "--mode", "complete",
            "--out", str(tmp_path / "big.kdsm"), "--map-out", str(mp))
        mfile = tmp_path / "m.kdsm"
        mfile.write_text("KDSM-MATCHING 1\nfamily 5 5 5\n")
        code, out, err = run(capsys, "induce", "--direction", "up", "--map", str(mp),
                             "--matching", str(mfile))
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("mode", ["complete", "3k"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_every_written_file_reads_back(tmp_path, capsys, n, mode):
    inst, m = tmp_path / "inst.kdsm", tmp_path / "m.kdsm"
    big, mp = tmp_path / "big.kdsm", tmp_path / "big.map"
    up, down = tmp_path / "up.kdsm", tmp_path / "down.kdsm"
    assert run(capsys, "gen", "--k", "3", "--n", str(n), "--seed", "7", "--out", str(inst))[0] == 0
    code, out, _ = run(capsys, "solve", str(inst), "--mode", "enumerate", "--limit", "1")
    assert code == 0
    m.write_text(out)
    assert run(capsys, "reduce", str(inst), "--mode", mode, "--out", str(big),
               "--map-out", str(mp))[0] == 0
    assert run(capsys, "induce", "--direction", "up", "--map", str(mp),
               "--matching", str(m), "--instance", str(inst), "--out", str(up))[0] == 0
    code, out, _ = run(capsys, "verify", str(big), str(up))
    assert (code, out) == (0, "STABLE\n")
    assert run(capsys, "induce", "--direction", "down", "--map", str(mp),
               "--matching", str(up), "--instance", str(inst), "--out", str(down))[0] == 0
    assert down.read_bytes() == m.read_bytes()
    assert len(parse_matching(m.read_text())) == n


class TestExperimentCmd:
    def test_boros_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "rep.txt"
        code, _, _ = run(capsys, "experiment", "--id", "boros-bound", "--n", "2",
                         "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "summary failures 0" in text and "summary total 64" in text

    def test_unknown_id_exit_two(self, capsys):
        code, _, err = run(capsys, "experiment", "--id", "mystery")
        assert code == 2 and "known ids: boros-bound" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--id", "boros-bound", "--k", "1"),
            ("--id", "boros-bound", "--k", "0"),
            ("--id", "boros-bound", "--n", "-1"),
            ("--id", "boros-bound", "--samples", "-3"),
            ("--id", "eriksson-bound", "--samples", "5", "--threads", "0"),
            # flags the experiment does not take
            ("--id", "pp-two-matchings", "--k", "4", "--n", "4", "--samples", "1"),
            ("--id", "eriksson-bound", "--full"),
        ],
    )
    def test_bad_parameter_exit_two(self, capsys, flags):
        assert run(capsys, "experiment", *flags)[0] == 2

    @pytest.mark.parametrize("var, value", [("KDSM_FULL", "1"), ("KDSM_THREADS", "2")])
    def test_environment_default_skips_experiments_without_it(self, capsys, monkeypatch,
                                                              var, value):
        argv = ("experiment", "--id", "verifier-equivalence", "--samples", "1")
        plain = run(capsys, *argv)[:2]
        monkeypatch.setenv(var, value)
        assert run(capsys, *argv)[:2] == plain and plain[0] == 0

    def test_environment_default_reaches_experiments_with_it(self, capsys, monkeypatch):
        monkeypatch.setenv("KDSM_SAMPLES", "3")
        code, out, _ = run(capsys, "experiment", "--id", "eriksson-bound")
        assert code == 0 and "summary total 3" in out.splitlines()

    def test_explicit_flag_rejected_with_environment_set(self, capsys, monkeypatch):
        monkeypatch.setenv("KDSM_THREADS", "2")
        code, _, err = run(capsys, "experiment", "--id", "verifier-equivalence",
                           "--samples", "1", "--threads", "2")
        assert code == 2 and "does not take threads" in err

    def test_space_bound_in_a_pool_exit_three(self):
        # the worker's SpaceTooLargeError must reach the parent, not hang the pool
        env = {k: v for k, v in os.environ.items() if not k.startswith("KDSM_")}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", "from kdsm.cli import entry; entry()", "experiment",
             "--id", "boros-bound", "--k", "4", "--n", "6", "--samples", "4", "--threads", "2"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert "error: 373248000 perfect matchings exceed the bound" in proc.stderr

    def test_importing_the_cli_leaves_multiprocessing_unloaded(self):
        # only a run with threads > 1 needs the process pool
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, kdsm, kdsm.cli; print('multiprocessing' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_deterministic_report_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run(capsys, "experiment", "--id", "verifier-equivalence",
                             "--samples", "25", "--seed", "2", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


# (0, 0) accepts only (1, 1), so family 0 0 0 does not fit; 0 1 0 and 1 1 1
# both fit but share agent (1, 1)
PARTIAL = (
    "KDSM 1\nk 3\nn 2\npref 0 0 : 1\npref 0 1 : 0 1\npref 1 0 : 0 1\n"
    "pref 1 1 : 0 1\npref 2 0 : 0 1\npref 2 1 : 0 1\n"
)


@pytest.mark.parametrize(
    "families",
    [("0 1",), ("0 1 2",), ("0 -1 0",), ("0 1 0", "1 1 1"), ("0 0 0",), ("0 0 0", "1 0 5")],
    ids=["short", "out-of-range", "negative", "two-families", "unaccepted", "several"],
)
def test_verify_reports_one_violation(tmp_path, capsys, families):
    inst, m = tmp_path / "s.kdsm", tmp_path / "f.kdsm"
    inst.write_text(PARTIAL)
    m.write_text("KDSM-MATCHING 1\n" + "".join(f"family {f}\n" for f in families))
    code, out, err = run(capsys, "verify", str(inst), str(m))
    assert (code, out) == (2, "INVALID\n")
    config, *rest = err.splitlines()
    assert config.startswith("kdsm config:")
    assert len(rest) == 1 and rest[0].startswith("violation ")


@pytest.mark.parametrize("mode", ["3k", "complete"])
def test_induce_up_checks_the_matching_against_the_instance(tmp_path, capsys, mode):
    inst, m = tmp_path / "s.kdsm", tmp_path / "f.kdsm"
    big, mp, up = tmp_path / "big.kdsm", tmp_path / "big.map", tmp_path / "up.kdsm"
    inst.write_text(PARTIAL)
    m.write_text("KDSM-MATCHING 1\nfamily 0 0 0\n")
    assert run(capsys, "reduce", str(inst), "--mode", mode, "--out", str(big),
               "--map-out", str(mp))[0] == 0
    code, out, err = run(capsys, "induce", "--direction", "up", "--map", str(mp),
                         "--matching", str(m), "--instance", str(inst), "--out", str(up))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: agent (0, 0) does not accept (1, 0)"
    assert not up.exists()


def test_induce_down_checks_the_result_against_the_instance(tmp_path, capsys):
    inst, m = tmp_path / "s.kdsm", tmp_path / "f.kdsm"
    big, mp, down = tmp_path / "big.kdsm", tmp_path / "big.map", tmp_path / "down.kdsm"
    inst.write_text(PARTIAL)  # (0, 0) accepts only (1, 1)
    assert run(capsys, "reduce", str(inst), "--mode", "3k", "--target-k", "4",
               "--out", str(big), "--map-out", str(mp))[0] == 0
    m.write_text("KDSM-MATCHING 1\nfamily 0 0 0 0\n")  # goes down to family 0 0 0
    code, out, err = run(capsys, "induce", "--direction", "down", "--map", str(mp),
                         "--matching", str(m), "--instance", str(inst), "--out", str(down))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: agent (0, 0) does not accept (1, 0)"
    assert not down.exists()


def _env_cases():
    """Per subcommand flag, a KDSM_* value that the flag's type or choices reject."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in sub.choices.items():
        positionals = ["x" for a in parser._actions if not a.option_strings]
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            if action.choices is not None:
                value = "bogus"
            elif action.type in (int, float):
                value = "abc"
            elif action.nargs == 0:
                value = "maybe"
            else:
                continue
            yield pytest.param(command, positionals, "KDSM_" + action.dest.upper(), value,
                               id=f"{command}-{action.dest}")


@pytest.mark.parametrize("command, positionals, var, value", list(_env_cases()))
def test_environment_value_a_flag_rejects_exits_two(capsys, monkeypatch, command,
                                                    positionals, var, value):
    monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        main([command, *positionals])
    assert exc.value.code == 2
    assert f"kdsm {command}: error: argument --" in capsys.readouterr().err
