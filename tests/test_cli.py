"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.family == "er"
        assert args.variant == "max_degree"
        assert not args.fresh_start

    def test_invalid_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--family", "nope"])

    def test_invalid_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--variant", "nope"])


class TestRunCommand:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--family", "cycle", "--n", "24",
                     "--seed", "1", "--c1", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stabilized after" in out
        assert "|MIS|" in out

    def test_run_fresh_start(self, capsys):
        code = main(["run", "--family", "path", "--n", "12",
                     "--seed", "2", "--c1", "4", "--fresh-start"])
        assert code == 0

    def test_run_reference_engine(self, capsys):
        code = main(["run", "--family", "path", "--n", "10", "--seed", "3",
                     "--c1", "4", "--engine", "reference"])
        assert code == 0

    def test_run_two_channel(self, capsys):
        code = main(["run", "--family", "er", "--n", "40", "--seed", "4",
                     "--c1", "4", "--variant", "two_channel"])
        assert code == 0

    def test_watch_renders_waterfall(self, capsys):
        code = main(["run", "--family", "cycle", "--n", "16", "--seed", "5",
                     "--c1", "4", "--watch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "■" in out


class TestSweepCommand:
    def test_sweep_prints_table_and_fits(self, capsys):
        code = main(["sweep", "--family", "er", "--sizes", "16,32,64",
                     "--reps", "2", "--c1", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stabilization rounds" in out
        assert "log:" in out

    def test_sweep_empty_sizes(self, capsys):
        assert main(["sweep", "--sizes", ""]) == 2


class TestRecoverCommand:
    @pytest.mark.parametrize(
        "fault", ["random", "bernoulli:0.4", "all_silent", "all_prominent"]
    )
    def test_recover_all_fault_kinds(self, capsys, fault):
        code = main(["recover", "--family", "cycle", "--n", "20",
                     "--seed", "1", "--c1", "4", "--fault", fault])
        assert code == 0
        assert "recovered in" in capsys.readouterr().out

    def test_unknown_fault(self, capsys):
        assert main(["recover", "--n", "10", "--c1", "4",
                     "--fault", "gamma_rays"]) == 2


class TestAppCommands:
    def test_color(self, capsys):
        assert main(["color", "--family", "cycle", "--n", "20",
                     "--seed", "1", "--c1", "4"]) == 0
        out = capsys.readouterr().out
        assert "proper coloring" in out and "class sizes" in out

    def test_match(self, capsys):
        assert main(["match", "--family", "grid", "--n", "16",
                     "--seed", "2", "--c1", "4"]) == 0
        out = capsys.readouterr().out
        assert "maximal matching" in out


class TestOtherCommands:
    def test_figure1(self, capsys):
        assert main(["figure1", "--ell-max", "5"]) == 0
        out = capsys.readouterr().out
        assert "p(ℓ)" in out
        assert "0.062500" in out  # ℓ = 4 competition row
        assert "0.000000" in out  # ℓ = ℓmax silent row

    def test_info(self, capsys):
        assert main(["info", "--family", "grid", "--n", "25"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "components" in out


class TestRoundKernelFlag:
    """``--round-kernel`` reaches the library only when given; ``step``
    maps to ``round_kernel=None`` (the step loop)."""

    @pytest.mark.parametrize("argv, expected", [
        ([], {}),
        (["--round-kernel", "step"], {"round_kernel": None}),
        (["--round-kernel", "fused_numpy"], {"round_kernel": "fused_numpy"}),
    ])
    @pytest.mark.parametrize("command", [
        ["sweep", "--sizes", "16,32"],
        ["run", "--n", "24"],
    ])
    def test_forwarded_only_when_given(self, monkeypatch, capsys, command,
                                       argv, expected):
        seen = []
        real = cli.StabilizationRounds

        def spy(**kwargs):
            seen.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(cli, "StabilizationRounds", spy)
        argv = command + ["--reps", "3", "--c1", "4", "--seed", "2"] + argv
        assert main(argv) == 0
        (kwargs,) = seen
        given = {k: v for k, v in kwargs.items() if k == "round_kernel"}
        assert given == expected
