"""The command-line parser is built once per process; one call must not
leave anything behind for the next."""

from mosva import cli


def test_defaults_do_not_carry_over_between_calls():
    first = cli._PARSER.parse_args(["check", "x.mosva", "--suite", "D",
                                    "--max-weight", "2", "--report", "machine"])
    assert (first.suite, first.max_weight, first.report) == ("D", 2, "machine")
    again = cli._PARSER.parse_args(["check", "x.mosva"])
    assert (again.suite, again.max_weight, again.report) == ("all", 4, "text")
    other = cli._PARSER.parse_args(["oppose", "x.mosva", "-o", "y.mosva"])
    assert not hasattr(other, "suite")


def test_a_usage_error_leaves_the_parser_usable(tmp_path, capsys):
    path = str(tmp_path / "m.mosva")
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
    assert cli.main(["example", "matrix", "--cutoff", "x", "-o", path]) == cli.EXIT_USAGE
    assert cli.main(["example", "matrix", "-o", path]) == cli.EXIT_PASS
    assert cli.main(["check", path, "--suite", "vacuum"]) == cli.EXIT_PASS
    assert "usage error" in capsys.readouterr().err
