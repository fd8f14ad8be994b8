import pytest

from kdg.checks import SUITES, run_suite
from kdg.cli import main
from kdg.errors import PreconditionError


def test_suite_names():
    assert SUITES == ("lemmas", "families", "spectrum")
    with pytest.raises(PreconditionError):
        run_suite("nonsense")


@pytest.mark.parametrize("suite", SUITES)
def test_negative_trials_exit_4(suite, capsys):
    """A negative --trials is refused before any check runs, not read as
    zero trials that all pass."""
    with pytest.raises(PreconditionError, match="trials must be >= 0, got -5"):
        run_suite(suite, trials=-5)
    assert main(["verify", "--suite", suite, "--trials", "-5"]) == 4
    assert "passed" not in capsys.readouterr().out


def test_lemmas_suite_small():
    result = run_suite("lemmas", seed=3, trials=8)
    assert result.failed == 0
    assert result.passed > 0
    assert result.ok
    assert result.to_text().startswith("suite lemmas:")
    assert "[ok]" in result.to_text()


def test_families_suite():
    result = run_suite("families")
    assert result.failed == 0, result.failures
    assert result.passed >= 600


def test_spectrum_suite_small():
    result = run_suite("spectrum", seed=1, trials=20)
    assert result.failed == 0, result.failures
    assert result.passed > 100


@pytest.mark.parametrize("options", [["--trials", "7"], ["--seed", "0"], ["--seed", "3", "--trials", "0"]])
def test_families_suite_refuses_seed_and_trials(options, capsys):
    """The families suite runs one fixed grid, so a seed or a trial count,
    even seed 0, is refused with exit 4 instead of being dropped; the bare
    command still prints the whole grid's count."""
    assert main(["verify", "--suite", "families", *options]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: suite families runs a fixed grid of family members and stretch limits;"
        " it takes no --seed or --trials\n"
    )
    with pytest.raises(PreconditionError, match="fixed grid"):
        run_suite("families", seed=0)
    assert main(["verify", "--suite", "families"]) == 0
    assert capsys.readouterr().out == "suite families: 627 passed, 0 failed [ok]\n"


def test_seeded_suites_default_to_seed_0(capsys):
    for suite in ("lemmas", "spectrum"):
        assert main(["verify", "--suite", suite, "--trials", "3"]) == 0
        bare = capsys.readouterr().out
        assert main(["verify", "--suite", suite, "--trials", "3", "--seed", "0"]) == 0
        assert capsys.readouterr().out == bare
