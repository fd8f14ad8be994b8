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
