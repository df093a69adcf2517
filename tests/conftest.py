import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate

from chartbank import AlreadyStoppedError


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one verdict line per acceptance criterion into the run summary.

    Passing tests have their stdout captured and discarded, so the lines are
    collected by the acceptance module and re-emitted here where they are
    always visible.
    """
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.line(line)


def quadrature_kl(log_p, log_q, low, high):
    """KL(p || q) by adaptive quadrature over [low, high].

    Independent of every closed form under test; both densities are given
    as log-density callables on scalars.
    """

    def integrand(x):
        lp = log_p(x)
        if not np.isfinite(lp):
            return 0.0
        return np.exp(lp) * (lp - log_q(x))

    value, _err = integrate.quad(integrand, low, high, limit=200)
    return value


def gaussian_logpdf(x, mean, sigma):
    return -0.5 * ((x - mean) / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)


class SteppedShellCases:
    """The stepped-detector shell's tests, run on each detector whose test class subclasses this.

    The subclass sets ``slot_shape``, the shape of one slot's observations,
    and defines ``detector(log_threshold)``, a fresh detector.
    """

    slot_shape: tuple[int, ...]

    def test_step_after_stop_raises(self):
        detector = self.detector(-100.0)
        assert detector.stopped is None
        x = np.full(self.slot_shape, 0.1)
        report = detector.step(x)
        assert report is not None and detector.stopped is report
        with pytest.raises(AlreadyStoppedError):
            detector.step(x)
        with pytest.raises(AlreadyStoppedError):
            detector.run_to_stop(x[..., None])

    def test_run_to_stop_refuses_bad_blocks(self):
        detector = self.detector(math.inf)
        for block in (np.zeros(self.slot_shape + (0,)), np.zeros((2, *self.slot_shape, 5)), np.zeros(self.slot_shape)):
            with pytest.raises(ValueError, match="nonempty"):
                detector.run_to_stop(block)
        assert detector.time == 0

    @pytest.mark.parametrize("log_threshold", [2.0, 5.0, math.inf])
    def test_run_to_stop_equals_stepping(self, log_threshold):
        block = np.random.default_rng(4).standard_normal(self.slot_shape + (60,)) * 2.0 + 1.0
        ran, stepped = self.detector(log_threshold), self.detector(log_threshold)
        report = ran.run_to_stop(block)
        for s in range(block.shape[-1]):
            expected = stepped.step(block[..., s])
            if expected is not None:
                break
        assert (report is None) == (log_threshold == math.inf)
        assert report == expected and ran.time == stepped.time


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else f'pid {pid}, unreaped'})")
