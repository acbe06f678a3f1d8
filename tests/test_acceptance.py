"""End-to-end cross-validation: one test per acceptance check.

Each check is a callable in pvilab.acceptance returning (ok, detail); the
detail string carries the measured numbers so a failure is self-explaining.
"""

import pytest

from pvilab import acceptance

_BY_NAME = dict(acceptance.CRITERIA)


@pytest.mark.parametrize("name", [n for n, _ in acceptance.CRITERIA])
def test_criterion(name):
    ok, detail = _BY_NAME[name]()
    assert ok, detail


def test_details_are_deterministic():
    # runtimes gate the checks but stay out of the details, so selftest
    # output is the same bytes on every run
    assert acceptance.run_all() == acceptance.run_all()
