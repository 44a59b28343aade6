"""Every chaos test's cut checks also ask the pairwise oracle."""

import pytest

from ..causality.pairwise_cuts import check_against_oracle


@pytest.fixture(autouse=True)
def cut_checks_match_the_oracle(monkeypatch):
    check_against_oracle(monkeypatch)
