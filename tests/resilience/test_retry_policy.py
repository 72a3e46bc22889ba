"""Backoff schedule of the sweep-level :class:`RetryPolicy`.

The delay before retry ``k`` is ``backoff_base * 2 ** (k - 1)``,
capped at 30 s; a retry replays its point's own seed, so the schedule
is the only thing the policy decides.
"""

import pytest

from repro.experiments.resilience import BACKOFF_MAX_SECONDS, RetryPolicy


class TestDelayFor:
    def test_zero_base_means_no_delay(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.0)
        assert policy.delay_for(1) == 0.0
        assert policy.delay_for(3) == 0.0

    def test_exponential_growth(self):
        policy = RetryPolicy(max_retries=4, backoff_base=0.5)
        assert policy.delay_for(1) == pytest.approx(0.5)
        assert policy.delay_for(2) == pytest.approx(1.0)
        assert policy.delay_for(3) == pytest.approx(2.0)

    def test_cap_saturation(self):
        policy = RetryPolicy(max_retries=10, backoff_base=1.0)
        assert policy.delay_for(5) == pytest.approx(16.0)
        assert policy.delay_for(6) == pytest.approx(BACKOFF_MAX_SECONDS)
        assert policy.delay_for(9) == pytest.approx(BACKOFF_MAX_SECONDS)
