"""Property tests: retry schedules and breakers are pure functions.

The resilience layer's determinism rests on two pillars:

1. :class:`RetryPolicy` backoffs are a stateless hash of
   ``(seed, key, attempt)`` — no RNG stream, no call-order coupling —
   so a retry schedule computed serially equals one computed in any
   shuffled interleaving (the shuffled-fleet determinism property).
2. :class:`CircuitBreaker` transitions are a pure function of the
   observation trace ``(op, timestamp)``: replaying the same trace on
   a fresh breaker reproduces the state *and* every transition
   counter.
"""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimError
from repro.resilience import (
    CLOSED, HALF_OPEN, OPEN, CircuitBreaker, Deadline, RetryPolicy,
)

_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_keys = st.text(min_size=1, max_size=24)
_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay=st.floats(min_value=0.001, max_value=1.0),
    multiplier=st.floats(min_value=1.0, max_value=4.0),
    max_delay=st.floats(min_value=1.0, max_value=60.0),
    jitter=st.floats(min_value=0.0, max_value=1.0),
)


class TestRetryPolicyPurity:
    @given(_policies, _seeds, _keys)
    def test_schedule_is_reproducible(self, policy, seed, key):
        assert policy.schedule(seed, key) == policy.schedule(seed, key)

    @given(_policies, _seeds, st.lists(_keys, min_size=1, max_size=8,
                                       unique=True),
           st.randoms(use_true_random=False))
    def test_serial_equals_shuffled(self, policy, seed, keys, rnd):
        """Evaluation order never leaks into the delays (no RNG state)."""
        work = [(key, attempt) for key in keys
                for attempt in range(1, policy.max_attempts + 1)]
        serial = {wa: policy.delay(seed, *wa) for wa in work}
        shuffled_work = list(work)
        rnd.shuffle(shuffled_work)
        shuffled = {wa: policy.delay(seed, *wa) for wa in shuffled_work}
        assert serial == shuffled

    @given(_policies, _seeds, _keys)
    def test_delays_bounded_by_jitter_band(self, policy, seed, key):
        for attempt in range(1, policy.max_attempts + 1):
            nominal = min(policy.max_delay,
                          policy.base_delay
                          * policy.multiplier ** (attempt - 1))
            d = policy.delay(seed, key, attempt)
            assert nominal * (1 - policy.jitter / 2) - 1e-12 <= d
            assert d <= nominal * (1 + policy.jitter / 2) + 1e-12

    @given(_seeds, _keys, st.integers(min_value=1, max_value=6))
    def test_different_attempts_decorrelate(self, seed, key, attempt):
        """The jitter hash keys on the attempt number too."""
        policy = RetryPolicy(max_attempts=8, jitter=1.0, base_delay=1.0,
                             multiplier=1.0, max_delay=1.0)
        delays = {policy.delay(seed, key, a) for a in range(1, 9)}
        # constant nominal => any spread comes purely from the hash
        assert len(delays) > 1

    def test_validation(self):
        with pytest.raises(SimError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(SimError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(SimError):
            RetryPolicy().delay(0, "k", 0)


class TestDeadline:
    @given(st.floats(min_value=0, max_value=1e9),
           st.floats(min_value=0, max_value=1e9))
    def test_after_remaining_expired(self, now, budget):
        d = Deadline.after(now, budget)
        # (now + budget) - now cancels low bits: allow a few ulps of now
        ulps = 4 * 2.3e-16 * max(now, budget, 1.0)
        assert d.remaining(now) == pytest.approx(budget, abs=ulps)
        assert d.expired(now + budget)
        if now + budget > now:  # a budget that survives fp rounding
            assert not d.expired(now)
        assert d.remaining(now + budget + 1) == 0.0

    def test_never(self):
        d = Deadline.never()
        assert d.infinite
        assert not d.expired(1e18)
        with pytest.raises(SimError):
            Deadline.after(0.0, -1.0)


# A breaker observation trace: (op, dt) steps with strictly
# increasing time.
_ops = st.lists(
    st.tuples(st.sampled_from(["fail", "ok", "allow"]),
              st.floats(min_value=0.01, max_value=30.0)),
    min_size=1, max_size=60)


def _replay(trace, threshold, recovery):
    br = CircuitBreaker("peer", failure_threshold=threshold,
                        recovery_timeout=recovery)
    now = 0.0
    observed = []
    for op, dt in trace:
        now += dt
        if op == "fail":
            br.record_failure(now)
        elif op == "ok":
            br.record_success(now)
        else:
            observed.append(br.allow(now))
    return br, observed


class TestBreakerDeterminism:
    @given(_ops, st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.5, max_value=20.0))
    def test_trace_replay_is_exact(self, trace, threshold, recovery):
        a, allows_a = _replay(trace, threshold, recovery)
        b, allows_b = _replay(trace, threshold, recovery)
        assert allows_a == allows_b
        assert (a.state, a.consecutive_failures, a.opened_at) \
            == (b.state, b.consecutive_failures, b.opened_at)
        assert (a.opens, a.half_opens, a.closes) \
            == (b.opens, b.half_opens, b.closes)

    @given(_ops, st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.5, max_value=20.0))
    def test_invariants(self, trace, threshold, recovery):
        br, _ = _replay(trace, threshold, recovery)
        assert br.state in (CLOSED, OPEN, HALF_OPEN)
        assert 0 <= br.consecutive_failures < threshold + 1
        # every close must have been preceded by an open
        assert br.closes <= br.opens
        assert br.half_opens <= br.opens + 1

    def test_canonical_lifecycle(self):
        br = CircuitBreaker("n1", failure_threshold=3,
                            recovery_timeout=10.0)
        for t in (1.0, 2.0, 3.0):
            assert br.allow(t)
            br.record_failure(t)
        assert br.state == OPEN and br.opens == 1
        assert not br.allow(5.0)           # inside the recovery window
        due = br.opened_at + br.recovery_timeout
        assert due == 13.0
        assert not br.allow(due - 1e-9)    # still open just short of it
        assert br.state == OPEN
        assert br.allow(due)               # trial admitted at exactly 13.0
        assert br.state == HALF_OPEN and br.half_opens == 1
        br.record_failure(13.6)            # failed trial: back to open
        assert br.state == OPEN and br.opens == 2
        assert br.allow(24.0)
        br.record_success(24.1)
        assert br.state == CLOSED and br.closes == 1

    @pytest.mark.parametrize("opened_at, recovery", [
        (0.0, 10.0), (3.0, 10.0), (0.1, 0.2), (1e6, 1e-3),
    ])
    def test_half_open_exactly_at_the_recovery_boundary(self, opened_at,
                                                       recovery):
        br = CircuitBreaker("n1", failure_threshold=1,
                            recovery_timeout=recovery)
        br.record_failure(opened_at)
        due = opened_at + recovery
        assert not br.allow(math.nextafter(due, -math.inf))
        assert br.state == OPEN
        assert br.allow(due)
        assert br.state == HALF_OPEN

    def test_failed_trial_restarts_the_window_at_the_failure(self):
        br = CircuitBreaker("n1", failure_threshold=1,
                            recovery_timeout=10.0)
        br.record_failure(0.0)
        assert br.allow(10.0)
        br.record_failure(10.5)            # the trial fails late
        assert not br.allow(math.nextafter(20.5, -math.inf))
        assert br.allow(20.5)
        assert br.state == HALF_OPEN and br.half_opens == 2
