"""Tests for the seeded RNG registry."""

from repro.sim import RngRegistry


class TestRngRegistry:
    def test_streams_are_independent_and_stable(self):
        r1, r2 = RngRegistry(5), RngRegistry(5)
        a = r1.stream("alpha").random(4).tolist()
        # Creating another stream first must not perturb 'alpha'.
        r2.stream("beta").random(10)
        b = r2.stream("alpha").random(4).tolist()
        assert a == b

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random(4).tolist()
        b = RngRegistry(2).stream("x").random(4).tolist()
        assert a != b

    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(0)
        assert reg.stream("s") is reg.stream("s")

    def test_reset_recreates(self):
        reg = RngRegistry(0)
        first = reg.stream("s").random(3).tolist()
        reg.reset()
        again = reg.stream("s").random(3).tolist()
        assert first == again
