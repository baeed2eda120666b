"""Unit tests for content-addressed child seeds."""

import pytest

from repro.parallel.seeding import child_seed, child_seeds


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, "Mix", "ideal") == child_seed(7, "Mix", "ideal")

    def test_identity_parts_matter(self):
        base = child_seed(7, "Mix", "ideal")
        assert child_seed(7, "Mix", "max") != base
        assert child_seed(8, "Mix", "ideal") != base

    def test_order_matters(self):
        assert child_seed(0, "a", "b") != child_seed(0, "b", "a")

    def test_mixed_int_and_str_identity(self):
        assert child_seed(1, 3, "cap") == child_seed(1, 3, "cap")
        assert child_seed(1, 3, "cap") != child_seed(1, 4, "cap")

    def test_range_fits_uint32(self):
        for seed in (child_seed(0), child_seed(2**31, "x"), child_seed(5, 0)):
            assert 0 <= seed < 2**32
            assert isinstance(seed, int)

    def test_rejects_negative_run_seed(self):
        with pytest.raises(ValueError):
            child_seed(-1, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            child_seed(0, True)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            child_seed(0, 1.5)

    def test_independent_of_sibling_count(self):
        """A cell's seed never depends on which other cells run."""
        alone = child_seeds(3, [("OnlyMix", "ideal", "StaticCaps")])
        among = child_seeds(
            3,
            [
                ("OtherMix", "max", "StaticCaps"),
                ("OnlyMix", "ideal", "StaticCaps"),
            ],
        )
        assert alone[0] == among[1]


class TestGoldenSeeds:
    """Seeds pinned to the values the uncached string folding produced.

    A change to how identities are folded (caching included) must never
    shift a derived seed: every recorded noise stream depends on them.
    """

    GOLDEN = [
        ((0,), 2968811710),
        ((0, "site-batch", 0), 2396001874),
        ((7, "site-batch", 1), 2688286461),
        ((7, "site-batch", 575), 2386812600),
        ((123456, "site-batch", 42), 3263263450),
        ((1, "Mix", "ideal", "StaticCaps"), 1915997458),
        ((2**31, "x"), 2851379198),
        ((5, 0), 16823399),
        ((3, "cluster", 15, "replay"), 533104154),
        ((42, ""), 3444837047),
    ]

    @pytest.mark.parametrize("parts, expected", GOLDEN)
    def test_child_seed_golden(self, parts, expected):
        assert child_seed(*parts) == expected
        # Twice: the second call folds its strings from the cache.
        assert child_seed(*parts) == expected

    def test_child_seeds_golden(self):
        identities = [("OnlyMix", "ideal", "StaticCaps"), "solo", 9]
        expected = [2641691506, 4288739048, 2954317433]
        assert child_seeds(3, identities) == expected
        assert child_seeds(3, identities) == expected


class TestChildSeeds:
    def test_one_per_identity(self):
        seeds = child_seeds(0, [("a",), ("b",), ("c",)])
        assert len(seeds) == 3
        assert len(set(seeds)) == 3
