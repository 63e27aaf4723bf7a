"""Tests for repro.utils: RNG determinism and formatting."""

import numpy as np

from repro.utils import ascii_table, rng_from_seed


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_from_seed(42).random(10)
        b = rng_from_seed(42).random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(rng_from_seed(1).random(10), rng_from_seed(2).random(10))

    def test_generator_passthrough(self):
        g = np.random.default_rng(7)
        assert rng_from_seed(g) is g

    def test_none_draws_a_fresh_generator(self):
        assert isinstance(rng_from_seed(None), np.random.Generator)


class TestFormat:
    def test_ascii_table_alignment(self):
        out = ascii_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "-" in lines[1]
        assert lines == ["a    bb", "---  --", "1    22", "333  4"]

    def test_ascii_table_empty_rows(self):
        out = ascii_table(["x"], [])
        assert "x" in out

    def test_ascii_table_strips_trailing_blanks(self):
        out = ascii_table(["name", "v"], [["x", ""], ["longer", 1]])
        assert all(line == line.rstrip() for line in out.splitlines())

    def test_ascii_table_stringifies_cells(self):
        out = ascii_table(["k", "v"], [[None, 1.5], [True, (1, 2)]])
        assert out.splitlines()[2:] == ["None  1.5", "True  (1, 2)"]
