from collections import Counter

import pytest

from surfenum.canon import minimal_code
from surfenum.core import SurfaceKind, Triangulation, validate
from surfenum.listing import SearchConfig
from surfenum.oracle import brute_force_enumerate, cross_validate


class TestBruteForce:
    def test_counts_up_to_six(self):
        result = brute_force_enumerate(6)
        rows = [(v, cls.name, t, r, n) for v, cls, t, r, n in result.counts.rows()]
        assert rows == [
            (4, "S2", 1, 1, 0),
            (5, "S2", 1, 0, 1),
            (6, "S2", 2, 1, 1),
            (6, "RP2", 1, 1, 0),
        ]

    def test_counts_at_seven(self):
        result = brute_force_enumerate(7)
        at_seven = {(cls.name): (t, r, n)
                    for v, cls, t, r, n in result.counts.rows() if v == 7}
        assert at_seven == {"S2": (5, 1, 4), "T2": (1, 1, 0), "RP2": (3, 2, 1)}

    def test_codes_are_canonical_closed_surfaces(self):
        result = brute_force_enumerate(6)
        for (v, cls), codes in result.codes.items():
            for code in codes:
                t = Triangulation(code)
                assert t.vertex_count == v
                assert validate(t).kind is SurfaceKind.CLOSED_SURFACE
                assert minimal_code(code) == code

    def test_trivial_budgets(self):
        assert brute_force_enumerate(3).counts.rows() == []
        by_v = Counter(v for (v, _cls) in brute_force_enumerate(4).codes)
        assert by_v == {4: 1}

    @pytest.mark.parametrize("budget", [-1, 0, 2])
    def test_budget_below_three_is_rejected(self, budget):
        # the same check and message as SearchConfig
        with pytest.raises(ValueError, match="at least 3"):
            SearchConfig(max_vertices=budget)
        with pytest.raises(ValueError, match="at least 3"):
            brute_force_enumerate(budget)


class TestCrossValidate:
    def test_agreement_at_seven(self):
        report = cross_validate(7)
        assert report.equal
        assert report.total == 14
        assert not report.missing and not report.extra
        assert "OK" in report.summary()
