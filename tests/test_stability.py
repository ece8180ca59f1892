import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab import (
    CapExceededError,
    UndefinedValueError,
    builtin_fan,
    bundle_rank,
    connectivity_bound,
    dim_config,
    e1_support,
    min_unknown_band,
    r_min,
    stability_dim,
    stability_dim_n1,
    stability_dim_projective,
    stability_report,
    truncation_dim,
)
from toricstab.stability import BAND_COUNT_CAP, E1_CELL_CAP
from toricstab.oracles import _band_minimum

FAMILY = ("cp(1)", "cp(2)", "cp(3)", "hirzebruch(1)", "hirzebruch(2)", "hirzebruch(3)")


class TestStabilityDim:
    def test_hirzebruch_fixture(self, h1):
        assert stability_dim((5, 7, 5, 12), h1, 2) == 8

    def test_small_degrees_floor_to_minus_two(self, h1):
        assert stability_dim((1, 1, 1, 2), h1, 2) == -2

    @pytest.mark.parametrize("m", [2, 3])
    def test_projective_formula(self, m):
        fan = builtin_fan(f"cp({m - 1})")
        for d in (4, 7):
            for n in (2, 3):
                assert stability_dim([d] * m, fan, n) == (2 * n * m - 3) * (d // n) - 2

    def test_rejects_n_one(self, h1):
        with pytest.raises(UndefinedValueError, match="needs n >= 2"):
            stability_dim((5, 7, 5, 12), h1, 1)

    def test_monotone_in_degrees(self):
        rng = random.Random(77)
        for _ in range(40):
            fan = builtin_fan(rng.choice(FAMILY))
            r = fan.ray_count
            n = rng.randint(2, 4)
            degrees = tuple(rng.randint(1, 12) for _ in range(r))
            bump = tuple(rng.randint(0, 4) for _ in range(r))
            larger = tuple(d + b for d, b in zip(degrees, bump))
            assert stability_dim(degrees, fan, n) <= stability_dim(larger, fan, n)


class TestStabilityDimN1:
    def test_hirzebruch_gives_homology_range(self, h1):
        assert stability_dim_n1((5, 7, 5, 12), h1) == (3, "homology")

    def test_projective_plane_gives_homotopy_range(self, cp2):
        for d in (2, 5):
            assert stability_dim_n1((d, d, d), cp2) == (3 * d - 2, "homotopy")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_r_min_never_upgrades(self, k):
        fan = builtin_fan(f"hirzebruch({k})")
        _, kind = stability_dim_n1((4, 4, 4, 4 + 4 * k), fan)
        assert kind == "homology"


class TestStabilityDimProjective:
    def test_example(self):
        assert stability_dim_projective(6, 2, 2) == 19

    def test_degree_below_n(self):
        assert stability_dim_projective(1, 3, 2) == (2 * 3 * 2 - 3) - 1

    def test_monotone_in_degree(self):
        for d in range(1, 30):
            assert stability_dim_projective(d, 2, 3) <= stability_dim_projective(d + 1, 2, 3)

    def test_excluded_pair(self):
        with pytest.raises(UndefinedValueError, match=r"\(m, n\) = \(1, 1\) is excluded"):
            stability_dim_projective(5, 1, 1)


class TestConnectivity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch(self, k):
        assert connectivity_bound(builtin_fan(f"hirzebruch({k})"), 2) == 3

    def test_projective_plane(self, cp2):
        assert connectivity_bound(cp2, 2) == 7

    def test_lower_bound(self):
        rng = random.Random(5)
        for _ in range(20):
            fan = builtin_fan(rng.choice(FAMILY))
            n = rng.randint(2, 4)
            assert connectivity_bound(fan, n) >= 3

    def test_below_stability_dim_when_band_nonempty(self):
        rng = random.Random(6)
        for _ in range(30):
            fan = builtin_fan(rng.choice(FAMILY))
            n = rng.randint(2, 3)
            degrees = [n * rng.randint(1, 6) + rng.randint(0, n - 1)
                       for _ in range(fan.ray_count)]
            if min(degrees) // n >= 1:
                assert connectivity_bound(fan, n) <= stability_dim(degrees, fan, n)


class TestReport:
    def test_fields(self, h1):
        report = stability_report((5, 7, 5, 12), h1, 2)
        assert report.r_min == 2
        assert report.d_min == 5
        assert report.d_prime == 2
        assert report.stability_dim == 8
        assert report.connectivity == 3
        assert report.degree_null is True

    def test_invariant_identities(self):
        rng = random.Random(8)
        for _ in range(25):
            fan = builtin_fan(rng.choice(FAMILY))
            n = rng.randint(2, 4)
            degrees = tuple(rng.randint(1, 15) for _ in range(fan.ray_count))
            rep = stability_report(degrees, fan, n)
            assert rep.stability_dim == (2 * n * rep.r_min - 3) * rep.d_prime - 2
            assert rep.connectivity == 2 * n * rep.r_min - 5

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_family_formula(self, k):
        fan = builtin_fan(f"hirzebruch({k})")
        rng = random.Random(k)
        for _ in range(10):
            d1, d2 = rng.randint(1, 9), rng.randint(1, 9)
            n = rng.randint(2, 3)
            degrees = (d1, d2, d1, k * d1 + d2)
            rep = stability_report(degrees, fan, n)
            assert rep.degree_null
            assert rep.stability_dim == (4 * n - 3) * (min(d1, d2) // n) - 2


def _zero_conditions(k, s, d_prime, rm, n, r):
    """Independent restatement of the vanishing ranges, cell by cell."""
    conds = []
    if k == 0:
        conds.append(s != 0)
    elif k <= d_prime:
        conds.append(s <= (2 * n * rm - 2) * k - 1)
        conds.append(s > 2 * n * r * k)
    elif k == d_prime + 1:
        conds.append(s <= (2 * n * rm - 2) * d_prime - 1)
    return any(conds)


class TestE1Support:
    def test_fixture_cells(self, h1):
        sup = e1_support((5, 7, 5, 12), h1, 2)
        assert sup.status(1, 5) == "zero"          # 5 <= (8-2)*1 - 1
        assert sup.status(1, 6) == "possibly_nonzero"
        assert sup.status(0, 0) == "possibly_nonzero"
        assert sup.status(0, 4) == "zero"
        assert sup.status(5, 3) == "zero"          # beyond the truncation column

    def test_tail_edge(self, h1):
        sup = e1_support((5, 7, 5, 12), h1, 2)
        edge = (2 * 2 * 2 - 2) * 2  # (2 n r_min - 2) d'
        assert sup.status(3, edge - 1) == "zero"
        assert sup.status(3, edge) == "tail_unknown"

    def test_independent_rechecker(self):
        rng = random.Random(15)
        for _ in range(10):
            fan = builtin_fan(rng.choice(FAMILY))
            n = rng.randint(2, 3)
            degrees = tuple(rng.randint(n, 4 * n) for _ in range(fan.ray_count))
            sup = e1_support(degrees, fan, n)
            r = fan.ray_count
            for (k, s), status in sup.cells.items():
                vanishes = _zero_conditions(k, s, sup.d_prime, sup.r_min, n, r)
                if status == "zero":
                    assert vanishes, (k, s)
                elif status == "possibly_nonzero":
                    assert not vanishes and (k == 0 or k <= sup.d_prime), (k, s)
                else:
                    assert k == sup.d_prime + 1 and not vanishes, (k, s)

    def test_window_cap(self, h1):
        # d' = 2, so the window has 4 (s_max + 1) cells
        assert len(e1_support((5, 7, 5, 12), h1, 2, s_max=16383).cells) == E1_CELL_CAP
        with pytest.raises(CapExceededError, match="this one has 65540"):
            e1_support((5, 7, 5, 12), h1, 2, s_max=16384)
        with pytest.raises(CapExceededError):
            e1_support((600, 600, 600, 1200), h1, 2)

    def test_n_one_is_undefined(self, h1):
        with pytest.raises(UndefinedValueError, match="requires n >= 2"):
            e1_support((5, 7, 5, 12), h1, 1)

    def test_zero_below_diagonal_band(self):
        rng = random.Random(16)
        for _ in range(10):
            fan = builtin_fan(rng.choice(FAMILY))
            n = rng.randint(2, 3)
            degrees = tuple(rng.randint(n, 3 * n) for _ in range(fan.ray_count))
            sup = e1_support(degrees, fan, n)
            rm = sup.r_min
            for k in range(1, sup.d_prime + 1):
                for s in range(sup.s_min, sup.s_max + 1):
                    if s - k <= (2 * n * rm - 3) * k - 1:
                        assert sup.status(k, s) == "zero"


class TestBand:
    def test_fixture(self, h1):
        band = min_unknown_band((5, 7, 5, 12), h1, 2)
        assert band.value == 10
        assert band.value == stability_dim((5, 7, 5, 12), h1, 2) + 2

    def test_minimum_attained_at_first_band(self, h1):
        band = min_unknown_band((5, 7, 5, 12), h1, 2)
        assert band.per_t == {1: 10, 2: 11}
        assert band.per_t[1] == band.value
        assert all(band.per_t[t] >= band.value for t in band.per_t)

    def test_empty_band(self, h1):
        band = min_unknown_band((1, 1, 1, 2), h1, 2)
        assert band.empty and band.value is None

    def test_large_d_prime_returns_closed_form(self, h1):
        # d' = 40, far past what enumerating the tuples could reach
        band = min_unknown_band((80, 80, 80, 160), h1, 2)
        assert band.value == 200 == stability_dim((80, 80, 80, 160), h1, 2) + 2
        # band t is non-empty while t(t + 1)/2 <= d' + 1 = 41
        assert band.per_t == {t: 200 + t - 1 for t in range(1, 9)}

    def test_band_cap(self):
        cp1 = builtin_fan("cp(1)")
        # t_max = 2^16 needs d' + 1 >= 2^16 (2^16 + 1)/2
        d_prime = BAND_COUNT_CAP * (BAND_COUNT_CAP + 1) // 2 - 1
        assert len(min_unknown_band((2 * d_prime, 2 * d_prime), cp1, 2).per_t) == BAND_COUNT_CAP
        d_prime += BAND_COUNT_CAP + 1
        with pytest.raises(CapExceededError, match=f"this one has {BAND_COUNT_CAP + 1}"):
            min_unknown_band((2 * d_prime, 2 * d_prime), cp1, 2)
        # d' = 10^13 would list 4.47M bands uncapped
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            min_unknown_band((2 * 10 ** 13, 2 * 10 ** 13), cp1, 2)
        assert time.perf_counter() - start < 0.05

    def test_to_dict_maps_band_to_value(self, h1):
        band = min_unknown_band((5, 7, 5, 12), h1, 2)
        assert band.to_dict() == {"value": 10, "empty": False, "per_t": {"1": 10, "2": 11}}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FAMILY), st.integers(1, 12), st.integers(2, 4), st.data())
    def test_brute_force_matches_closed_form(self, name, d_prime, n, data):
        fan = builtin_fan(name)
        d_min = n * d_prime + data.draw(st.integers(0, n - 1))
        degrees = [d_min + data.draw(st.integers(0, 4)) for _ in range(fan.ray_count)]
        degrees[data.draw(st.integers(0, fan.ray_count - 1))] = d_min
        band = min_unknown_band(degrees, fan, n)
        for t in range(1, d_prime + 2):
            assert band.per_t.get(t) == _band_minimum(d_prime, t, n, r_min(fan)), t
        assert band.value == stability_dim(degrees, fan, n) + 2


class TestTruncationDim:
    def test_fixture(self, h1):
        assert truncation_dim((5, 7, 5, 12), h1, 2) == 48

    def test_cross_module_identity(self):
        rng = random.Random(31)
        for _ in range(30):
            fan = builtin_fan(rng.choice(FAMILY))
            n = rng.randint(2, 3)
            degrees = tuple(rng.randint(n, 5 * n) for _ in range(fan.ray_count))
            d_prime = min(degrees) // n
            value = truncation_dim(degrees, fan, n)
            assert value == (
                bundle_rank(degrees, d_prime, n, fan.ray_count)
                + dim_config(fan, n, d_prime) + 1
            )

    def test_slope_in_truncation_order(self, h1):
        # raising d_min by n with the total held fixed moves the value by 3 - 2 n r_min + 2n
        n = 2
        a = truncation_dim((4, 9, 4, 12), h1, n)
        b = truncation_dim((6, 9, 6, 12), h1, n)
        # d' goes 2 -> 3 while N(D) rises by 4: check against the closed form directly
        assert b - a == 2 * 4 + (3 - 2 * n * 2)


# every closed form that reads a degree vector, called as f(degrees, fan, n)
DEGREE_READERS = {
    "stability_dim": stability_dim,
    "stability_dim_n1": lambda degrees, fan, n: stability_dim_n1(degrees, fan),
    "stability_report": stability_report,
    "e1_support": e1_support,
    "min_unknown_band": min_unknown_band,
    "truncation_dim": truncation_dim,
}


@pytest.mark.parametrize("name", list(DEGREE_READERS))
@pytest.mark.parametrize("degrees,message", [
    ((5,), "expected 4 degrees, got 1"),
    ((5, 7, 5, 12, 3), "expected 4 degrees, got 5"),
    ((0, 7, 5, 12), "all degrees must be >= 1"),
    ((5, 7, -1, 12), "all degrees must be >= 1"),
    ((5.5, 7, 5, 12), "all degrees must be an int, got 5.5"),
    # the length is checked first, and before n
    ((0, 7), "expected 4 degrees, got 2"),
    ((5.5, 7), "expected 4 degrees, got 2"),
], ids=["short", "long", "zero", "negative", "float", "short-and-zero", "short-and-float"])
def test_bounds_refuse_bad_degree_vectors(name, degrees, message, h1):
    # stability_dim((5,), h1, 2) returned 8, e1_support((5,), ...) a table and
    # min_unknown_band((0, 7, 5, 12), ...) a band before the vector was checked
    for n in (2, 1):
        with pytest.raises(UndefinedValueError) as info:
            DEGREE_READERS[name](degrees, h1, n)
        assert str(info.value) == message


@pytest.mark.parametrize("bound,message", [
    (lambda fan: stability_dim((5, 7, 5, 12), fan, 1), "stability_dim needs n >= 2"),
    (lambda fan: connectivity_bound(fan, 1), "connectivity bound requires n >= 2"),
    (lambda fan: min_unknown_band((5, 7, 5, 12), fan, 1), "the band minima require n >= 2"),
    (lambda fan: truncation_dim((5, 7, 5, 12), fan, 1), "truncation dimension needs n >= 2"),
    (lambda fan: truncation_dim((1, 7, 5, 12), fan, 2), "needs floor"),
], ids=["stability_dim", "connectivity_bound", "min_unknown_band", "truncation_dim", "d_prime"])
def test_bounds_below_their_range_are_undefined(bound, message, h1):
    # exit 4 in toricctl, as every UndefinedValueError
    with pytest.raises(UndefinedValueError, match=message):
        bound(h1)
