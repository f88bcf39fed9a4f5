import warnings

import numpy as np
import pytest

import qharmonics.variation as variation
from qharmonics.grids import fixture_values
from qharmonics.errors import (
    IndexOutOfRangeError,
    InvalidParameterError,
    InvariantViolationError,
    NonFiniteError,
)
from qharmonics.variation import (
    Net,
    hardy_bvf_check,
    jordan_split,
    mixed_difference,
    quasi_monotone_check,
    vitali_variation,
)


def product_st(S, T):
    return S * T


def test_net_validation():
    with pytest.raises(ValueError):
        Net(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Net(np.array([0.0]), np.array([0.0, 1.0]))


def test_coarsened_keeps_every_step_th_cut_and_the_last():
    for m, n in ((2, 3), (7, 12), (33, 40)):
        net = Net.uniform(0, 1, m - 1, 0, 1, n - 1)
        for step in range(1, 14):
            for got, size in zip(net.coarsened(step), (m, n)):
                np.testing.assert_array_equal(
                    got, np.unique(np.append(np.arange(0, size, step), size - 1)))


def test_mixed_difference_examples():
    unit = Net.uniform(0, 1, 1, 0, 1, 1)
    f = fixture_values(product_st, unit.s_cuts[:, None], unit.t_cuts[None, :])
    d11, d10, d01 = mixed_difference(f, (0, 0))
    assert (d11, d10, d01) == (1.0, 0.0, 0.0)

    const = np.full((4, 4), 3.7)
    assert mixed_difference(const, (1, 2)) == (0.0, 0.0, 0.0)

    net = Net.uniform(-1, 2, 5, 0, 1, 6)
    sep = fixture_values(lambda S, T: np.exp(S) + np.sin(3 * T), net.s_cuts[:, None],
                         net.t_cuts[None, :])
    d11s = [mixed_difference(sep, (i, j))[0]
            for i in range(5) for j in range(6)]
    assert np.max(np.abs(d11s)) < 1e-12

    for cell in ((3, 0), (1.5, 0), (0, 1.5)):
        with pytest.raises(IndexOutOfRangeError):
            mixed_difference(const, cell)


def test_vitali_product_and_constant():
    for m, n in ((1, 1), (4, 7), (13, 5)):
        net = Net.uniform(0, 1, m, 0, 1, n)
        assert abs(vitali_variation(product_st, net) - 1.0) < 1e-12
    net = Net.uniform(0, 1, 8, 0, 1, 8)
    assert vitali_variation(np.full((9, 9), 2.0)) == 0.0


def test_vitali_separable_factorization():
    g = lambda s: np.sin(3.0 * s) + 0.5 * s
    h = lambda t: np.exp(-t) * np.cos(5.0 * t)
    net = Net.uniform(-1, 1, 40, 0, 2, 33)
    v2d = vitali_variation(lambda S, T: g(S) * h(T), net)
    v_g = np.sum(np.abs(np.diff(g(net.s_cuts))))
    v_h = np.sum(np.abs(np.diff(h(net.t_cuts))))
    np.testing.assert_allclose(v2d, v_g * v_h, rtol=1e-10)


def test_vitali_net_monotone_under_refinement():
    fn = lambda S, T: np.sin(2 * S + 1) * np.cos(3 * T) + S * T
    coarse = Net.uniform(-1, 1, 8, -1, 1, 8)
    fine = Net.uniform(-1, 1, 64, -1, 1, 64)
    assert vitali_variation(fn, fine) >= vitali_variation(fn, coarse) - 1e-12


def test_hardy_check_gaussian_and_constant():
    net = Net.uniform(-3, 3, 64, -3, 3, 64)
    rep = hardy_bvf_check(lambda S, T: np.exp(-(S ** 2 + T ** 2)), net)
    assert rep.is_hardy_bvf and rep.nets_tested > 1
    assert rep.vitali < 10 and rep.line_var_s < 5 and rep.line_var_t < 5

    rep0 = hardy_bvf_check(np.zeros((65, 65)) + 1.0, net)
    assert rep0.is_hardy_bvf
    assert (rep0.vitali, rep0.line_var_s, rep0.line_var_t) == (0.0, 0.0, 0.0)
    # sections are indices of the 65 x 65 field, never wrapped
    assert hardy_bvf_check(np.ones((65, 65)), net, t_index=64, s_index=0).is_hardy_bvf
    for kw in ({"t_index": 65}, {"s_index": 65}, {"t_index": -1}, {"s_index": -65},
               {"t_index": 1.5}, {"s_index": 1.5}):
        with pytest.raises(IndexOutOfRangeError):
            hardy_bvf_check(np.ones((65, 65)), net, **kw)


def test_hardy_check_oscillatory_section_grows():
    # cuts at the extrema of sin(1/s): variation doubles with each refinement
    def osc(S, T):
        out = np.sin(1.0 / np.where(S > 0, S, 1.0)) * (S > 0)
        return out * np.ones_like(T)

    def extrema_net(kmax):
        s = np.sort(1.0 / ((np.arange(1, kmax) + 0.5) * np.pi))
        cuts = np.concatenate([[1e-9], s, [1.0]])
        return Net(cuts, np.array([-1.0, 0.0, 1.0]))

    small = hardy_bvf_check(osc, extrema_net(200), bound=100.0, t_index=0)
    big = hardy_bvf_check(osc, extrema_net(400), bound=100.0, t_index=0)
    assert big.line_var_s > 1.8 * small.line_var_s
    assert not big.is_hardy_bvf


def test_quasi_monotone_examples():
    net = Net.uniform(-1, 1, 10, -1, 1, 10)
    assert quasi_monotone_check(lambda S, T: np.exp(S) * np.exp(T), net)
    assert quasi_monotone_check(np.full((4, 4), 1.25))
    net01 = Net.uniform(0, 1, 10, 0, 1, 10)
    assert not quasi_monotone_check(lambda S, T: -S * T, net01)


def test_jordan_split_quasi_monotone_input():
    net = Net.uniform(0, 1, 6, 0, 1, 6)
    f = fixture_values(product_st, net.s_cuts[:, None], net.t_cuts[None, :])
    f1, f2 = jordan_split(f)
    assert np.max(np.abs(f2)) == 0.0
    np.testing.assert_allclose(f1 - f2, f, atol=1e-12)

    c = np.full((5, 5), -2.5)
    f1, f2 = jordan_split(c)
    np.testing.assert_allclose(f1 - f2, c, atol=0)
    assert quasi_monotone_check(f1) and quasi_monotone_check(f2)


def test_jordan_split_random_fields():
    rng = np.random.default_rng(21)
    for _ in range(100):
        f = rng.normal(size=(6, 6))
        f1, f2 = jordan_split(f)
        assert np.max(np.abs((f1 - f2) - f)) < 1e-10
        assert quasi_monotone_check(f1)
        assert quasi_monotone_check(f2)


def test_hardy_check_coarsening_violation_raises_typed_error(monkeypatch):
    net = Net.uniform(-3, 3, 16, -3, 3, 16)
    monkeypatch.setattr(variation, "vitali_variation", lambda f: 0.0)
    with pytest.raises(InvariantViolationError):
        hardy_bvf_check(lambda S, T: np.exp(-(S ** 2 + T ** 2)), net)


@pytest.mark.parametrize("value", ["3", 3 + 5j, np.nan, np.inf, -np.inf],
                         ids=["str", "complex", "nan", "inf", "-inf"])
def test_fields_follow_the_argument_rule(value):
    """A field is finite reals: a string or complex entry raises
    InvalidParameterError, and NaN or an infinity NonFiniteError, where
    numpy would parse the strings, drop the imaginary part or take
    inf - inf."""
    f = np.array([[0, 1, 2], [1, 3, 4], [2, 4, value]])
    net = Net.uniform(0, 1, 2, 0, 1, 2)
    for call in (lambda: vitali_variation(f), lambda: hardy_bvf_check(f, net)):
        error = NonFiniteError if isinstance(value, float) else InvalidParameterError
        with pytest.raises(error, match=r"\bf\b"):
            call()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "-inf"])
@pytest.mark.parametrize("name", ["hardy_bvf_check", "vitali_variation", "quasi_monotone_check",
                                  "jordan_split"])
def test_infinite_fields_are_refused_before_any_difference(name, sign):
    """A 5 x 5 field of ones with an infinity at [2, 2] and [2, 3], where a
    mixed difference would be inf - inf: each function raises
    NonFiniteError naming the first one, with no RuntimeWarning."""
    f = np.ones((5, 5))
    f[2, 2:4] = sign * np.inf
    net = Net.uniform(0, 1, 4, 0, 1, 4)
    call = getattr(variation, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"\bf\b.* at index \(2, 2\)"):
            call(f, net)


def test_callable_fields_need_a_net_and_fields_must_match_theirs():
    net = Net(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4))
    fn = lambda S, T: S * T  # noqa: E731
    for check in (vitali_variation, quasi_monotone_check, jordan_split):
        with pytest.raises(InvalidParameterError, match="a net is required"):
            check(fn)
        with pytest.raises(IndexOutOfRangeError, match=r"does not match net shape \(5, 4\)"):
            check(np.zeros((4, 5)), net)
    assert vitali_variation(fn, net) == pytest.approx(1.0)
