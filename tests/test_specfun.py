"""Special-function kernel against scipy and mpmath oracles."""
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from solvstates import ConvergenceError, DomainError
from solvstates import specfun
from solvstates.gazeau_klauder import RadialMeasure, pt_measure
from solvstates import intelligent
from solvstates.intelligent import laplace_bridge
from solvstates.perelomov import disk_identity_check


@pytest.mark.parametrize("n,a,b", [(0, 1.5, 0.7), (3, 1.5, 0.7), (7, 0.5, 2.5), (12, 3.0, 3.0)])
def test_jacobi_matches_scipy(n, a, b):
    xs = np.linspace(-0.95, 0.95, 11)
    got = specfun.jacobi_p(n, a, b, xs)
    want = sp.eval_jacobi(n, a, b, xs)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("a, b", [(1.5, 2.5), (-1.7, 0.3), (0.5 + 0.2j, -2.5)])
def test_jacobi_rows_equal_single_degrees_bitwise(a, b):
    xs = np.linspace(-0.95, 0.95, 41)
    for x in (xs, 0.3):
        rows = specfun.jacobi_rows(30, a, b, x)
        assert len(rows) == 31
        for n, row in enumerate(rows):
            assert np.array_equal(row, specfun.jacobi_p(n, a, b, x)), (n, x)


def test_jacobi_negative_parameters_against_mpmath():
    # parameters at or below -1 are outside scipy's reliable range;
    # integer a+b = -m is a genuine degeneracy of the recurrence and is
    # not reachable from the disk expansions, so it stays out of scope
    for n, a, b in [(4, -2.5, 1.0), (6, -5.0, -1.5), (3, -1.3, -1.1)]:
        for x in (-0.4, 0.0, 0.3):
            want = complex(mpmath.jacobi(n, a, b, x))
            got = specfun.jacobi_p(n, a, b, x)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@given(st.integers(min_value=0, max_value=10),
       st.floats(min_value=-0.9, max_value=0.9))
def test_jacobi_reflection_symmetry(n, x):
    a, b = 1.2, 0.8
    left = specfun.jacobi_p(n, a, b, -x)
    right = (-1.0) ** n * specfun.jacobi_p(n, b, a, x)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_hyp1f1_real_against_mpmath():
    for a, b, z in [(1.5, 4.0, 0.7), (2.0, 5.4, -3.0), (0.5, 2.0, 10.0)]:
        want = complex(mpmath.hyp1f1(a, b, z))
        got = specfun.hyp1f1(a, b, z)
        assert abs(got - want) < 1e-11 * abs(want)


def test_hyp1f1_complex_parameters_against_mpmath():
    # complex a is the case the disk expansions feed in
    for a, b, z in [(1.0 + 2.0j, 4.0, 0.5 + 0.3j),
                    (-0.7 + 1.1j, 5.4, 1.0j),
                    (2.5 - 0.4j, 3.0, -0.8 + 0.2j)]:
        want = complex(mpmath.hyp1f1(a, b, z))
        got = specfun.hyp1f1(a, b, z)
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_kummer_transformation():
    # e^-z M(a,b,z) = M(b-a,b,-z)
    for a, b, z in [(1.2, 3.7, 0.9), (0.4 + 0.6j, 4.2, 1.1 - 0.5j)]:
        lhs = np.exp(-z) * specfun.hyp1f1(a, b, z)
        rhs = specfun.hyp1f1(b - a, b, -z)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_hyp0f1_against_mpmath():
    for b, z in [(5.0, 1.0), (3.4, -2.0), (2.0, 0.25 + 1.0j)]:
        want = complex(mpmath.hyp0f1(b, z))
        got = specfun.hyp0f1(b, z)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


# rings of radius 0.3 .. 8: the arguments the Taylor checks of the analytic symbols use
_RING = np.concatenate([r * np.exp(2j * np.pi * np.arange(16) / 16) for r in (0.3, 2.0, 5.0, 8.0)])


@pytest.mark.parametrize("a, b", [(0.7, 2.3), (1.0 + 2.0j, 4.0), (-0.7 + 1.1j, 5.4),
                                  (2.5 - 0.4j, 3.0), (3.1, 4.1)])
def test_hyp1f1_array_against_mpmath(a, b):
    got = specfun.hyp1f1(a, b, _RING.reshape(4, 16))
    assert got.shape == (4, 16)
    with mpmath.workdps(40):
        want = np.array([complex(mpmath.hyp1f1(a, b, z)) for z in _RING])
    assert np.max(np.abs(got.ravel() - want) / np.maximum(1.0, np.abs(want))) < 1e-12


@pytest.mark.parametrize("b", [5.0, 3.4, 2.2 + 0.5j])
def test_hyp0f1_array_against_mpmath(b):
    got = specfun.hyp0f1(b, _RING)
    with mpmath.workdps(40):
        want = np.array([complex(mpmath.hyp0f1(b, z)) for z in _RING])
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-12


def test_hyp_arrays_equal_elementwise_calls_bitwise():
    rng = np.random.default_rng(7)
    scattered = rng.normal(scale=3.0, size=40) + 1j * rng.normal(scale=3.0, size=40)
    zs = np.concatenate([_RING, scattered, [0.0, 1e-12, -6.0]])
    for fn, args in ((specfun.hyp1f1, (0.7 + 0.3j, 2.3)), (specfun.hyp1f1, (-4.0, 2.5)),
                     (specfun.hyp0f1, (3.4,))):
        whole = fn(*args, zs)
        alone = [fn(*args, z) for z in zs]
        assert all(type(v) is complex for v in alone)
        assert np.array_equal(whole, np.array(alone)), fn.__name__


def test_hyp_parameter_checks_act_on_arrays():
    zs = np.array([0.5, -2.0 + 1.0j, 3.0j])
    # a = -3 terminates at degree 3, before the pole of b = -5 at k = 5
    got = specfun.hyp1f1(-3.0, -5.0, zs)
    want = sum(math.prod((-3.0 + j) / (-5.0 + j) for j in range(k)) * zs ** k / math.factorial(k)
               for k in range(4))
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
    with pytest.raises(DomainError, match="hyp1f1 pole"):
        specfun.hyp1f1(0.5, -2.0, zs)
    with pytest.raises(DomainError, match="hyp0f1 pole"):
        specfun.hyp0f1(-3.0, zs)
    # a pole past the last term every element needs (here k = 10) is never reached
    small = np.array([1e-3, 2e-3j])
    assert np.array_equal(specfun.hyp1f1(0.5, -10.0, small),
                          [specfun.hyp1f1(0.5, -10.0, z) for z in small])
    assert specfun.hyp1f1(0.5, 2.0, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("nu", [2.0, 4.0, 5.4])
def test_bessel_i_against_scipy(nu):
    xs = np.array([0.3, 1.0, 2.5, 6.0])
    got = np.array([specfun.bessel_i(nu, x) for x in xs])
    assert np.allclose(got, sp.iv(nu, xs), rtol=1e-12)


@pytest.mark.parametrize("nu", [2.0, 4.0, 5.4])
def test_bessel_k_against_scipy(nu):
    xs = np.array([0.3, 1.0, 2.5, 6.0])
    got = np.array([specfun.bessel_k(nu, x) for x in xs])
    assert np.allclose(got, sp.kv(nu, xs), rtol=1e-11)
    # one array call (x spanning several truncation points) matches the scalar calls
    grid = np.array([[0.3, 1.0], [2.5, 6.0], [1e-3, 40.0]])
    scalar = np.array([[specfun.bessel_k(nu, x) for x in row] for row in grid])
    assert isinstance(specfun.bessel_k(nu, 1.0), float)
    assert specfun.bessel_k(nu, grid).shape == grid.shape
    assert np.max(np.abs(specfun.bessel_k(nu, grid) / scalar - 1.0)) < 1e-14


@pytest.mark.parametrize("nu", [2.0, 5.4])
@pytest.mark.parametrize("x", [0.7, 2.5])
def test_bessel_wronskian(nu, x):
    w = x * (specfun.bessel_i(nu, x) * specfun.bessel_k(nu + 1.0, x)
             + specfun.bessel_i(nu + 1.0, x) * specfun.bessel_k(nu, x))
    assert w == pytest.approx(1.0, abs=1e-12)


_GRID_X = np.logspace(-3.0, math.log10(130.0), 400)


@pytest.mark.parametrize("nu, bound", [(0.0, 2e-14), (0.5, 2e-14), (1.0, 2e-14), (2.0, 2e-14),
                                       (4.0, 2e-14), (5.4, 2e-14), (6.4, 2e-14), (11.7, 2e-14),
                                       (20.0, 2e-14), (40.0, 1e-13), (80.0, 1e-13)])
def test_bessel_k_grid_against_scipy(nu, bound):
    want = sp.kv(nu, _GRID_X)
    below = want < 1e300
    got = specfun.bessel_k(nu, _GRID_X)
    assert np.max(np.abs(got[below] / want[below] - 1.0)) < bound


@pytest.mark.parametrize("nu", [400.0, 2e4, 2e6])
def test_log_bessel_k_where_k_leaves_the_float_range(nu):
    # K_nu(x) itself overflows here; its log stays within 4 ulp of a 40-digit oracle
    xs = _GRID_X[::36]
    with mpmath.workdps(40):
        want = np.array([float(mpmath.log(mpmath.besselk(nu, x))) for x in xs])
    got = specfun.log_bessel_k(nu, xs)
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("nu", [1e12, 1e20, 1e300])
def test_log_bessel_k_follows_the_uniform_expansion_at_huge_order(nu):
    # DLMF 10.41.4, leading term: K_nu(nu z) ~ sqrt(pi / (2 nu)) e^{-nu eta} / (1 + z^2)^{1/4}
    def leading(x):
        z = mpmath.mpf(x) / nu
        root = mpmath.sqrt(1 + z * z)
        eta = root + mpmath.log(z / (1 + root))
        return float(0.5 * mpmath.log(mpmath.pi / (2 * nu)) - nu * eta - mpmath.log(root) / 2)

    with mpmath.workdps(40):
        want = np.array([leading(x) for x in _GRID_X[::8]])
    assert np.allclose(specfun.log_bessel_k(nu, _GRID_X[::8]), want, rtol=1e-10, atol=0.0)


def test_bessel_k_work_is_bounded_and_warning_free(monkeypatch):
    # each x's node count is read from the counts its segment index is built from, before
    # anything is allocated: at most 128 nodes per x on the grid for every nu up to 1e300,
    # at most 6,000 (at x = 1e-300) and no RuntimeWarning for x in [1e-300, 1e300].  The
    # rule's cosh sees exactly the sum of those counts, so no window is padded
    widest, counted_nodes, rule_nodes = [], [], []
    repeat, cosh = np.repeat, np.cosh

    def counted(a, counts, *args, **kwargs):
        assert np.max(counts) <= 6000
        widest.append(int(np.max(counts)))
        counted_nodes.append(int(np.sum(counts)))
        return repeat(a, counts, *args, **kwargs)

    def summed(t, *args, **kwargs):
        rule_nodes.append(np.size(t))
        return cosh(t, *args, **kwargs)

    orders = np.concatenate(([0.0], np.logspace(-300.0, 300.0, 61)))
    wide = np.logspace(-300.0, 300.0, 61)
    monkeypatch.setattr(np, "repeat", counted)
    monkeypatch.setattr(np, "cosh", summed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in orders:
            specfun.log_bessel_k(nu, _GRID_X)
        assert max(widest) <= 128
        for nu in orders:
            assert np.all(np.isfinite(specfun.log_bessel_k(nu, wide)))
            specfun.bessel_k(nu, wide)
    assert len(rule_nodes) == 3 * orders.size
    assert rule_nodes == counted_nodes
    monkeypatch.undo()
    tracemalloc.start()
    try:
        specfun.bessel_k(5.4, np.logspace(-3.0, math.log10(130.0), 600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_bessel_k_arrays_equal_elementwise_calls_bitwise():
    # each x sums its own window alone, so an array call is its scalar calls, bit for bit
    r, _ = specfun.panel_rule([0.0, 188.0], 200)
    xs = np.concatenate([np.geomspace(1e-3, 130.0, 40), 2.0 * r])
    for nu in (0.0, 0.5, 2.0, 5.4, 80.0, 1e6, 1e300):
        for fn in (specfun.bessel_k, specfun.log_bessel_k):
            alone = [fn(nu, x) for x in xs.tolist()]
            assert all(type(v) is float for v in alone)
            assert np.array_equal(fn(nu, xs), np.array(alone)), (fn.__name__, nu)


@pytest.mark.parametrize("kappa, kappa_prime", [(2.7, 3.1), (1.2, 1.2), (3.9, 1.6), (22.0, 22.0)])
def test_log_bessel_k_on_the_moment_nodes(kappa, kappa_prime):
    # 2r on the 200- and 400-point rules of pt_measure, where windows are narrowest
    # (large 2r) and widest (small 2r): within 8 ulp of a 40-digit oracle
    measure = pt_measure(kappa, kappa_prime)
    for order in (200, 400):
        r, _ = specfun.panel_rule([0.0, measure.r_cutoff], order)
        xs = 2.0 * r[::7]
        with mpmath.workdps(40):
            want = np.array([float(mpmath.log(mpmath.besselk(measure.nu, x))) for x in xs])
        got = specfun.log_bessel_k(measure.nu, xs)
        assert np.all(np.abs(got - want) <= 8.0 * np.spacing(np.abs(want))), order


def test_bessel_k_refuses_an_infinite_argument():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu, x in ((2.0, math.inf), (2.0, np.array([1.0, math.inf])), (math.inf, 1.0),
                      (math.nan, 1.0)):
            for fn in (specfun.bessel_k, specfun.log_bessel_k):
                with pytest.raises(DomainError, match="nu < inf and 0 < x < inf"):
                    fn(nu, x)


def test_bessel_k_is_warning_free_down_to_the_least_double():
    # K_0(x) = -log(x/2) - gamma + O(x^2 log x); K_400 leaves the float range: inf, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e-307, 1e-310, 5e-324):
            want = math.log(2.0) - math.log(x) - float(mpmath.euler)
            assert specfun.bessel_k(0.0, x) == pytest.approx(want, rel=1e-14)
            assert specfun.log_bessel_k(0.0, x) == pytest.approx(math.log(want), rel=1e-14)
            assert specfun.bessel_k(400.0, x) == math.inf
            assert math.isfinite(specfun.log_bessel_k(400.0, x))


def test_bessel_k_of_an_empty_array_is_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((0,), (0, 3), (2, 0)):
            for fn in (specfun.bessel_k, specfun.log_bessel_k):
                got = fn(5.4, np.zeros(shape))
                assert got.shape == shape and got.dtype == float


@pytest.mark.parametrize("nu, x", [(0.0, 720.0), (2.0, 1e4), (400.0, 1e4)])
def test_log_bessel_i_where_i_overflows(nu, x):
    # past x = 716 the series' sum leaves the float range; powers of 2 of it go into the log
    with mpmath.workdps(40):
        want = float(mpmath.log(mpmath.besseli(nu, x)))
    assert specfun.log_bessel_i(nu, x) == pytest.approx(want, rel=4e-16)
    assert math.isfinite(RadialMeasure(nu=2.0, r_cutoff=1e3).weight(400.0))


@pytest.mark.parametrize("nu", [400.0, 2000.0])
def test_log_bessel_i_where_i_underflows(nu):
    for x in (0.5, 2.0, 30.0):
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.besseli(nu, x)))
        assert specfun.bessel_i(nu, x) == 0.0
        assert specfun.log_bessel_i(nu, x) == pytest.approx(want, rel=4e-16)


def test_radial_measure_weight_at_large_order():
    # (2/pi) r I_nu(2r) K_nu(2r): I_nu underflows and K_nu overflows at nu = 400
    measure = RadialMeasure(nu=400.0, r_cutoff=200.0)
    for r in (0.5, 3.0, 60.0):
        with mpmath.workdps(40):
            want = float(2 / mpmath.pi * r * mpmath.besseli(400, 2 * r) * mpmath.besselk(400, 2 * r))
        assert measure.weight(r) == pytest.approx(want, rel=1e-13)


def test_gauss_legendre_nodes_match_numpy():
    rule = specfun.gauss_legendre(24)
    xs, ws = np.polynomial.legendre.leggauss(24)
    assert np.allclose(np.sort(rule.nodes), xs, atol=1e-14)
    assert np.allclose(rule.weights[np.argsort(rule.nodes)], ws, atol=1e-14)


def test_gauss_legendre_exactness():
    # order m integrates monomials up to degree 2m-1 exactly, on one panel or several
    for edges in ([-1.0, 1.0], [-1.0, -0.2, 0.5, 1.0]):
        x, w = specfun.panel_rule(edges, 12)
        assert x.shape == w.shape == (12 * (len(edges) - 1),)
        for k in range(24):
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.dot(w, x ** k) == pytest.approx(want, abs=1e-13)


def test_gauss_legendre_scaled_interval():
    x, w = specfun.panel_rule([0.0, 2.0], 40)
    assert np.all((x > 0.0) & (x < 2.0))
    assert np.dot(w, np.exp(x)) == pytest.approx(math.e ** 2 - 1.0, rel=1e-14)
    x, w = specfun.panel_rule([0.0, 0.3, 1.1, 2.0], 40)
    assert np.dot(w, np.exp(x)) == pytest.approx(math.e ** 2 - 1.0, rel=1e-14)


def test_log_trapezoid_work_is_bounded_and_refused_past_its_cap(monkeypatch):
    # the window holds at most 1,239 nodes for the disk moments at nu >= 0.5 (481 at
    # nu = 1e300) and 869 for the Laplace bridge at nu >= -0.5; past LOG_RULE_CAP it is
    # refused by name before phi runs or anything is allocated
    widths = []
    rule = specfun.log_trapezoid

    def counted(case, phi, *shape):
        def seen(u):
            widths.append(u.size)
            return phi(u)
        return rule(case, seen, *shape)

    monkeypatch.setattr(specfun, "log_trapezoid", counted)
    monkeypatch.setattr(intelligent, "log_trapezoid", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in np.concatenate(([0.5], np.logspace(0.0, 300.0, 31))):
            for n in range(21):
                disk_identity_check(nu, n)
        disk_nodes, widths[:] = max(widths), []
        disk_identity_check(1e300, 0)
        assert widths == [481]
        for nu in np.concatenate((np.linspace(-0.5, 8.0, 18), np.logspace(1.0, 6.0, 11))):
            for n in range(9):
                laplace_bridge(nu, n, 0.5)
        laplace_nodes = max(widths)
    assert disk_nodes == 1239 and laplace_nodes == 869
    widths[:] = []
    with pytest.raises(ConvergenceError, match=r"Laplace bridge nu=-0\.999 n=0 zeta=0\.5 needs "
                       r"3\.2\de\+05 trapezoid nodes, past the cap of 65536"):
        laplace_bridge(-0.999, 0, 0.5)
    with pytest.raises(ConvergenceError, match="disk moment n=0 needs"):
        disk_identity_check(1e-3, 0)
    assert not widths
    monkeypatch.undo()
    tracemalloc.start()
    try:
        laplace_bridge(-0.99, 0, 0.5)  # 33,601 nodes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_log_trapezoid_sums_a_gaussian_and_a_logistic_bump():
    # both sums against closed forms: sqrt(2 pi / c), and B(a, b) for t^a (1-t)^b in
    # s = log(t / (1-t)), whose log integrand is a s - (a + b) log(1 + e^s)
    for c in (1e-2, 1.0, 1e6):
        coarse, fine = specfun.log_trapezoid("gauss", lambda u: -0.5 * c * u * u, c, math.inf,
                                             math.inf)
        assert coarse == pytest.approx(0.5 * math.log(2.0 * math.pi / c), abs=1e-14)
        assert fine == pytest.approx(0.5 * math.log(2.0 * math.pi / c), abs=1e-14)
    a, b = 1.0, 1.0
    coarse, fine = specfun.log_trapezoid(
        "logistic", lambda u: a * u - (a + b) * np.logaddexp(0.0, u), a * b / (a + b), a, b)
    want = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    assert abs(fine - want) <= 1e-15 and abs(coarse - want) <= 1e-12


def test_settled_refuses_disagreeing_resolutions():
    assert specfun.settled("case", 1.0, 1.0 + 1e-12, 1e-9) == 1.0 + 1e-12
    with pytest.raises(ConvergenceError, match=r"moment n=3 quadrature unsettled: "
                       r"coarse 1\.0, fine 1\.5 \(gap 5\.000e-01 > 1\.0e-09\)"):
        specfun.settled("moment n=3", 1.0, 1.5, 1e-9)
    coarse = np.zeros((2, 3))
    fine = coarse.copy()
    fine[1, 2] = 2e-9
    with pytest.raises(ConvergenceError, match=r"coarse 0\.0, fine 2e-09"):
        specfun.settled("overlap", coarse, fine, 1e-9)
    with pytest.raises(ConvergenceError):
        specfun.settled("nan", 1.0, math.nan, 1e-9)


def test_gauss_legendre_order_guard():
    with pytest.raises(DomainError):
        specfun.gauss_legendre(0)
    with pytest.raises(DomainError):
        specfun.gauss_legendre(1000)
