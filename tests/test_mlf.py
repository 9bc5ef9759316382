import cmath
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfslab import mlf
from tfslab.errors import MLAccuracyError, MLDomainError, MLOverflowError
from tfslab.mlf import (
    FractionalOrder,
    MLParams,
    certify_c0,
    kernel_grid,
    ml_eval,
    rgamma_real,
    sector_bounds,
)

_KERNEL_REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                                 "ml_kernel_reference.json")

# Reference values computed offline with a high-precision series (working
# precision sized from the largest series term) and, on the half-order ray,
# the exp(z^2) erfc(-z) closed form.
_FROZEN_ML = [
    (0.5, 1.0, complex(1.0, 0.0), complex(5.008980080762283, 0.0)),
    (0.7, 1.0, complex(0.4, 0.3), complex(1.462274426673704, 0.5831655794960623)),
    (0.5, 1.0, complex(0.0, -8.0), complex(1.603810890548638e-28, -0.07108811174448088)),
    (0.3, 1.0, complex(0.0, -3.5), complex(0.03783561231503948, -0.21711044370785004)),
    (0.9, 1.9, complex(-6.0, 2.0), complex(0.1474657554316031, 0.04740373169508772)),
    (0.6, 0.6, complex(2.5, -2.5), complex(-18.13213619828924, -26.76253875099281)),
    (0.8, 1.8, complex(0.0, -30.0), complex(0.00024156342691272414, -0.033343332836686466)),
    (0.5, 1.5, complex(0.0, -20.0), complex(0.0014122437046028352, -0.05)),
    (0.45, 1.0, complex(-35.0, 10.0), complex(0.016273887734107075, 0.004624216984910452)),
    (0.35, 1.35, complex(4.6053049700144255, 1.9470917115432527),
     complex(-1.908373232402884e+17, 4.1340777747397536e+17)),
    (1.0, 2.0, complex(3.0, 4.0), complex(-4.127579483866332, 0.4365111574657907)),
    (0.5, 1.0, complex(0.0, -80.0), complex(0.0, -0.007052920889920355)),
    (0.5, 1.0, complex(0.0, -300.0), complex(0.0, -0.0018806423932885758)),
    (0.5, 1.0, complex(0.0, -5000.0), complex(0.0, -0.00011283791896630972)),
]


class TestRgamma:
    def test_rgamma_zero_at_poles(self):
        for n in range(0, 40):
            assert rgamma_real(-float(n)) == 0.0

    def test_rgamma_reciprocal(self):
        for x in [0.1, 0.5, 1.6, 7.3, 42.0, -2.5, -10.1]:
            assert rgamma_real(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-12)

    def test_rgamma_underflows_to_zero_for_large_argument(self):
        assert rgamma_real(400.0) == 0.0

    @pytest.mark.parametrize("x", [-171.5, -200.5])
    def test_rgamma_overflow_raises(self, x):
        # Gamma(-171.5) is subnormal and Gamma(-200.5) underflows to -0.0
        with pytest.raises(MLOverflowError):
            rgamma_real(x)

    def test_rgamma_against_mpmath(self):
        # the positive axis up to where Gamma overflows (171.6243...), both
        # sides of the poles down to -169, and the sixth weight
        # 1/Gamma(beta - 6 alpha) of the integral kernel's expansion at
        # alpha = 0.6, next to the pole at -2
        mpmath = pytest.importorskip("mpmath")
        near = [-k + d for k in range(1, 170) for d in (1e-3, -1e-3, 1e-6, -1e-6, 1e-9)]
        axis = np.concatenate((np.linspace(0.5, 12.0, 2001), np.linspace(12.0, 171.624, 2501)))
        xs = axis.tolist() + [171.2, 171.6] + near + [1.6 - 0.6 * 6]
        with mpmath.workdps(40):
            for x in xs:
                ref = mpmath.rgamma(mpmath.mpf(x))
                assert abs(rgamma_real(x) - ref) <= 2e-15 * abs(ref), x


class TestMLEval:
    def test_at_zero(self):
        assert ml_eval(MLParams(0.7, 1.0), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_exponential(self):
        assert ml_eval(MLParams(1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_cosine(self, monkeypatch):
        orders = []
        row = mlf._ml_row

        def spy(alpha, beta, z):
            orders.append(alpha)
            return row(alpha, beta, z)

        monkeypatch.setattr(mlf, "_ml_row", spy)
        got = ml_eval(MLParams(2.0, 1.0), -1.0)
        assert got == pytest.approx(math.cos(1.0), rel=1e-12)
        assert orders[:2] == [2.0, 1.0]  # reduced to E_{1,1} at the square roots
        # E_{2,1}(-x^2) = cos x and E_{2,1}(x^2) = cosh x, over a row
        got = ml_eval(MLParams(2.0, 1.0), np.array([-1.0, -4.0, 0.0, 9.0]))
        expect = [math.cos(1.0), math.cos(2.0), 1.0, math.cosh(3.0)]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_half_order_erfc_value(self):
        got = ml_eval(MLParams(0.5, 1.0), 1.0)
        assert got == pytest.approx(5.008980080762283, rel=1e-11)

    @pytest.mark.parametrize("alpha,beta,z,expect", _FROZEN_ML)
    def test_frozen_oracles(self, alpha, beta, z, expect):
        got = ml_eval(MLParams(alpha, beta), z, z_max=1e4)
        assert abs(got - expect) <= 1e-10 * (1.0 + abs(expect))

    def test_exponential_sweep(self):
        rng = np.random.default_rng(np.random.Philox(23))
        params = MLParams(1.0, 1.0)
        worst = 0.0
        for _ in range(200):
            r = 10.0 * math.sqrt(rng.random())
            th = rng.uniform(-math.pi, math.pi)
            z = r * cmath.exp(1j * th)
            rel = abs(ml_eval(params, z, verify=False) - cmath.exp(z)) / abs(cmath.exp(z))
            worst = max(worst, rel)
        assert worst <= 1e-10

    def test_recurrence_property(self):
        rng = np.random.default_rng(np.random.Philox(29))
        worst = 0.0
        for _ in range(300):
            alpha = rng.uniform(0.25, 1.6)
            beta = rng.uniform(-0.5, 2.5)
            th = rng.uniform(-math.pi, math.pi)
            r_cap = 50.0
            psi = th / alpha
            if abs(psi) <= math.pi and math.cos(psi) > 0.0:
                r_cap = min(r_cap, (120.0 / math.cos(psi)) ** alpha)
            z = r_cap * rng.random() * cmath.exp(1j * th)
            e1 = ml_eval(MLParams(alpha, beta), z, verify=False)
            e2 = ml_eval(MLParams(alpha, alpha + beta), z, verify=False)
            res = abs(e1 - rgamma_real(beta) - z * e2) / (1.0 + abs(e1))
            worst = max(worst, res)
        assert worst <= 1e-9

    def test_self_check_accepts_normal_input(self):
        ml_eval(MLParams(0.6, 1.0), complex(2.0, -1.0), verify=True)

    @pytest.mark.parametrize("alpha,beta", [(0.45, 1.0), (0.7, 1.2), (1.4, 0.9)])
    def test_array_matches_scalar_calls(self, alpha, beta):
        # the unit disk, contour and asymptotic ranges on the left half plane
        rng = np.random.default_rng(np.random.Philox(37))
        angle = math.pi * rng.uniform(0.5, 1.5, (3, 7))
        z = 80.0 * np.sqrt(rng.random((3, 7))) * np.exp(1j * angle)
        params = MLParams(alpha, beta)
        got = ml_eval(params, z)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        assert isinstance(ml_eval(params, z[0, 0]), complex)
        expect = [[ml_eval(params, complex(v)) for v in row] for row in z]
        assert np.array_equal(got, np.array(expect))

    def test_array_checks_every_element(self, monkeypatch):
        params = MLParams(0.5, 1.0)
        with pytest.raises(MLDomainError, match="beyond cap"):
            ml_eval(params, np.array([1.0, -2e4]))
        with pytest.raises(MLDomainError, match="finite"):
            ml_eval(params, np.array([[0.5, 1.0], [2.0, complex(0.0, math.inf)]]))
        with pytest.raises(MLOverflowError):
            ml_eval(MLParams(0.3, 1.0), np.array([0.5, -3.0, 40.0]))
        # a wrong last value of E_{1/2,1} breaks the shift recurrence there
        row = mlf._ml_row

        def skewed(alpha, beta, z):
            out = row(alpha, beta, z)
            if beta == 1.0:
                out[-1] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(mlf, "_ml_row", skewed)
        z = np.array([0.5, -2.0j, 3.0 - 1.0j])
        ml_eval(params, z, verify=False)
        with pytest.raises(MLAccuracyError, match=r"z=\(3-1j\)"):
            ml_eval(params, z)

    def test_cap_enforced(self):
        with pytest.raises(MLDomainError):
            ml_eval(MLParams(0.5, 1.0), 2e4)
        # explicit override admits larger arguments
        ml_eval(MLParams(0.5, 1.0), complex(0.0, -2e4), z_max=1e5)

    def test_nonfinite_rejected(self):
        with pytest.raises(MLDomainError):
            ml_eval(MLParams(0.5, 1.0), complex(math.nan, 0.0))

    def test_overflow_is_an_error(self):
        with pytest.raises(MLOverflowError):
            ml_eval(MLParams(0.3, 1.0), 40.0)
        for x in (40.0, 60.0):  # contour and asymptotic region of the row form
            with pytest.raises(MLOverflowError):
                mlf._ml_row(0.3, 1.0, np.array([0.5, x], dtype=complex))

    def test_invalid_params(self):
        with pytest.raises(MLDomainError):
            MLParams(0.0, 1.0)
        with pytest.raises(MLDomainError):
            MLParams(-0.5, 1.0)
        with pytest.raises(MLDomainError):
            MLParams(0.5, math.inf)


class TestKernels:
    def test_state_at_lambda_zero(self):
        order = FractionalOrder(0.6)
        got = kernel_grid(order, 0.0, np.array([2.0]), "state")[0]
        assert got == pytest.approx(1.0, abs=1e-13)

    def test_integral_at_lambda_zero(self):
        order = FractionalOrder(0.6)
        expect = 2.0**0.6 / math.gamma(1.6)
        got = kernel_grid(order, 0.0, np.array([2.0]), "integral")[0]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_classical_full_period(self):
        # alpha = 1 admitted for kernels only: e^{-2 pi i} = 1
        order = FractionalOrder(1.0)
        got = kernel_grid(order, 2.0, np.array([math.pi]), "state")[0]
        assert got == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_boundedness_on_certification_point(self):
        order = FractionalOrder(0.5)
        c0 = certify_c0(order, 0.75 * math.pi * 0.5,
                        lambda_grid=[4.0], t_grid=[1.0])
        v = kernel_grid(order, 4.0, np.array([1.0]), "state")[0]
        assert abs(v) * (1.0 + 4.0) <= c0 * (1.0 + 1e-12)

    def test_envelope_ratio_under_time_dilation(self):
        # |K(10t)| / |K(t)| stays within c0^2 of the envelope ratio
        order = FractionalOrder(0.5)
        c0 = certify_c0(order, 0.75 * math.pi * 0.5)
        for lam in (1.0, 10.0):
            for t in (0.05, 0.5, 5.0):
                k1 = abs(kernel_grid(order, lam, np.array([t]), "state")[0])
                k2 = abs(kernel_grid(order, lam, np.array([10.0 * t]), "state")[0])
                env = (1.0 + lam * t**0.5) / (1.0 + lam * (10.0 * t) ** 0.5)
                assert k2 / k1 <= c0**2 * env
                assert k2 / k1 >= env / c0**2

    def test_phase_variant_argument(self):
        order = FractionalOrder(0.5, "power_i_alpha")
        got = kernel_grid(order, 2.0, np.array([1.0]), "state")[0]
        expect = ml_eval(MLParams(0.5, 1.0), 2.0 * cmath.exp(-1j * math.pi * 0.25),
                         verify=False)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_phase_conventions_merge_at_alpha_one(self):
        t = np.array([0.7])
        s = kernel_grid(FractionalOrder(1.0, "standard_i"), 3.0, t, "state")[0]
        p = kernel_grid(FractionalOrder(1.0, "power_i_alpha"), 3.0, t, "state")[0]
        assert s == pytest.approx(p, rel=1e-12)

    def test_time_must_be_positive(self):
        with pytest.raises(MLDomainError):
            kernel_grid(FractionalOrder(0.5), 1.0, np.array([0.0]), "state")

    def test_unknown_kind(self):
        with pytest.raises(MLDomainError):
            kernel_grid(FractionalOrder(0.5), 1.0, np.array([1.0]), "resolvent")

    @pytest.mark.parametrize("x", [1.011e4, 1e5, 1e6])
    def test_half_order_kernels_beyond_old_cap(self, x):
        # E_{1/2,1}(z) = exp(z^2) erfc(-z), E_{1/2,3/2}(z) = (E_{1/2,1}(z) - 1)/z
        # on the standard ray z = -i x; x = 1.011e4 is mode 33 on (0, 1) at t = 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            z = mpmath.mpc(0.0, -x)
            e1 = mpmath.exp(z * z) * mpmath.erfc(-z)
            expect = {"state": complex(e1), "integral": complex((e1 - 1) / z)}
        order = FractionalOrder(0.5)
        for kind, ref in expect.items():
            got = kernel_grid(order, x, np.array([1.0]), kind)[0]
            assert abs(got - ref) <= 1e-12 * abs(ref), kind

    def test_order_validation(self):
        with pytest.raises(MLDomainError):
            FractionalOrder(0.0)
        with pytest.raises(MLDomainError):
            FractionalOrder(1.2)
        with pytest.raises(MLDomainError):
            FractionalOrder(0.5, "i_to_the_alpha")


class TestKernelGrid:
    def test_matches_ml_kernel(self):
        # The reference holds values of the scalar evaluator that ml_kernel
        # used before it became one point of kernel_grid, so the grid agrees
        # with them to rounding; where that evaluator ended an asymptotic sum
        # early, the reference holds the mpmath sum instead (see its
        # "about").  On the power_i_alpha ray both start from a
        # rounded phase factor and drift from the exact value like
        # eps * x^{1/alpha} (see the README), so the bound there carries
        # that envelope.
        with open(_KERNEL_REFERENCE) as fh:
            reference = json.load(fh)
        for row in reference["sweep"]:
            alpha = row["alpha"]
            order = FractionalOrder(alpha, row["phase"])
            lam = (row["mode"] * math.pi) ** 2
            times = np.array(row["times"])
            ref = np.array(row["re"]) + 1j * np.array(row["im"])
            if row["kind"] == "state":
                grid = kernel_grid(order, lam, times, "state")
            else:
                grid = kernel_grid(order, lam, np.concatenate(([0.0], times)), "integral")
                assert grid[0] == 0.0
                grid = grid[1:]
            bound = 1e-13 * np.maximum(1.0, np.abs(ref))
            if row["phase"] == "power_i_alpha":
                bound *= np.maximum(1.0, (lam * times**alpha) ** (1.0 / alpha))
            assert np.all(np.abs(grid - ref) <= bound), (row["phase"], alpha, row["mode"],
                                                         row["kind"])
        # At alpha = 0.143 and x = 50 the weight 1/Gamma(1 - 7 alpha) of term 7
        # is near zero, so term 8 outgrows it; the sum must not stop there.
        # The reference holds mpmath sums of the whole expansion; stopping
        # at term 7 moves the value by 1.8e-13.
        row = reference["truncation"]
        grid = kernel_grid(FractionalOrder(row["alpha"]), row["lam"], np.array(row["times"]),
                           row["kind"])
        ref = np.array(row["re"]) + 1j * np.array(row["im"])
        assert np.all(np.abs(grid - ref) <= 1e-15 * np.abs(ref))

    def test_disk_contour_near_a_zero(self):
        # z0 is a zero of E_{0.6,-0.5} inside the unit disk, where the value
        # is all cancellation; the disk's contour resolves it like the
        # points beside it
        mpmath = pytest.importorskip("mpmath")
        z = np.array([0.4052576574529808, 0.3 - 0.2j, -0.9j], dtype=complex)
        row = mlf._ml_row(0.6, -0.5, z)
        with mpmath.workdps(40):
            for v, zi in zip(row, z):
                w = mpmath.mpc(zi.real, zi.imag)
                ref = complex(mpmath.fsum(w**k * mpmath.rgamma(0.6 * k - 0.5)
                                          for k in range(200)))
                assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref)), zi

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_half_order_state_grid_against_mpmath(self, n):
        # E_{1/2,1}(z) = exp(z^2) erfc(-z) on the standard ray z = -i lam t^{1/2}
        mpmath = pytest.importorskip("mpmath")
        lam = (n * math.pi) ** 2
        times = np.linspace(0.0, 1.0, 201)[1:]
        grid = kernel_grid(FractionalOrder(0.5), lam, times, "state")
        with mpmath.workdps(40):
            for t, v in zip(times, grid):
                z = mpmath.mpc(0.0, -lam * math.sqrt(t))
                ref = complex(mpmath.exp(z * z) * mpmath.erfc(-z))
                assert abs(v - ref) <= 1e-12 * abs(ref), t

    @pytest.mark.parametrize("phase", ["standard_i", "power_i_alpha"])
    @pytest.mark.parametrize("lambdas,times,alphas", [
        # invert-order: 16 modes on the unit interval, 200 times on (0, 1];
        # at alpha = 0.9 some asymptotic sums need a second pass, and the
        # row spans several asymptotic blocks
        ((math.pi * np.arange(1, 17)) ** 2, np.arange(1, 201) / 200,
         (0.3, 0.45, 0.6, 0.75, 0.9)),
        # the decay-slope criterion: 2 modes at 25 times over [1e2, 1e4]
        ((math.pi * np.arange(1, 3)) ** 2, np.geomspace(1e2, 1e4, 25), (0.5, 0.8)),
    ], ids=["invert-order", "decay-slope"])
    def test_eigenvalue_array_is_stacked_rows(self, lambdas, times, alphas, phase):
        # one call over every eigenvalue equals the one-eigenvalue calls
        # stacked, bit for bit, for both kinds
        for alpha in alphas:
            order = FractionalOrder(alpha, phase)
            for kind, ts in (("state", times), ("integral", np.concatenate(([0.0], times)))):
                rows = kernel_grid(order, lambdas, ts, kind)
                stacked = np.array([kernel_grid(order, lam, ts, kind) for lam in lambdas])
                assert rows.shape == stacked.shape
                assert rows.tobytes() == stacked.tobytes(), (alpha, kind)

    def test_negative_eigenvalue_is_named(self):
        with pytest.raises(MLDomainError, match=r"nonnegative, got -2\.5$"):
            kernel_grid(FractionalOrder(0.5), np.array([1.0, -2.5, -4.0]),
                        np.array([1.0]), "state")

    def test_state_rejects_zero_time(self):
        with pytest.raises(MLDomainError):
            kernel_grid(FractionalOrder(0.5), 1.0, np.array([0.0, 1.0]), "state")

    def test_only_state_and_integral(self):
        with pytest.raises(MLDomainError):
            kernel_grid(FractionalOrder(0.5), 1.0, np.array([1.0]), "impulse")


def _mp_series(alpha, beta, z):
    """E_{alpha,beta}(z) from its power series in mpmath, with enough digits
    to absorb the cancellation of terms that peak near exp(|z|^{1/alpha})."""
    mpmath = pytest.importorskip("mpmath")
    growth = float(abs(z)) ** (1.0 / float(alpha))
    with mpmath.workdps(30 + int(growth / math.log(10.0))):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        total, power, k = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            term = power * mpmath.rgamma(a * k + b)
            total += term
            if k * alpha > growth + 2 and abs(term) < mpmath.mpf(10) ** -32:
                return complex(total)
            k += 1
            power *= z


def _mp_asymptotic(alpha, beta, z):
    """-sum_k z^{-k}/Gamma(beta - alpha k) in mpmath at a complex double z
    with |arg z| > alpha*pi, summed until three terms in a row fall below
    1e-40 of the sum (at |z| = 50 they do for alpha below about 0.85)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        w, a, b = mpmath.mpc(z.real, z.imag), mpmath.mpf(alpha), mpmath.mpf(beta)
        total, small = mpmath.mpf(0), 0
        for k in range(1, 400):
            term = w ** -k * mpmath.rgamma(b - a * k)
            total -= term
            small = small + 1 if abs(term) < mpmath.mpf(10) ** -40 * abs(total) else 0
            if small == 3:
                return complex(total)
    raise AssertionError(f"expansion at alpha={alpha}, |z|={abs(z)} stays above 1e-40")


class TestRowEvaluator:
    @pytest.mark.parametrize("alpha", [0.143, 0.111])
    def test_asymptotic_sum_passes_tiny_weights(self, alpha):
        # 1/Gamma(1 - 7 * 0.143) is -1e-3: term 7 is tiny and term 8 outgrows
        # it, but the expansion's envelope still falls; the sum goes on
        got = kernel_grid(FractionalOrder(alpha), 50.0, np.array([1.0]), "state")[0]
        ref = _mp_asymptotic(alpha, 1.0, complex(-50j))
        assert abs(got - ref) <= 1e-15 * abs(ref)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.05, 1.0, exclude_max=True),
           reach=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           phase=st.sampled_from(["standard_i", "power_i_alpha"]),
           kind=st.sampled_from(["state", "integral"]))
    def test_kernels_against_mpmath_series(self, alpha, reach, phase, kind):
        # 1 < x < 50 with x^{1/alpha} <= 250, where the mpmath series still
        # resolves its cancellation; E_{alpha,1} and E_{alpha,alpha+1} at
        # t = 1, on the power_i_alpha ray at the exact phase
        mpmath = pytest.importorskip("mpmath")
        x = min(50.0, 250.0**alpha) ** reach
        got = complex(kernel_grid(FractionalOrder(alpha, phase), x, np.array([1.0]), kind)[0])
        with mpmath.workdps(30):
            unit = mpmath.mpc(0, -1) if phase == "standard_i" else mpmath.expjpi(-alpha / 2)
            ref = _mp_series(alpha, 1.0 if kind == "state" else alpha + 1.0, x * unit)
        if phase == "standard_i":
            assert abs(got - ref) <= 1e-12 * abs(ref)
        else:  # the README's envelope for the rounded phase factor
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)) * max(1.0, x ** (1 / alpha))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.05, 1.0),
           kind=st.sampled_from(["state", "integral", "other"]),
           other=st.floats(-0.5, 10.0),
           radius=st.floats(0.0, 1.0),
           angle=st.floats(-math.pi, math.pi))
    def test_unit_disk_against_mpmath_series(self, alpha, kind, other, radius, angle):
        # the closed unit disk is one contour node set per (alpha, beta);
        # the kernels' beta in {1, alpha + 1} are held to a tighter bound
        beta = {"state": 1.0, "integral": alpha + 1.0}.get(kind, other)
        z = radius * cmath.exp(1j * angle)
        got = complex(mlf._ml_row(alpha, beta, np.array([z]))[0])
        ref = _mp_series(alpha, beta, z)
        tol = 2e-15 if kind != "other" else 2e-14
        assert abs(got - ref) <= tol * max(1.0, abs(ref))

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.63, 0.99, 1.0, 1.6])
    def test_value_at_zero(self, alpha):
        # z = 0 is a disk point like any other: no pole and no log(0)
        mpmath = pytest.importorskip("mpmath")
        for beta in (1.0, alpha + 1.0, -0.5, 0.5, 2.5, 10.0):
            ref = float(mpmath.rgamma(beta))
            tol = 1e-15 if beta in (1.0, alpha + 1.0) else 2e-14 * max(1.0, abs(ref))
            assert abs(ml_eval(MLParams(alpha, beta), 0.0) - ref) <= tol, beta

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.63, 0.99])
    def test_kernels_at_lambda_zero(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        order = FractionalOrder(alpha)
        state = kernel_grid(order, 0.0, np.array([0.5, 1.0]), "state")
        integral = kernel_grid(order, 0.0, np.array([0.0, 1.0]), "integral")
        assert np.all(np.abs(state - 1.0) <= 1e-15)
        assert integral[0] == 0.0
        assert abs(integral[1] - float(mpmath.rgamma(alpha + 1.0))) <= 1e-15

    def test_contour_row_is_pointwise(self):
        # 1e5 points over every node set, in many blocks: the row equals its
        # two halves evaluated separately, bit for bit
        rng = np.random.default_rng(np.random.Philox(41))
        z = rng.uniform(1.0, 50.0, 100_000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 100_000))
        row = mlf._contour_row(0.7, 1.7, z)
        halves = np.concatenate([mlf._contour_row(0.7, 1.7, z[:50_000]),
                                 mlf._contour_row(0.7, 1.7, z[50_000:])])
        assert np.array_equal(row, halves)

    @pytest.mark.parametrize("alpha,beta,n_far", [
        (0.7, 0.7, 300), (0.9, 1.0, 300), (1.8, 1.0, 300), (0.9, 1.0, 2_500),
    ], ids=["0.7-0.7", "0.9-1.0", "1.8-1.0", "0.9-1.0-blocks"])
    def test_row_is_pointwise(self, alpha, beta, n_far, monkeypatch):
        # one row over the closed unit disk, every contour node set and the
        # asymptotic sum with and without its exponential branch, where some
        # sums need a second 16-term pass: the row equals its two halves and
        # its one-point evaluations, bit for bit, so the one-region and
        # one-pass paths agree with the general ones; with 2,500 asymptotic
        # points the row and its second half span several asymptotic blocks
        sets, passes = set(), set()
        nodes, weights = mlf._contour_nodes, mlf._asymptotic_weights
        monkeypatch.setattr(mlf, "_contour_nodes",
                            lambda a, b, mu, strip: sets.add((mu, strip)) or nodes(a, b, mu, strip))
        monkeypatch.setattr(mlf, "_asymptotic_weights",
                            lambda a, b, chunk: passes.add(chunk) or weights(a, b, chunk))
        rng = np.random.default_rng(np.random.Philox(43))
        r = np.concatenate([rng.uniform(0.0, 1.0, 100), [0.0, 1.0, 50.0],
                            10.0 ** rng.uniform(0.0, math.log10(50.0), 600),
                            10.0 ** rng.uniform(math.log10(50.0), 4.0, n_far)])
        theta = rng.uniform(-math.pi, math.pi, r.size)
        far = r >= mlf.ASYMPTOTIC_RADIUS  # at |arg z| >= pi/2 no branch overflows
        theta[far] = np.copysign(rng.uniform(0.5 * math.pi, math.pi, far.sum()), theta[far])
        z = rng.permutation(r * np.exp(1j * theta))
        row = mlf._ml_row(alpha, beta, z)
        assert len(sets) == 9 and 1 in passes
        assert n_far < mlf._ASYMPTOTIC_BLOCK or far.sum() > 2 * mlf._ASYMPTOTIC_BLOCK
        if alpha <= 1.0:
            branch = np.abs(theta[far]) <= alpha * math.pi
            assert branch.any() and not branch.all()
        halves = np.concatenate([mlf._ml_row(alpha, beta, z[:500]),
                                 mlf._ml_row(alpha, beta, z[500:])])
        points = np.concatenate([mlf._ml_row(alpha, beta, z[i:i + 1]) for i in range(z.size)])
        assert row.tobytes() == halves.tobytes() == points.tobytes()


class TestSector:
    def test_hand_evaluated_bounds(self):
        lo, hi = sector_bounds(FractionalOrder(0.5), math.pi / 3.0)
        assert lo == pytest.approx(-math.pi)
        assert hi == pytest.approx(math.pi / 3.0)

    def test_positive_real_axis_inside_for_small_mu(self):
        # mu < pi/2 keeps arg 0 inside the sector
        lo, hi = sector_bounds(FractionalOrder(0.5), math.pi / 4.0 + 0.05)
        assert lo < 0.0 < hi

    def test_negative_imaginary_axis_inside(self):
        lo, hi = sector_bounds(FractionalOrder(0.5), math.pi / 3.0)
        assert lo <= -math.pi / 2.0 <= hi
        ang = cmath.phase(-1j * cmath.exp(-0.5j * math.pi / 2.0))  # arg(-i z^alpha)
        assert math.pi / 3.0 <= abs(ang) <= math.pi

    def test_membership_property(self):
        rng = np.random.default_rng(np.random.Philox(31))
        for alpha, mu in ((0.5, math.pi / 3.0), (0.8, 0.6 * math.pi * 0.8),
                          (0.3, 0.75 * math.pi * 0.3)):
            lo, hi = sector_bounds(FractionalOrder(alpha), mu)
            assert lo < hi
            for _ in range(340):
                theta = rng.uniform(lo + 1e-12, hi - 1e-12)
                ang = cmath.phase(-1j * cmath.exp(1j * alpha * theta))  # arg(-i z^alpha)
                assert mu - 1e-9 <= abs(ang) <= math.pi + 1e-9

    def test_mu_out_of_range(self):
        with pytest.raises(MLDomainError):
            sector_bounds(FractionalOrder(0.5), math.pi / 5.0)
        with pytest.raises(MLDomainError):
            sector_bounds(FractionalOrder(0.5), math.pi * 0.6)


class TestCertifyC0:
    @pytest.mark.parametrize("mu", [math.pi / 5.0, math.pi * 0.6])
    def test_mu_out_of_range(self, mu):
        # the sector's range of mu, as TestSector.test_mu_out_of_range
        with pytest.raises(MLDomainError):
            certify_c0(FractionalOrder(0.5), mu)

    def test_zero_eigenvalue_gives_one(self):
        c0 = certify_c0(FractionalOrder(0.5), math.pi / 3.0,
                        lambda_grid=[0.0], t_grid=[0.3, 1.0, 7.0])
        assert c0 == pytest.approx(1.0, abs=1e-12)

    def test_stable_under_refinement(self):
        order = FractionalOrder(0.5)
        mu = math.pi / 3.0
        base = certify_c0(order, mu)
        dense = certify_c0(order, mu, np.geomspace(1.0, 100.0, 37),
                           np.geomspace(1e-3, 1e3, 37))
        assert abs(dense - base) <= 0.05 * base

    def test_finite_and_at_least_one(self):
        c0 = certify_c0(FractionalOrder(0.9), 0.75 * math.pi * 0.9)
        assert 1.0 <= c0 <= 100.0

    def test_empty_grid_rejected(self):
        with pytest.raises(MLDomainError):
            certify_c0(FractionalOrder(0.5), math.pi / 3.0, lambda_grid=[],
                       t_grid=[1.0])
