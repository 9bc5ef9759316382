import cmath
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
        with pytest.raises(MLDomainError):
            MLParams(1e300, 1.0)

    @pytest.mark.parametrize("alpha,beta", [
        (np.full(3, 0.5), np.ones(3)),  # both orders a row too short
        (np.full((2, 3), 0.5), 1.0),  # alpha a row of the wrong shape
        (0.5, np.ones(4)),  # beta a row of the wrong size
    ], ids=["both", "alpha", "beta"])
    def test_order_rows_must_have_the_argument_shape(self, alpha, beta):
        # a row of orders is each point's own: nothing is broadcast
        z = np.ones((2, 2))
        with pytest.raises(MLDomainError, match=r"has shape \(.*\), the argument \(2, 2\)"):
            ml_eval(MLParams(alpha, beta), z)

    @pytest.mark.parametrize("name,bad", [
        ("alpha", 0.0), ("alpha", 2.5), ("alpha", math.nan), ("beta", math.inf),
        ("beta", math.nan),
    ])
    def test_order_rows_name_their_first_bad_element(self, name, bad):
        row = {"alpha": np.full((2, 3), 0.5), "beta": np.ones((2, 3))}
        row[name][0, 1] = row[name][1, 2] = bad
        want = "lie in" if name == "alpha" else "be finite"
        with pytest.raises(MLDomainError, match=rf"{name} must {want}.*got {bad} at index \(0, 1\)"):
            MLParams(**row)

    def test_order_rows_are_read_only_copies(self):
        alpha, beta = np.full(3, 0.5), np.ones(3)
        params = MLParams(alpha, beta)
        alpha[0] = 5.0
        assert params.alpha.tolist() == [0.5] * 3 and not params.beta.flags.writeable

    def test_per_point_orders_in_one_call(self):
        # each point at its own (alpha, beta) equals its one-point call bit
        # for bit, with the recurrence check of every point; a number is
        # every point's order
        rng = np.random.default_rng(np.random.Philox(47))
        z = 40.0 * np.sqrt(rng.random((4, 5))) * np.exp(1j * math.pi * rng.uniform(0.5, 1.5, (4, 5)))
        alpha, beta = rng.uniform(0.3, 1.8, z.shape), rng.uniform(-0.5, 2.5, z.shape)
        got = ml_eval(MLParams(alpha, beta), z)
        expect = [ml_eval(MLParams(a, b), v) for a, b, v in zip(alpha.flat, beta.flat, z.flat)]
        assert got.shape == z.shape and got.tobytes() == np.array(expect).tobytes()
        got = ml_eval(MLParams(0.7, beta), z)
        expect = [ml_eval(MLParams(0.7, b), v) for b, v in zip(beta.flat, z.flat)]
        assert got.tobytes() == np.array(expect).tobytes()
        assert isinstance(ml_eval(MLParams(np.array(0.7), np.array(1.0)), 0.5), complex)
        got = ml_eval(MLParams(np.array(0.7), np.array(1.0)), z)  # 0-d orders are numbers
        assert got.tobytes() == ml_eval(MLParams(0.7, 1.0), z).tobytes()

    @pytest.mark.parametrize("alpha,beta", [
        (0.5, -5000.0), (0.5, -1e5), (0.5, -1e12), (0.5, -1e200), (0.1, -1e200), (0.3, -1e200),
        (0.5, -170.0), (1.0, -170.5),
    ])
    def test_expansion_without_a_representable_term_overflows(self, alpha, beta):
        # the expansion's first weight 1/Gamma(beta - alpha k) is out of range
        # where Gamma(1 - x) would overflow; the sum once kept no term and
        # returned exactly 0 (the pole term underflows on this ray)
        with pytest.raises(MLOverflowError, match=re.escape(f"E_{{{alpha},{beta}}}: the expansion's")):
            ml_eval(MLParams(alpha, beta), -80j)

    def test_expansion_keeps_its_bits_at_beta_minus_100(self):
        assert ml_eval(MLParams(0.5, -100.0), -80j) == complex(2.3938262357533283e+140,
                                                              3.787310768989509e+156)

    @pytest.mark.parametrize("beta", [-169.4, -169.0, -165.0, -160.0])
    def test_expansion_cut_by_gammas_overflow_converges_or_raises(self, beta):
        # the weights end at the first x = beta - alpha k with 1 - x > 171;
        # a sum cut there before it converges (relative error 0.45 at -169.4,
        # 1.3e-8 at -165) once returned its value, and -160 keeps its bits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            z = mpmath.mpc(0, -80)
            ref = complex(-mpmath.fsum(z**-k * mpmath.rgamma(beta - mpmath.mpf(k) / 2)
                                       for k in range(1, 120)))
        try:
            got = ml_eval(MLParams(0.5, beta), -80j)
        except MLOverflowError as err:
            assert beta != -160.0 and "before its sum converges" in str(err)
        else:
            assert abs(got - ref) <= 1e-13 * abs(ref)
            assert beta != -160.0 or got == complex(1.5714649541001562e+267,
                                                    2.4400219417935457e+283)

    def test_pole_term_lifted_by_its_power_of_z(self):
        # E_{1,-100}(z) = z^101 e^z: every expansion weight is zero, and at
        # Re z < -745 e^z underflows while z^101 e^z does not; the branch was 0
        mpmath = pytest.importorskip("mpmath")
        z = np.array([-957.3847516729355 - 938.1071729675965j, -1422.239457584821 - 370.2108972047j])
        got = ml_eval(MLParams(1.0, -100.0), z, verify=False)
        with mpmath.workdps(40):
            ref = [complex(mpmath.mpc(v) ** 101 * mpmath.exp(mpmath.mpc(v))) for v in z]
        assert np.all(np.abs(got - ref) <= 2e-12 * np.abs(ref))


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

    def test_boundedness_on_certification_point(self):
        order = FractionalOrder(0.5)
        c0 = certify_c0(0.5, lambda_grid=[4.0], t_grid=[1.0])
        v = kernel_grid(order, 4.0, np.array([1.0]), "state")[0]
        assert abs(v) * (1.0 + 4.0) <= c0 * (1.0 + 1e-12)

    def test_envelope_ratio_under_time_dilation(self):
        # |K(10t)| / |K(t)| stays within c0^2 of the envelope ratio
        order = FractionalOrder(0.5)
        c0 = certify_c0(0.5)
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

    def test_time_must_be_positive(self):
        with pytest.raises(MLDomainError):
            kernel_grid(FractionalOrder(0.5), 1.0, np.array([0.0]), "state")

    @pytest.mark.parametrize("kind", ["state", "integral"])
    @pytest.mark.parametrize("lam,t,message", [
        (math.inf, 0.5, "eigenvalue must be finite and nonnegative, got inf"),
        (math.nan, 0.5, "eigenvalue must be finite and nonnegative, got nan"),
        (1.0, math.inf, "kernel time must be finite and positive, got inf"),
        (1.0, math.nan, "kernel time must be finite and positive, got nan"),
    ])
    def test_nonfinite_input_rejected(self, lam, t, message, kind):
        # an infinite value gave zeros and a NaN a misleading overflow error
        with pytest.raises(MLDomainError, match=message):
            kernel_grid(FractionalOrder(0.5), lam, np.array([0.25, t]), kind)

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
            FractionalOrder(1.0)
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

    # The tests above stop at x^{1/alpha} <= 250 on the power_i_alpha ray or
    # widen their bound there.  This closed form reaches x = 1e6 on both
    # rays: the power_i_alpha state kernel drifts from it like
    # eps * x^{1/alpha} (9.5e-12 at x = 1e2, 9.8e-4 at 1e6), the defect of
    # the rounded phase factor that ROADMAP item 1 mends.
    @pytest.mark.parametrize("phase,x,bound", [
        *[("standard_i", x, 1e-13) for x in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)],
        *[pytest.param("power_i_alpha", x, 1e-12, marks=pytest.mark.xfail(
            strict=True, reason="the rounded power_i_alpha phase factor (ROADMAP item 1)"))
          for x in (1e2, 1e3, 1e4, 1e5, 1e6)],
    ])
    def test_half_order_state_against_closed_form(self, phase, x, bound):
        # E_{1/2,1}(z) = exp(z^2) erfc(-z) at z = x exp(i theta) on the
        # exact ray of the phase, in mpmath at 60 digits
        mpmath = pytest.importorskip("mpmath")
        order = FractionalOrder(0.5, phase)
        with mpmath.workdps(60):
            unit = mpmath.mpc(0, -1) if phase == "standard_i" else mpmath.expjpi(-0.25)
            z = unit * x
            ref = complex(mpmath.exp(z * z) * mpmath.erfc(-z))
        got = kernel_grid(order, x, np.array([1.0]), "state")[0]
        assert abs(got - ref) <= bound * abs(ref)

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

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page faults of glibc's allocator")
    def test_rows_fault_no_pages(self):
        # invert-order's shape, 16 modes x 200 times: every temporary stays
        # under glibc's 128 KB threshold above which it is mapped and zeroed
        # afresh.  A fresh interpreter, since that threshold moves with the
        # process's earlier frees; blocks of 16,384 points x terms made
        # 590-774 faults per call here
        script = textwrap.dedent("""
            import math, resource
            import numpy as np
            from tfslab.mlf import FractionalOrder, kernel_grid
            lams, times = (math.pi * np.arange(1, 17)) ** 2, np.arange(1, 201) / 200
            for alpha in (0.6, 0.601):
                kernel_grid(FractionalOrder(alpha), lams, times, "state")
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for i in range(10):
                kernel_grid(FractionalOrder(0.602 + 0.01 * i), lams, times, "state")
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True)
        assert int(run.stdout) < 20 * 10

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
    """E_{alpha,beta}(z) in mpmath at a complex double z with |z| >= 50 and
    alpha < 1: the exponential branch z^{(1-beta)/alpha} exp(z^{1/alpha})/alpha
    where |arg z| <= alpha*pi, minus sum_k z^{-k}/Gamma(beta - alpha k).  The
    sum runs until three terms in a row fall below 1e-40 of it (at |z| = 50
    they do for alpha below about 0.85), or ends before the first term whose
    envelope (the weight without the sine factor of 1/Gamma) outgrows the
    one before it; that envelope must then lie below 1e-20 of the value."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        w, a, b = mpmath.mpc(z.real, z.imag), mpmath.mpf(alpha), mpmath.mpf(beta)
        total, small, prev = mpmath.mpf(0), 0, mpmath.inf
        if abs(mpmath.arg(w)) <= a * mpmath.pi:
            total = w ** ((1 - b) / a) * mpmath.exp(w ** (1 / a)) / a
        for k in range(1, 400):
            x = b - a * k
            env = abs(w) ** -k * (mpmath.gamma(1 - x) / mpmath.pi if x < 0.5
                                  else abs(mpmath.rgamma(x)))
            if env > prev:
                assert prev < mpmath.mpf(10) ** -20 * abs(total), (alpha, beta, z)
                return complex(total)
            term = w ** -k * mpmath.rgamma(x)
            total -= term
            small = small + 1 if abs(term) < mpmath.mpf(10) ** -40 * abs(total) else 0
            if small == 3:
                return complex(total)
            prev = env
    raise AssertionError(f"expansion at alpha={alpha}, |z|={abs(z)} stays above 1e-40")


def _branch_size(alpha, beta, r, theta):
    """|s0| times the modulus of the exponential branch
    z^{(1-beta)/alpha} e^{s0}/alpha at z = r e^{i theta}, s0 = z^{1/alpha},
    and 0 where |theta| > alpha*pi: an error of eps in the phase of s0 moves
    the value by eps times this much."""
    if abs(theta) > alpha * math.pi:
        return 0.0
    s = r ** (1.0 / alpha)
    return s * r ** ((1.0 - beta) / alpha) * math.exp(s * math.cos(theta / alpha)) / alpha


# The asymptotic region is held to _mp_asymptotic within 2e-13 relative plus
# 2e-15 of _branch_size: the branch's phase Im s0 = |z|^{1/alpha}
# sin(theta/alpha) carries a rounding of order eps |s0|.  Measured before the
# expansion became one Horner pass: at most 0.22 of the bound over the kernel
# examples below and 0.46 over the ml_eval ones, and 0.53 over 1,500 random
# points of each kind; where |s0| |branch| <= |E| the relative error was at
# most 7.4e-16 on the standard ray and 2.8e-15 at any angle.  The Horner pass
# reads the same worst ratios.


class TestRowEvaluator:
    @pytest.mark.parametrize("alpha", [0.143, 0.111])
    def test_asymptotic_sum_passes_tiny_weights(self, alpha):
        # 1/Gamma(1 - 7 * 0.143) is -1e-3: term 7 is tiny and term 8 outgrows
        # it, but the expansion's envelope still falls; the sum goes on
        got = kernel_grid(FractionalOrder(alpha), 50.0, np.array([1.0]), "state")[0]
        ref = _mp_asymptotic(alpha, 1.0, complex(-50j))
        assert abs(got - ref) <= 1e-15 * abs(ref)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.05, 1.0, exclude_max=True),
           reach=st.floats(0.0, 1.0),
           kind=st.sampled_from(["state", "integral"]))
    def test_asymptotic_kernels_against_mpmath(self, alpha, reach, kind):
        # x = lam t^alpha in [50, 1e4] on the standard ray, with the
        # exponential branch from alpha = 1/2 on
        x = 50.0 * 200.0**reach
        beta = 1.0 if kind == "state" else alpha + 1.0
        got = complex(kernel_grid(FractionalOrder(alpha), x, np.array([1.0]), kind)[0])
        ref = _mp_asymptotic(alpha, beta, complex(-1j * x))
        bound = 2e-13 * abs(ref) + 2e-15 * _branch_size(alpha, beta, x, -0.5 * math.pi)
        assert abs(got - ref) <= bound

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.05, 1.0, exclude_max=True),
           reach=st.floats(0.0, 1.0),
           angle=st.floats(-math.pi, math.pi),
           kind=st.sampled_from(["state", "integral", "other"]),
           other=st.floats(-0.5, 3.0))
    def test_asymptotic_ml_eval_against_mpmath(self, alpha, reach, angle, kind, other):
        # 50 <= |z| <= 1e3 at any angle, short of where the branch overflows
        r = 50.0 * 20.0**reach
        assume(abs(angle) > alpha * math.pi
               or r ** (1.0 / alpha) * math.cos(angle / alpha) < 600.0)
        beta = {"state": 1.0, "integral": alpha + 1.0}.get(kind, other)
        z = r * cmath.exp(1j * angle)
        # the evaluator's modulus of r = 50 can round below the radius
        assume(np.abs(np.array([z]))[0] >= mlf.ASYMPTOTIC_RADIUS)
        got = ml_eval(MLParams(alpha, beta), z, verify=False)
        ref = _mp_asymptotic(alpha, beta, z)
        bound = 2e-13 * abs(ref) + 2e-15 * _branch_size(alpha, beta, r, angle)
        assert abs(got - ref) <= bound

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
        (0.9, 100.0, 300), (1.0, 60.0, 300),
    ], ids=["0.7-0.7", "0.9-1.0", "1.8-1.0", "0.9-1.0-blocks", "0.9-100", "1.0-60"])
    def test_row_is_pointwise(self, alpha, beta, n_far, monkeypatch):
        # one row over the closed unit disk, every contour node set and the
        # asymptotic sum with and without its exponential branch, where some
        # sums need more than the first 16 terms: the row equals its two
        # halves and its one-point evaluations, bit for bit, so the
        # one-region paths agree with the general ones.  The asymptotic
        # points span several envelope blocks, with 2,500 of them many.  At
        # large beta, 5 of the 1,003 points at alpha = 0.9, beta = 100 and
        # the first point of the alpha = 1, beta = 60 row,
        # -61.636842132035 + 18.45813212941123i, once took a second 16-term
        # pass whose in-place complex product rounded a one-point call
        # apart from its row
        sets, lengths = set(), set()
        nodes, weights = mlf._contour_nodes, mlf._asymptotic_weights
        monkeypatch.setattr(mlf, "_contour_nodes",
                            lambda a, b, mu, strip: sets.add((mu, strip)) or nodes(a, b, mu, strip))
        monkeypatch.setattr(mlf, "_asymptotic_weights",
                            lambda a, b, n, *ray: lengths.add(n) or weights(a, b, n, *ray))
        rng = np.random.default_rng(np.random.Philox(43))
        r = np.concatenate([rng.uniform(0.0, 1.0, 100), [0.0, 1.0, 50.0],
                            10.0 ** rng.uniform(0.0, math.log10(50.0), 600),
                            10.0 ** rng.uniform(math.log10(50.0), 4.0, n_far)])
        theta = rng.uniform(-math.pi, math.pi, r.size)
        far = r >= mlf.ASYMPTOTIC_RADIUS  # at |arg z| >= pi/2 no branch overflows
        theta[far] = np.copysign(rng.uniform(0.5 * math.pi, math.pi, far.sum()), theta[far])
        z = rng.permutation(r * np.exp(1j * theta))
        row = mlf._ml_row(alpha, beta, z)
        # at alpha = 1 every point has a pole: no point takes the node set
        # (2, 1) of the points without one
        assert len(sets) == (8 if alpha == 1.0 else 9) and 2 * mlf._ASYMPTOTIC_CHUNK in lengths
        assert far.sum() > mlf._BLOCK // mlf._ASYMPTOTIC_CHUNK
        if alpha < 1.0:
            branch = np.abs(theta[far]) <= alpha * math.pi
            assert branch.any() and not branch.all()
        halves = np.concatenate([mlf._ml_row(alpha, beta, z[:500]),
                                 mlf._ml_row(alpha, beta, z[500:])])
        points = np.concatenate([mlf._ml_row(alpha, beta, z[i:i + 1]) for i in range(z.size)])
        assert row.tobytes() == halves.tobytes() == points.tobytes()
        if alpha <= 1.0:  # the moduli on two rays, as kernel_grid passes them
            for ray in (-1j, cmath.exp(-0.5j * math.pi * alpha)):
                row = mlf._ml_row(alpha, beta, r, ray)
                points = [mlf._ml_row(alpha, beta, r[i:i + 1], ray) for i in range(r.size)]
                assert row.tobytes() == np.concatenate(points).tobytes(), ray

    def test_mixed_order_row_is_pointwise(self, monkeypatch):
        # one row of per-point orders: six shared (alpha, beta) groups, two of
        # them above alpha = 1, plus 150 points each at an order of its own,
        # over the closed unit disk, every contour node set and the
        # asymptotic sum with and without its exponential branch; the row
        # equals its one-point calls (with numbers for orders) byte for byte.
        # Orders from 0.7 up keep every contour pole term in double range.
        used, groups = set(), set()
        nodes, row_of = mlf._contour_nodes, mlf._asymptotic_row

        def spy_nodes(a, b, mu, strip):
            disk = strip == mlf._DISK_STRIP and mu >= mlf._FAR_MU[-1]
            used.add("disk" if disk else (mu, strip))
            return nodes(a, b, mu, strip)

        def spy_row(a, b, z, rho, direction=None):
            if not isinstance(a, np.ndarray):  # one (alpha, beta) group
                branch = np.abs(np.angle(z)) <= a * math.pi
                groups.add((a, b, bool(branch.any()), bool(not branch.all())))
            return row_of(a, b, z, rho, direction)

        monkeypatch.setattr(mlf, "_contour_nodes", spy_nodes)
        monkeypatch.setattr(mlf, "_asymptotic_row", spy_row)
        rng = np.random.default_rng(np.random.Philox(53))
        shared = [(0.7, 0.7), (0.75, 1.0), (0.9, 1.9), (1.0, 2.0), (1.4, 0.9), (1.8, 1.0)]
        pairs = [shared[i] for i in rng.integers(0, len(shared), 1_050)]
        pairs += list(zip(rng.uniform(0.7, 1.8, 150), rng.uniform(-0.5, 2.5, 150)))
        r = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 1.0, 50.0],
                            10.0 ** rng.uniform(0.0, math.log10(50.0), 597),
                            10.0 ** rng.uniform(math.log10(50.0), 4.0, 400)])
        theta = rng.uniform(-math.pi, math.pi, r.size)
        far = r >= mlf.ASYMPTOTIC_RADIUS  # at |arg z| >= pi/2 no branch overflows
        theta[far] = np.copysign(rng.uniform(0.5 * math.pi, math.pi, far.sum()), theta[far])
        order = rng.permutation(r.size)
        r, z = r[order], (r * np.exp(1j * theta))[order]
        alpha, beta = (np.array(v) for v in zip(*pairs))
        row = mlf._ml_row(alpha, beta, z)
        assert used >= set(mlf._NODE_SETS) | {"disk"}
        for a, b in shared[:3]:  # expansions with and without the branch in one group
            assert (a, b, True, True) in groups, (a, b)
        assert len(groups) > 20  # and expansions at orders of their own
        points = [mlf._ml_row(a, b, z[i:i + 1])
                  for i, (a, b) in enumerate(zip(alpha.tolist(), beta.tolist()))]
        assert row.tobytes() == np.concatenate(points).tobytes()
        low = alpha <= 1.0  # the moduli on the standard ray, as kernel_grid passes them
        row = mlf._ml_row(alpha[low], beta[low], r[low], -1j)
        points = [mlf._ml_row(a, b, r[i:i + 1], -1j)
                  for i, a, b in zip(np.flatnonzero(low), alpha[low].tolist(), beta[low].tolist())]
        assert row.tobytes() == np.concatenate(points).tobytes()


class TestCertifyC0:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(MLDomainError):
            certify_c0(alpha)

    def test_scalar_grids_are_one_point_grids(self):
        times = [0.3, 1.0, 7.0]
        c0 = certify_c0(0.5, lambda_grid=[1.0], t_grid=times)
        assert c0 > 1.0
        assert certify_c0(0.5, lambda_grid=1.0, t_grid=times) == c0
        assert certify_c0(0.5, lambda_grid=1.0, t_grid=1.0) == certify_c0(
            0.5, lambda_grid=[1.0], t_grid=[1.0])

    def test_zero_eigenvalue_gives_one(self):
        c0 = certify_c0(0.5, lambda_grid=[0.0], t_grid=[0.3, 1.0, 7.0])
        assert c0 == pytest.approx(1.0, abs=1e-12)

    def test_stable_under_refinement(self):
        base = certify_c0(0.5)
        dense = certify_c0(0.5, np.geomspace(1.0, 100.0, 37),
                           np.geomspace(1e-3, 1e3, 37))
        assert abs(dense - base) <= 0.05 * base

    def test_finite_and_at_least_one(self):
        c0 = certify_c0(0.9)
        assert 1.0 <= c0 <= 100.0

    def test_empty_grid_rejected(self):
        with pytest.raises(MLDomainError):
            certify_c0(0.5, lambda_grid=[], t_grid=[1.0])
