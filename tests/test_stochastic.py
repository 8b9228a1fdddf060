"""Lattice field sampling, chaos normalization, and the solvers.

Module-level checks run on small lattices with weak coupling so that the
Monte Carlo noise stays manageable; the heavy strong-coupling scaling runs
live in the acceptance suite.
"""

import ast
import hashlib
import platform
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sinegordon.stochastic import (
    GAUSS, QUARTIC, GaussianField, TorusLattice, bump_spectral,
    calibrate_width, chaos_mean, convergence_study, correlation_slopes,
    dipole_counterterm, dipole_moment, DipoleConfig, renorm_constant,
    renorm_slope, sample_phi, sigma2, solve_pde, step_rng, ConvergenceReport,
    translation_correlation, white_spectral, wick_exponential,
    covariance_table, _HeatDriver, _chaos_spectra, _charges_into,
    _ifft2_real, _imag_residues, _irfft2_into, _rfft2_into, _step_rngs,
)
from sinegordon import stochastic

LAT = TorusLattice(64, dt=2.0**-9)

# Pins of exact output bits.  The last bits depend on the SIMD kernels
# numpy picks for the CPU and on its FFT build, so a pin is checked only
# where it was recorded; the oracle tests cover every other setup.
pinned_bits = pytest.mark.skipif(
    (np.__version__, platform.machine()) != ("2.4.6", "x86_64"),
    reason="pinned bits were recorded on numpy 2.4.6, x86-64")


class TestField:
    def test_min_width_is_nyquist(self):
        assert LAT.min_eps() == 2.0 / 64
        with pytest.raises(ValueError, match="below the resolvable width"):
            LAT.mode_variances(1.0 / 64)

    def test_nan_width_is_refused_before_any_sampling(self, monkeypatch):
        # NaN passes the window's separation rule and every comparison
        def sample(*args, **kwargs):
            raise AssertionError("sampled at a NaN width")

        monkeypatch.setattr(stochastic, "_chaos_spectra", sample)
        with pytest.raises(ValueError,
                           match="^eps = nan is not a finite width$"):
            correlation_slopes(TorusLattice(32), np.nan, Fraction(1), 0,
                               n_fields=2, shifts=[4, 8])

    def test_empirical_variance_matches_mode_sum(self):
        eps = 2.0**-4
        target = sigma2(LAT, eps)
        vals = []
        for s in range(48):
            phi = sample_phi(LAT, eps, seed=11, sample=s).real_space()
            vals.append(float(np.mean(phi**2)))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 3 * se

    def test_log_covariance_shape(self):
        # two-point function ~ -(1/2pi) log|z| for eps << |z| << 1
        eps = 2.0**-4
        tab = covariance_table(LAT, eps)
        r1, r2 = 4, 8   # cells: |z| = 1/16 and 1/8
        diff = tab[0, r1] - tab[0, r2]
        expect = np.log(2.0) / (2 * np.pi)
        assert abs(diff - expect) < 0.2 * expect

    def test_seed_reproducibility_bitexact(self):
        a = sample_phi(LAT, 2.0**-4, seed=5, sample=3).real_space()
        b = sample_phi(LAT, 2.0**-4, seed=5, sample=3).real_space()
        assert a.tobytes() == b.tobytes()
        c = sample_phi(LAT, 2.0**-4, seed=6, sample=3).real_space()
        assert a.tobytes() != c.tobytes()

    def test_stationarity_of_the_update(self):
        fld = sample_phi(LAT, 2.0**-4, seed=9)
        before = float(np.mean(fld.real_space() ** 2))
        rng = np.random.default_rng(0)
        for _ in range(32):
            white = np.fft.rfft2(rng.standard_normal((64, 64))) / 64
            fld.advance(white)
        after = float(np.mean(fld.real_space() ** 2))
        assert abs(after - before) < 0.5 * before + 0.2


class ZeroNoise:
    """A generator whose normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestRealInputOracle:
    """The half-spectrum path against the full complex transforms."""

    N, EPS, SEED = 32, 2.0**-4, 5

    def full_coeffs(self, lat, eps, sample):
        # the full Hermitian spectrum from the same Philox draw
        w = step_rng(self.SEED, sample, 0).standard_normal((lat.n, lat.n))
        return np.sqrt(lat.mode_variances(eps)) * np.fft.fft2(w) / lat.n

    def draw_coeffs(self, lat, eps, sample, modes):
        """The full Hermitian spectrum that sample_phi draws: with ``modes``
        = c its modes |m| <= c, from the same Philox slot on the smallest
        power-of-two grid m0 > 2c (the full draw at m0 >= n)."""
        if modes is None:
            return self.full_coeffs(lat, eps, sample)
        m0 = 4
        while m0 <= 2 * modes:
            m0 *= 2
        lo = lat.m2 <= modes**2
        if m0 >= lat.n:
            return np.where(lo, self.full_coeffs(lat, eps, sample), 0.0)
        w = step_rng(self.SEED, sample, 0).standard_normal((m0, m0))
        q = (np.fft.fftfreq(m0) * m0).astype(int) % lat.n
        white = np.zeros((lat.n, lat.n), dtype=complex)
        white[np.ix_(q, q)] = np.fft.fft2(w) / m0
        return np.where(lo, np.sqrt(lat.mode_variances(eps)) * white, 0.0)

    def test_real_space_matches_full_inverse(self):
        lat = TorusLattice(self.N)
        for sample in range(3):
            full = self.full_coeffs(lat, self.EPS, sample)
            fld = sample_phi(lat, self.EPS, self.SEED, sample)
            assert fld.z.shape == (self.N, self.N // 2 + 1)
            assert np.allclose(fld.sigma_k * fld.z, full[:, : self.N // 2 + 1],
                               rtol=0, atol=1e-14)
            ref = np.real(np.fft.ifft2(full)) * self.N**2
            assert np.allclose(fld.real_space(), ref, rtol=0, atol=1e-12)

    def test_advance_matches_full_spectrum_update(self):
        lat = TorusLattice(self.N)
        sk = np.sqrt(lat.mode_variances(self.EPS))
        full = self.full_coeffs(lat, self.EPS, 0)
        fld = sample_phi(lat, self.EPS, self.SEED, 0)
        decay = np.exp(-lat.mu * lat.dt)
        for step in range(1, 4):
            w = step_rng(self.SEED, 0, step).standard_normal((self.N, self.N))
            full = (decay * full
                    + sk * np.sqrt(1 - decay**2) * np.fft.fft2(w) / self.N)
            fld.advance(np.fft.rfft2(w) / self.N)
            ref = np.real(np.fft.ifft2(full)) * self.N**2
            assert np.allclose(fld.real_space(), ref, rtol=0, atol=1e-12)

    def test_wick_exponential_matches_complex_exp(self):
        lat = TorusLattice(self.N)
        phi = sample_phi(lat, self.EPS, self.SEED).real_space()
        c = renorm_constant(lat, self.EPS, Fraction(5))
        beta = np.sqrt(5 * np.pi)
        for sign in (+1, -1):
            ref = c * np.exp(1j * sign * beta * phi)
            got = wick_exponential(phi, Fraction(5), c, sign=sign)
            assert np.allclose(got, ref, rtol=1e-13, atol=0)

    # c = 20 draws on m0 = 64 >= n, so its modes are the full draw's own
    @pytest.mark.parametrize("condition_modes", [None, 4, 20])
    @pytest.mark.parametrize("want_same", [True, False])
    def test_correlation_slopes_match_per_field_sum(self, want_same,
                                                    condition_modes):
        lat, beta_sq, n_fields, shifts = (TorusLattice(self.N), Fraction(1),
                                          6, [4, 6, 8])
        n = self.N
        beta2 = np.pi
        lo = lat.m2 <= (condition_modes or n) ** 2
        sk2 = lat.mode_variances(self.EPS)
        cov_hi = np.real(np.fft.ifft2(np.where(lo, 0.0, sk2))) * n**2
        amp = np.exp(0.5 * beta2 * float(np.where(lo, sk2, 0.0).sum()))
        acc_opp, acc_same = np.zeros((n, n)), np.zeros((n, n))
        for s in range(n_fields):
            full = self.draw_coeffs(lat, self.EPS, s, condition_modes)
            phi = np.real(np.fft.ifft2(full)) * n**2
            xi = amp * np.exp(1j * np.sqrt(beta2) * phi)
            acc_opp += np.real(translation_correlation(xi, np.conj(xi)))
            acc_same += np.real(translation_correlation(xi, xi))
        acc_opp *= np.exp(beta2 * cov_hi) / n_fields
        acc_same *= np.exp(-beta2 * cov_hi) / n_fields
        m = np.fft.fftfreq(n) * n
        dist = np.hypot(*np.meshgrid(m, m, indexing="ij"))
        shells = [np.abs(dist - c) <= 0.5 for c in shifts]

        rep = correlation_slopes(lat, self.EPS, beta_sq, self.SEED,
                                 n_fields=n_fields, shifts=shifts,
                                 want_same=want_same,
                                 condition_modes=condition_modes)
        assert np.allclose(rep.opposite, [acc_opp[sh].mean() for sh in shells],
                           rtol=1e-12, atol=0)
        if want_same:
            assert np.allclose(rep.same,
                               [acc_same[sh].mean() for sh in shells],
                               rtol=1e-12, atol=0)
        else:
            assert rep.same == []

    def per_field_profiles(self, lat, beta_sq, n_fields, shifts, modes):
        """Shell profiles of the per-field full-grid correlation sums."""
        n, beta2 = lat.n, float(beta_sq) * np.pi
        lo = lat.m2 <= modes**2
        sk2 = lat.mode_variances(self.EPS)
        cov_hi = np.real(np.fft.ifft2(np.where(lo, 0.0, sk2))) * n**2
        amp = np.exp(0.5 * beta2 * float(np.where(lo, sk2, 0.0).sum()))
        acc_opp, acc_same = np.zeros((n, n)), np.zeros((n, n))
        for s in range(n_fields):
            full = self.draw_coeffs(lat, self.EPS, s, modes)
            phi = np.real(np.fft.ifft2(full)) * n**2
            xi = amp * np.exp(1j * np.sqrt(beta2) * phi)
            acc_opp += np.real(translation_correlation(xi, np.conj(xi)))
            acc_same += np.real(translation_correlation(xi, xi))
        acc_opp *= np.exp(beta2 * cov_hi) / n_fields
        acc_same *= np.exp(-beta2 * cov_hi) / n_fields
        m = np.fft.fftfreq(n) * n
        dist = np.hypot(*np.meshgrid(m, m, indexing="ij"))
        shells = [np.abs(dist - c) <= 0.5 for c in shifts]
        return ([acc_opp[sh].mean() for sh in shells],
                [acc_same[sh].mean() for sh in shells])

    @pytest.mark.parametrize("want_same", [True, False])
    def test_coarse_grid_matches_per_field_sum(self, want_same):
        # degree-2 field at beta^2 = pi/4: the rule settles on M = 32 < 64
        lat, beta_sq, n_fields, shifts = (TorusLattice(64), Fraction(1, 4),
                                          6, [8, 12, 16])
        m, _, _ = _chaos_spectra(lat, lat.mode_variances(self.EPS), beta_sq,
                                 self.SEED, n_fields, 1.0, 2, want_same)
        assert m == 32
        opp, same = self.per_field_profiles(lat, beta_sq, n_fields, shifts, 2)
        rep = correlation_slopes(lat, self.EPS, beta_sq, self.SEED,
                                 n_fields=n_fields, shifts=shifts,
                                 want_same=want_same, condition_modes=2)
        assert np.allclose(rep.opposite, opp, rtol=1e-12, atol=0)
        if want_same:
            assert np.allclose(rep.same, same, rtol=1e-12, atol=0)
        else:
            assert rep.same == []

    def test_summed_share_refines_the_probe(self, monkeypatch):
        # a constant field 0 has no outer band, so only the check on the
        # summed power can move M from the first probe (16) to 32
        rng = stochastic.step_rng
        monkeypatch.setattr(stochastic, "step_rng", lambda seed, sample, step:
                            ZeroNoise() if sample == 0
                            else rng(seed, sample, step))
        lat = TorusLattice(64)
        m, _, _ = _chaos_spectra(lat, lat.mode_variances(self.EPS),
                                 Fraction(1, 4), self.SEED, 6, 1.0, 2, False)
        assert m == 32

    def test_criterion_09_grid_is_chosen_by_the_probe(self, monkeypatch):
        slots = []
        rng = stochastic.step_rng
        monkeypatch.setattr(stochastic, "step_rng",
                            lambda *slot: slots.append(slot) or rng(*slot))
        lat = TorusLattice(512)
        m, power, cross = _chaos_spectra(lat, lat.mode_variances(2.0**-7),
                                         Fraction(5), 11, 2, 1.0, 8, False)
        assert m == 256
        assert power.shape == (512, 512) and cross is None
        # one draw per field: field 0 settles M, so no sum is redone
        assert slots == [(11, 0, 0), (11, 1, 0)]

    def test_probe_spectrum_is_summed_not_recomputed(self, monkeypatch):
        # degree-2 field at beta^2 = pi/4: the probe runs at M = 16, then
        # settles at 32, where it has already taken field 0's chaos
        sizes = []
        wick = stochastic.wick_exponential
        monkeypatch.setattr(stochastic, "wick_exponential",
                            lambda phi, *a, **k: sizes.append(len(phi))
                            or wick(phi, *a, **k))
        correlation_slopes(TorusLattice(64), self.EPS, Fraction(1, 4),
                           self.SEED, n_fields=6, shifts=[8, 12, 16],
                           want_same=False, condition_modes=2)
        assert sizes == [16] + [32] * 6

    # repr of each report, recorded before the chaos spectra were sampled
    # in reused buffers, which left every bit in place
    SLOPES_PIN = {
        # probe settles at M = 32 < n = 64
        True: "{'radii': [0.125, 0.1875, 0.25], 'opposite':"
              " [1.104572789429396, 1.0533724007458345, 1.0203980006660929],"
              " 'same': [0.8795350910974659, 0.9231546258462097,"
              " 0.953656845849283], 'opposite_slope': -0.11453364600999687,"
              " 'same_slope': 0.11690290316938581,"
              " 'product_slope': 0.0023692571593888654}",
        # every mode kept: M = n = 32
        False: "{'radii': [0.125, 0.25], 'opposite': [2.3635599577270616,"
               " 1.3739743558155864], 'same': [],"
               " 'opposite_slope': -0.782606385196705, 'same_slope': nan,"
               " 'product_slope': nan}",
    }

    @pinned_bits
    @pytest.mark.parametrize("want_same", [True, False])
    def test_correlation_slopes_are_pinned_bit_for_bit(self, want_same):
        if want_same:
            rep = correlation_slopes(TorusLattice(64), self.EPS,
                                     Fraction(1, 4), self.SEED, n_fields=6,
                                     shifts=[8, 12, 16], want_same=True,
                                     condition_modes=2)
        else:
            rep = correlation_slopes(TorusLattice(32), self.EPS, Fraction(2),
                                     7, n_fields=3, shifts=[4, 8],
                                     want_same=False)
        assert repr(rep.as_dict()) == self.SLOPES_PIN[want_same]


class TestConditionedDraw:
    """The fields of _chaos_spectra: only the modes |m| <= c, drawn on a
    small grid and placed on the M grid."""

    EPS, SEED = 2.0**-4, 5

    def drawn_tables(self, monkeypatch, lat, eps, modes):
        """Every M-grid half-spectrum of field 0 that _chaos_spectra
        inverts, one per probed M (the last at the settled M).  Its
        inverse runs the axis-0 ifft on the drawn columns only, so each
        table is that ifft's input padded with its zero columns."""
        tables = []
        ifft = np.fft.ifft

        def padded(a, axis):
            tab = np.zeros((len(a), len(a) // 2 + 1), dtype=complex)
            tab[:, : a.shape[1]] = a
            tables.append(tab)
            return ifft(a, axis=axis)

        monkeypatch.setattr(np.fft, "ifft", padded)
        _chaos_spectra(lat, lat.mode_variances(eps), Fraction(1, 4),
                       self.SEED, 1, 1.0, modes, False)
        monkeypatch.undo()
        assert tables
        return tables

    @pytest.mark.parametrize("n, modes", [(64, 4), (512, 8)])
    def test_low_block_only_with_hermitian_column_0(self, monkeypatch, n,
                                                    modes):
        for tab in self.drawn_tables(monkeypatch, TorusLattice(n), self.EPS,
                                     modes):
            grid = TorusLattice(len(tab))
            m2 = grid.m2[:, : grid.n_rfft]
            lo = m2 <= modes**2
            assert not np.any(tab[~lo])
            assert np.all(tab[lo & (m2 > 0)] != 0)
            col = tab[:, 0]
            k = np.arange(1, modes + 1)
            assert np.allclose(col[-k], np.conj(col[k]), rtol=0,
                               atol=1e-14 * np.abs(col).max())

    @pytest.mark.parametrize("n, modes", [(16, 8), (32, 8), (32, 20)])
    def test_small_grid_falls_back_to_the_full_draw(self, monkeypatch, n,
                                                    modes):
        # m0 = 32 for c = 8 and 64 for c = 20, so the draw is the full one
        lat, eps = TorusLattice(n), 2.0**-3
        fld = sample_phi(lat, eps, self.SEED, 0)
        full = fld.sigma_k * fld.z
        got = self.drawn_tables(monkeypatch, lat, eps, modes)[-1]
        lo = lat.m2[:, : lat.n_rfft] <= modes**2
        assert np.array_equal(got, np.where(lo, full, 0.0))

    def test_negative_cutoff_refused(self):
        # the cutoff enters squared, so -c would run as c; 0 keeps no mode
        # and integrates every one exactly
        lat = TorusLattice(32)
        for modes in (-2, -3):
            with pytest.raises(ValueError, match="is negative"):
                correlation_slopes(lat, self.EPS, Fraction(1), self.SEED,
                                   n_fields=2, shifts=[4, 8],
                                   condition_modes=modes)
        rep = correlation_slopes(lat, self.EPS, Fraction(1), self.SEED,
                                 n_fields=2, shifts=[4, 8], condition_modes=0)
        assert np.all(np.isfinite(rep.opposite))

    def test_opposite_profile_matches_the_exact_lattice_value(self):
        """The conditioned estimator is unbiased for E[xi_+(0) xi_-(z)] =
        exp(beta^2 Gamma(z)), Gamma = covariance_table.  Fixed before the
        first run: 64^2, eps = 2^-4, beta^2 = 2 pi, c = 4 (drawn on 16^2),
        16 batches of 16 fields at seeds 0..15, each shell within k = 4
        batch standard errors.  Observed z = -0.92, -0.64, -0.48."""
        lat, beta_sq, modes = TorusLattice(64), Fraction(2), 4
        shifts, n_batches, n_fields, k = [8, 16, 32], 16, 16, 4.0
        rows = np.array([correlation_slopes(
            lat, self.EPS, beta_sq, seed, n_fields=n_fields, shifts=shifts,
            want_same=False, condition_modes=modes).opposite
            for seed in range(n_batches)])
        exact = np.exp(2 * np.pi * covariance_table(lat, self.EPS))
        m = np.fft.fftfreq(64) * 64
        dist = np.hypot(*np.meshgrid(m, m, indexing="ij"))
        ref = [exact[np.abs(dist - c) <= 0.5].mean() for c in shifts]
        se = rows.std(axis=0, ddof=1) / np.sqrt(n_batches)
        assert np.all(np.abs(rows.mean(axis=0) - ref) <= k * se)


def _spy_mode_variances(monkeypatch):
    """The argument tuples of the TorusLattice.mode_variances calls made
    from now on, in order."""
    calls = []
    orig = TorusLattice.mode_variances
    monkeypatch.setattr(TorusLattice, "mode_variances",
                        lambda self, *a, **k: calls.append(a)
                        or orig(self, *a, **k))
    return calls


class TestSigmaCache:
    def test_sampling_hits_the_cache(self, monkeypatch):
        lat = TorusLattice(32)
        calls = _spy_mode_variances(monkeypatch)
        a = sample_phi(lat, 2.0**-3, seed=0, sample=0)
        b = sample_phi(lat, 2.0**-3, seed=0, sample=1)
        assert a.sigma_k is b.sigma_k
        assert len(calls) == 1
        lat.sigma_k(2.0**-3, QUARTIC)
        assert len(calls) == 2 and len(lat._sigma_k) == 2

    def test_width_searches_do_not_grow_the_cache(self):
        lat = TorusLattice(32)
        sample_phi(lat, 2.0**-3, seed=0)
        sigma2(lat, 2.0**-4)
        calibrate_width(lat, 2.0**-3)
        assert list(lat._sigma_k) == [(2.0**-3, GAUSS)]

    def test_convergence_study_tables_each_width_once(self, monkeypatch):
        # the renormalization constants and forcing tables serve every seed
        calls = _spy_mode_variances(monkeypatch)
        counts = []
        for seeds in ([0], list(range(8))):
            calls.clear()
            lat = TorusLattice(32, dt=2.0**-8)
            convergence_study(lat, Fraction(2), [2.0**-2, 2.0**-3, 2.0**-4],
                              seeds, t_end=2 * lat.dt)
            counts.append(len(calls))
        assert counts[1] <= counts[0]

    def test_cached_tables_are_read_only(self):
        lat = TorusLattice(32)
        sk = sample_phi(lat, 2.0**-3, seed=0).sigma_k
        assert not sk.flags.writeable
        with pytest.raises(ValueError):
            sk[0, 1] = 1.0


class _StoredTables:
    """The lattice tables as built before the lattice kept only m2: a
    meshgrid m2, stored k2, mu and nonzero tables, and the variance table
    filled through fancy indexing."""

    def __init__(self, n):
        m = np.fft.fftfreq(n) * n
        mx, my = np.meshgrid(m, m, indexing="ij")
        self.m2 = mx**2 + my**2
        self.k2 = (2.0 * np.pi)**2 * self.m2
        self.mu = 0.5 * self.k2
        self.nonzero = self.k2 > 0

    def mollifier(self, eps, shape):
        x = (eps**2) * self.m2
        return np.exp(-x) if shape == GAUSS else np.exp(-(x**2))

    def mode_variances(self, eps, shape):
        mm = self.mollifier(eps, shape)
        out = np.zeros_like(self.k2)
        nz = self.nonzero
        out[nz] = mm[nz] ** 2 / self.k2[nz]
        return out


class TestLatticeTables:
    """The lattice stores m2 alone and derives the rest bit for bit as the
    stored tables did; a correlation builds one full-grid variance table."""

    @pytest.mark.parametrize("n", [4, 32, 128, 512])
    def test_derived_tables_match_the_stored_ones(self, n):
        lat, old = TorusLattice(n), _StoredTables(n)
        for name in ("m2", "k2", "mu"):
            assert getattr(lat, name).tobytes() == \
                getattr(old, name).tobytes(), name
        for shape in (GAUSS, QUARTIC):
            for eps in {2.0 / n, max(2.0 / n, 2.0**-3), 0.7}:
                var = old.mode_variances(eps, shape)
                assert lat.mollifier(eps, shape).tobytes() == \
                    old.mollifier(eps, shape).tobytes()
                assert lat.mode_variances(eps, shape).tobytes() == \
                    var.tobytes()
                assert lat.sigma_k(eps, shape).tobytes() == \
                    np.sqrt(var[:, : n // 2 + 1]).tobytes()
                assert covariance_table(lat, eps, shape).tobytes() == \
                    (np.real(np.fft.ifft2(var)) * n**2).tobytes()

    @pytest.mark.parametrize("n", [4, 32, 512])
    def test_fresh_lattice_holds_one_full_grid_table(self, n):
        lat = TorusLattice(n)
        arrays = [v for v in vars(lat).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1
        assert arrays[0].shape == (n, n) and arrays[0].dtype == float
        assert not lat._sigma_k and not lat._heat

    def test_correlation_builds_one_variance_table(self, monkeypatch):
        # criterion 09's grid: the conditioned draw reads the correlation's
        # own table, so no sigma_k table is cached
        calls = _spy_mode_variances(monkeypatch)
        lat = TorusLattice(512)
        correlation_slopes(lat, 2.0**-7, Fraction(5), seed=11, n_fields=2,
                           shifts=[8, 16, 32, 64, 80], want_same=False,
                           condition_modes=8)
        assert calls == [(2.0**-7,)]
        assert not lat._sigma_k


class TestHeatTables:
    """One read-only (decay, gain, kick) triple per lattice, at its dt,
    shared by every driver and field stepped on it."""

    LAT_N, DT = 32, 2.0**-8

    def test_cached_tables_are_read_only(self):
        lat = TorusLattice(self.LAT_N, dt=self.DT)
        tables = lat._heat_tables()
        assert lat._heat_tables() is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 1] = 1.0

    def test_convergence_study_shares_one_table_pair_and_scratch(
            self, monkeypatch):
        """Each width's own state is its solution; the tables, the forcing
        half-spectrum and the transform scratch are one for all widths."""
        drivers = []
        step = _HeatDriver.step
        monkeypatch.setattr(_HeatDriver, "step",
                            lambda driver, *a: drivers.append(driver)
                            or step(driver, *a))
        lat = TorusLattice(self.LAT_N, dt=self.DT)
        convergence_study(lat, Fraction(2), [2.0**-2, 2.0**-3, 2.0**-4], [0],
                          t_end=2 * lat.dt)
        first = drivers[0]
        assert len({id(d) for d in drivers}) == 4     # three widths + swap
        for d in drivers:
            assert d.decay is first.decay and d.gain is first.gain
            assert d.f_hat is first.f_hat and d._tmp is first._tmp
        decay, gain, _ = lat._heat_tables()
        assert first.decay is decay and first.gain is gain
        u_hats = list({id(d): d.u_hat for d in drivers}.values())
        assert not any(np.shares_memory(u, v)
                       for i, u in enumerate(u_hats) for v in u_hats[i + 1:])

    def test_dipole_steps_one_stacked_flow(self, monkeypatch):
        """Each dipole trajectory steps one driver, the stacked pair
        (u_c, u_s) forced by the stacked pair (c, s).  It reads the
        lattice's cached tables, and its scratch is the trajectory's and
        the one every transform of ``collect`` goes through."""
        seen, stepped, collect_scratch, in_collect = [], set(), [], []
        trajectory = stochastic._dipole_trajectory
        step = _HeatDriver.step

        def spy(lat, cfg, seed, sample, collect, flow, scratch):
            seen.append((flow, scratch))

            def spied(*args):
                in_collect.append(True)
                collect(*args)
                in_collect.pop()

            return trajectory(lat, cfg, seed, sample, spied, flow, scratch)

        def watched(transform):
            def run(x, out, tmp):
                if in_collect:
                    collect_scratch.append(tmp)
                return transform(x, out, tmp)
            return run

        monkeypatch.setattr(stochastic, "_dipole_trajectory", spy)
        monkeypatch.setattr(_HeatDriver, "step",
                            lambda driver, *a: stepped.add(id(driver))
                            or step(driver, *a))
        for name in ("_rfft2_into", "_irfft2_into"):
            monkeypatch.setattr(stochastic, name,
                                watched(getattr(stochastic, name)))
        lat = TorusLattice(self.LAT_N, dt=self.DT)
        cfg = TestSharedStepperOracle.dipole_cfg()
        dipole_moment(lat, cfg, seed=0)
        flow, (_, halves) = seen[0]
        assert isinstance(flow, _HeatDriver)
        assert len(seen) == cfg.n_samples
        assert all(f is flow for f, _ in seen)
        assert stepped == {id(flow)}
        stack = (2, self.LAT_N, self.LAT_N // 2 + 1)
        assert flow.u_hat.shape == flow.f_hat.shape == stack
        decay, gain, _ = lat._heat_tables()
        assert flow.decay is decay and flow.gain is gain
        assert all(np.shares_memory(h, flow._tmp) for h in halves)
        assert collect_scratch
        assert all(np.shares_memory(tmp, flow._tmp)
                   for tmp in collect_scratch)

    def test_collect_gets_each_measured_slice_index_in_order(
            self, monkeypatch):
        """Every trajectory hands ``collect`` the index m = 0, 1, ... of
        each of its measured slices, the only position the time blocks
        read."""
        seen = []
        trajectory = stochastic._dipole_trajectory

        def spy(lat, cfg, seed, sample, collect, flow, scratch):
            ms = []
            seen.append(ms)
            return trajectory(lat, cfg, seed, sample,
                              lambda m, *a: ms.append(m) or collect(m, *a),
                              flow, scratch)

        monkeypatch.setattr(stochastic, "_dipole_trajectory", spy)
        lat = TorusLattice(self.LAT_N, dt=self.DT)
        cfg = TestSharedStepperOracle.dipole_cfg()
        dipole_moment(lat, cfg, seed=0)
        n_slices = len(stochastic._measured_steps(cfg))
        assert seen == [list(range(n_slices))] * cfg.n_samples


class TestOneOUPath:
    """Every time loop steps its field through ``GaussianField.advance``,
    once per step and trajectory."""

    @staticmethod
    def count_advances(monkeypatch):
        calls = []
        advance = GaussianField.advance
        monkeypatch.setattr(GaussianField, "advance",
                            lambda fld, *a: calls.append(fld)
                            or advance(fld, *a))
        return calls

    def test_dipole_advances_once_per_step_and_sample(self, monkeypatch):
        calls = self.count_advances(monkeypatch)
        lat = TorusLattice(32, dt=2.0**-8)
        cfg = TestSharedStepperOracle.dipole_cfg()
        dipole_moment(lat, cfg, seed=0)
        steps = round((cfg.t_burn + cfg.t_measure) / cfg.dt)
        assert len(calls) == steps * cfg.n_samples

    def test_solve_pde_advances_once_per_step(self, monkeypatch):
        calls = self.count_advances(monkeypatch)
        lat = TorusLattice(32, dt=2.0**-8)
        solve_pde(lat, 2.0**-3, Fraction(2), 0, t_end=12 * lat.dt)
        assert len(calls) == 12

    def test_convergence_study_advances_once_per_step_and_seed(
            self, monkeypatch):
        # one field per seed serves all four widths
        calls = self.count_advances(monkeypatch)
        lat = TorusLattice(32, dt=2.0**-8)
        convergence_study(lat, Fraction(2), [2.0**-2, 2.0**-3, 2.0**-4],
                          [0, 1, 2], t_end=10 * lat.dt)
        assert len(calls) == 10 * 3
        assert len({id(fld) for fld in calls}) == 3


class TestRenormConstant:
    def test_exact_formula(self):
        c = renorm_constant(LAT, 2.0**-4, Fraction(2))
        assert np.isclose(c, np.exp(np.pi * sigma2(LAT, 2.0**-4)))

    def test_beta_zero_limit(self):
        assert renorm_constant(LAT, 2.0**-4, Fraction(1, 10**6)) == \
            pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_width(self):
        cs = [renorm_constant(LAT, e, Fraction(5))
              for e in [2.0**-3, 2.0**-4, 2.0**-5]]
        assert cs[0] < cs[1] < cs[2]

    def test_slope_matches_coupling(self):
        lat = TorusLattice(256)
        for bsq in (Fraction(2), Fraction(5)):
            slope = renorm_slope(lat, [2.0**-k for k in range(3, 8)], bsq)
            assert abs(slope - (-float(bsq) / 4)) < 0.05 * float(bsq) / 4

    @pytest.mark.parametrize("eps_list", [[2.0**-3], [2.0**-3, 2.0**-3]])
    def test_slope_needs_two_distinct_widths(self, eps_list):
        with pytest.raises(ValueError, match="two distinct widths"):
            renorm_slope(LAT, eps_list, Fraction(2))


class TestChaos:
    def test_modulus_and_conjugation(self):
        phi = sample_phi(LAT, 2.0**-4, seed=2).real_space()
        c = renorm_constant(LAT, 2.0**-4, Fraction(2))
        xp = wick_exponential(phi, Fraction(2), c, sign=+1)
        xm = wick_exponential(phi, Fraction(2), c, sign=-1)
        assert np.allclose(np.abs(xp), c)
        assert np.array_equal(xm, np.conj(xp))

    def test_unit_mean(self):
        stats = chaos_mean(LAT, 2.0**-4, Fraction(2), seed=21, n_fields=64)
        assert stats.within_3se

    def test_weak_coupling_reciprocity(self):
        lat = TorusLattice(128)
        rep = correlation_slopes(lat, 2.0**-6, Fraction(1), seed=3,
                                 n_fields=48)
        assert rep.opposite_slope < 0 < rep.same_slope
        assert abs(rep.opposite_slope + rep.same_slope) < 0.15
        assert abs(rep.product_slope) < 0.1

    def test_one_field_refused(self):
        # one field has no standard error: NaN, and within_3se False
        with pytest.raises(ValueError, match="at least two fields"):
            chaos_mean(LAT, 2.0**-4, Fraction(2), seed=0, n_fields=1)

    def test_no_field_refused(self):
        with pytest.raises(ValueError, match="at least one field"):
            correlation_slopes(TorusLattice(32), 2.0**-4, Fraction(1),
                               seed=0, n_fields=0, shifts=[4, 8])

    @pytest.mark.parametrize("shifts", [[8], [8, 8]])
    def test_fit_through_one_shift_refused(self, shifts):
        with pytest.raises(ValueError, match="two distinct shifts"):
            correlation_slopes(LAT, 2.0**-4, Fraction(1), seed=0,
                               n_fields=2, shifts=shifts)

    @pytest.mark.parametrize("largest", [20, 24])
    def test_shifts_beyond_half_the_torus_are_refused(self, largest):
        # on 32^2 a radius-20 shell is 16 corner cells, a radius-24 one empty
        with pytest.raises(ValueError, match="wrap around"):
            correlation_slopes(TorusLattice(32), 2.0**-4, Fraction(1),
                               seed=0, shifts=[4, 8, largest])

    def test_translation_correlation_definition(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        tab = translation_correlation(f, g)
        direct = np.mean(f * np.roll(np.roll(g, -2, axis=0), -3, axis=1))
        assert np.isclose(tab[2, 3], direct)


class TestCharges:
    """``_charges_into`` against libm's sine and cosine."""

    ULP = np.finfo(float).eps

    @staticmethod
    def arguments():
        """2^20 uniform angles with |x| <= 60, the poles (2k+1) pi +- 1e-9
        of the half-angle tangent and the (2k+1) pi nearest to them, and
        tiny angles, signed zeros and subnormals included."""
        rng = np.random.default_rng(19)
        poles = (np.pi * np.arange(-19, 20, 2))[:, None] + [-1e-9, 0, 1e-9]
        tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-150, -1e-20, 1e-9]
        return np.concatenate([rng.uniform(-60, 60, 2**20), poles.ravel(),
                               tiny])

    @pytest.mark.parametrize("c_eps", [1.0, 7.25])
    def test_matches_libm(self, c_eps):
        x = self.arguments()
        d, s, c = np.empty((3,) + x.shape)
        _charges_into(0.5 * x, c_eps, d, s, c)
        tol = 4 * self.ULP * c_eps
        assert np.abs(s - c_eps * np.sin(x)).max() <= tol
        assert np.abs(c - c_eps * np.cos(x)).max() <= tol
        assert np.array_equal(np.signbit(s), np.signbit(np.sin(x)))
        # the sine alone, written over its half angles, is the same sine
        t = 0.5 * x
        _charges_into(t, c_eps, d, t)
        assert np.array_equal(t, s)

    def test_cosine_carries_only_the_tangent_error_near_its_zeros(self):
        """Near a zero of cos(x) the tangent t is near +-1, where 1 - t is
        exact: the cosine is C (1 - t)(1 + t) / (1 + t^2) of its own t to
        a few roundings, relative to its size, with no cancellation."""
        offsets = np.geomspace(1e-12, 1e-3, 16)
        x = (np.pi * (np.arange(-19, 19) + 0.5))[:, None] + np.concatenate(
            [-offsets, offsets])
        x = x.ravel()
        t = np.tan(0.5 * x)
        d, s, c = np.empty((3,) + x.shape)
        _charges_into(0.5 * x, 1.0, d, s, c)
        for ti, ci in zip(t.tolist(), c.tolist()):
            tf = Fraction(ti)
            exact = (1 - tf) * (1 + tf) / (1 + tf * tf)
            assert abs(Fraction(ci) - exact) <= 4 * self.ULP * abs(exact)

    def test_nan_and_infinite_angles_give_nan(self):
        x = np.array([np.nan, np.inf, -np.inf])
        d, s, c = np.empty((3, 3))
        with np.errstate(invalid="ignore"):
            _charges_into(0.5 * x, 2.0, d, s, c)
            t = 0.5 * x
            _charges_into(t, 2.0, d, t)
        assert np.isnan(s).all() and np.isnan(c).all() and np.isnan(t).all()

    def test_simulations_take_no_libm_sine_or_cosine(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("libm sine or cosine called")

        monkeypatch.setattr(np, "sin", refused)
        monkeypatch.setattr(np, "cos", refused)
        lat = TorusLattice(32, dt=2.0**-8)
        solve_pde(lat, 2.0**-3, Fraction(2), 0, t_end=4 * lat.dt)
        convergence_study(lat, Fraction(2), [2.0**-2, 2.0**-3], [0],
                          t_end=4 * lat.dt)
        dipole_moment(lat, TestSharedStepperOracle.dipole_cfg(), seed=0)
        chaos_mean(lat, 2.0**-3, Fraction(2), seed=0, n_fields=2)
        correlation_slopes(lat, 2.0**-4, Fraction(1), seed=0, n_fields=2,
                           shifts=[4, 8], condition_modes=4)


def _fft_out_calls(source: str) -> list[str]:
    """``np.fft``/``numpy.fft`` calls of a 2-d or n-d transform (name
    ending in ``2`` or ``n``) that pass ``out=``, as "line: name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        mod, name = node.func.value, node.func.attr
        if (isinstance(mod, ast.Attribute) and mod.attr == "fft"
                and isinstance(mod.value, ast.Name)
                and mod.value.id in ("np", "numpy")
                and name.endswith(("2", "n"))
                and any(k.arg == "out" for k in node.keywords)):
            found.append(f"{node.lineno}: {name}")
    return found


class TestFftOutTrap:
    """numpy 2.4's ``irfft2`` accepts ``out=`` and ignores it, returning a
    fresh array and leaving the buffer stale, and ``irfftn`` allocates its
    axis-0 pass anyway; so no 2-d or n-d transform in the package may pass
    ``out=``: buffers are written by the 1-d passes of ``_rfft2_into`` and
    ``_irfft2_into``."""

    def test_package_passes_no_out_to_a_2d_or_nd_transform(self):
        package = Path(stochastic.__file__).parent
        found = {path.name: _fft_out_calls(path.read_text())
                 for path in sorted(package.glob("*.py"))}
        assert "stochastic.py" in found
        assert not any(found.values()), found

    def test_the_scan_sees_such_calls(self):
        source = ("np.fft.irfft2(h, s=(n, n), out=buf)\n"
                  "numpy.fft.fftn(a, out=b)\n"
                  "np.fft.irfft(h, n=8, axis=1, out=buf)\n"
                  "np.fft.rfft2(x)\n")
        assert _fft_out_calls(source) == ["1: irfft2", "2: fftn"]


class TestTwoPassTransforms:
    """The allocation-free transforms against numpy's 2-d ones, bit for
    bit, written into the buffers passed in."""

    @pytest.mark.parametrize("n", [8, 32])
    def test_rfft2_into(self, n):
        x = np.random.default_rng(n).standard_normal((n, n))
        out = np.full((n, n // 2 + 1), np.nan, dtype=complex)
        tmp = np.empty_like(out)
        assert _rfft2_into(x, out, tmp) is out
        assert np.array_equal(out, np.fft.rfft2(x))

    @pytest.mark.parametrize("n", [8, 32])
    def test_irfft2_into(self, n):
        rng = np.random.default_rng(n)
        h = (rng.standard_normal((n, n // 2 + 1))
             + 1j * rng.standard_normal((n, n // 2 + 1)))
        out = np.full((n, n), np.nan)
        tmp = np.empty_like(h)
        assert _irfft2_into(h, out, tmp) is out
        assert np.array_equal(out, np.fft.irfft2(h, s=(n, n)))

    @pytest.mark.parametrize("n", [32, 128])
    def test_stacks_transform_slice_by_slice(self, n):
        """Each slice of a (2, n, .) stack transforms exactly as numpy's
        2-d transform of that slice, also with the input as its own
        scratch: the dipole's stacked flow relies on it."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2, n, n))
        h = (rng.standard_normal((2, n, n // 2 + 1))
             + 1j * rng.standard_normal((2, n, n // 2 + 1)))
        spec = np.full(h.shape, np.nan, dtype=complex)
        assert _rfft2_into(x, spec, np.empty_like(spec)) is spec
        back, again = np.full((2, 2, n, n), np.nan)
        assert _irfft2_into(h, back, np.empty_like(h)) is back
        own = h.copy()
        assert _irfft2_into(own, again, own) is again
        for k in range(2):
            assert spec[k].tobytes() == np.fft.rfft2(x[k]).tobytes()
            ref = np.fft.irfft2(h[k], s=(n, n)).tobytes()
            assert back[k].tobytes() == ref and again[k].tobytes() == ref


class TestOneComplexArrayInverse:
    """``_ifft2_real`` against ``np.real(np.fft.ifft2(.))``, bit for bit,
    for the real and complex tables it inverts, leaving them unchanged."""

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_ifft2(self, n, dtype):
        rng = np.random.default_rng(n)
        table = rng.standard_normal((n, n)).astype(dtype)
        if dtype is complex:
            table.imag = rng.standard_normal((n, n))
        copy = table.copy()
        got = _ifft2_real(table)
        assert got.dtype == float
        assert got.tobytes() == np.real(np.fft.ifft2(table)).tobytes()
        assert table.tobytes() == copy.tobytes()


class TestBufferedPrimitives:
    """Each primitive writes into the buffers it is given exactly what it
    returns fresh without them."""

    @pytest.mark.parametrize("n", [32, 128])
    def test_white_spectral(self, n):
        lat = TorusLattice(n)
        fresh = white_spectral(lat, step_rng(3, 1, 2))
        out = np.full((n, n // 2 + 1), np.nan, dtype=complex)
        w, tmp = np.empty((n, n)), np.empty_like(out)
        assert white_spectral(lat, step_rng(3, 1, 2), out, w, tmp) is out
        assert np.array_equal(out, fresh)
        assert np.array_equal(w, step_rng(3, 1, 2).standard_normal((n, n)))

    @pytest.mark.parametrize("n", [32, 128])
    def test_real_space(self, n):
        fld = sample_phi(TorusLattice(n), 2.0**-3, seed=4, sample=1)
        fresh = fld.real_space()
        assert np.array_equal(fresh, np.fft.irfft2(fld.sigma_k * fld.z,
                                                   s=(n, n)) * n**2)
        out = np.full((n, n), np.nan)
        assert fld.real_space(out, np.empty_like(fld.z)) is out
        assert np.array_equal(out, fresh)

    @pytest.mark.parametrize("n", [32, 128])
    def test_profile_is_irfft2(self, n):
        rng = np.random.default_rng(n)
        u_hat = (rng.standard_normal((n, n // 2 + 1))
                 + 1j * rng.standard_normal((n, n // 2 + 1)))
        drv = _HeatDriver(TorusLattice(n, dt=2.0**-8), u_hat)
        out = np.full((n, n), np.nan)
        assert drv.profile(out) is out
        assert np.array_equal(out, np.fft.irfft2(drv.u_hat, s=(n, n)))

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_wick_exponential(self, sign):
        phi = sample_phi(LAT, 2.0**-4, seed=2).real_space()
        c = renorm_constant(LAT, 2.0**-4, Fraction(5))
        fresh = wick_exponential(phi, Fraction(5), c, sign=sign)
        copy = phi.copy()
        out = np.full(phi.shape, np.nan, dtype=complex)
        scratch = np.full((3,) + phi.shape, np.nan)
        assert wick_exponential(phi, Fraction(5), c, sign=sign, out=out,
                                scratch=scratch) is out
        assert np.array_equal(out, fresh)
        assert phi.tobytes() == copy.tobytes()


class TestSlotGenerator:
    """One Philox re-keyed to each slot against a fresh ``step_rng``."""

    @staticmethod
    def draws(rng):
        return (rng.standard_normal(5), rng.random(3),
                rng.integers(0, 2**32, 3, dtype=np.uint32),
                rng.standard_normal(out=np.empty((3, 3))))

    @pytest.mark.parametrize("seed", [0, 11, 2**32 + 7, 2**64 + 3])
    def test_slots_reproduce_step_rng(self, seed):
        slot = _step_rngs(seed)
        # revisited and interleaved slots; each visit leaves a partial draw
        # of odd length, so the 4-word buffer and the spare 32-bit word are
        # both part-used when the next slot is asked for
        for sample, step in [(0, 0), (0, 1), (3, 1), (0, 1), (1, 2**40),
                             (0, 0)]:
            got, want = self.draws(slot(sample, step)), self.draws(
                step_rng(seed, sample, step))
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (seed, sample, step)


class TestDipolePieces:
    def test_counterterm_vanishes_without_smearing(self):
        # the chaos correlation exp(beta^2 Gamma) is positive definite, so
        # kappa grows with lambda from exactly 0 at the unsmeared lambda = 0
        lat = TorusLattice(32, dt=2.0**-8)
        cfg = DipoleConfig(eps=2.0**-4, dt=2.0**-8, t_burn=0.02,
                           t_measure=0.06,
                           lambdas=(0.0, 2.0**-4, 2.0**-3, 2.0**-2))
        kappas = dipole_counterterm(lat, cfg)
        assert all(type(k) is float for k in kappas)
        assert kappas[0] == 0.0
        assert 0 < kappas[1] < kappas[2] < kappas[3]

    def test_coupling_window_enforced(self):
        # lambdas of at least 4 cells, so that only the coupling is refused
        lat = TorusLattice(32, dt=2.0**-8)
        from sinegordon.stochastic import dipole_moment
        for bad in (Fraction(3), Fraction(6)):
            cfg = DipoleConfig(beta_sq=bad, eps=2.0**-4, dt=2.0**-8,
                               lambdas=(2.0**-2, 2.0**-3))
            with pytest.raises(ValueError, match="dipole scaling window"):
                dipole_moment(lat, cfg, seed=0)

    def test_too_few_time_blocks_refused(self):
        # lambda = 2^-1 averages windows of 16 slices of dt = 2^-8
        lat = TorusLattice(32, dt=2.0**-8)
        from sinegordon.stochastic import dipole_moment
        cfg = DipoleConfig(eps=2.0**-4, dt=2.0**-8, t_burn=0.02,
                           t_measure=31 * 2.0**-8, lambdas=(2.0**-1, 2.0**-2),
                           n_samples=1)
        with pytest.raises(ValueError, match="fewer than 2 time blocks"):
            dipole_moment(lat, cfg, seed=0)
        cfg.t_measure = 32 * 2.0**-8
        rep = dipole_moment(lat, cfg, seed=0)
        assert np.all(np.isfinite(rep.stderrs))

    def test_one_distinct_lambda_refused(self):
        # a slope through a single lambda is no fit
        lat = TorusLattice(32, dt=2.0**-9)
        for lambdas in ((2.0**-2,), (2.0**-2, 2.0**-2)):
            cfg = DipoleConfig(eps=2.0**-3, dt=2.0**-9, lambdas=lambdas,
                               n_samples=1)
            with pytest.raises(ValueError, match="two distinct lambdas"):
                dipole_moment(lat, cfg, seed=0)

    @pytest.mark.parametrize("dt", [0.0, -2.0**-8, float("nan"),
                                    float("inf")])
    def test_time_step_must_be_positive_and_finite(self, dt):
        # the lattice refuses it, and so does the dipole, before it compares
        # cfg.dt with lat.dt
        with pytest.raises(ValueError, match="must be positive and finite"):
            TorusLattice(32, dt=dt)
        from sinegordon.stochastic import dipole_moment
        cfg = DipoleConfig(eps=2.0**-4, dt=dt, n_samples=1)
        with pytest.raises(ValueError, match="must be positive and finite"):
            dipole_moment(TorusLattice(32, dt=2.0**-8), cfg, seed=0)

    def test_time_step_must_be_the_lattice_step(self):
        # the dipole steps at the lattice's dt, so another cfg.dt would
        # place its measured slices and blocks at a step it does not take
        from sinegordon.stochastic import dipole_moment
        cfg = DipoleConfig(eps=2.0**-4, dt=2.0**-8, n_samples=1)
        with pytest.raises(ValueError, match="is not the lattice's"):
            dipole_moment(TorusLattice(32, dt=2.0**-9), cfg, seed=0)

    def test_counterterm_refuses_another_time_step(self):
        # the counterterm sums over the lattice's steps up to the slices
        # that cfg.dt places, so the two must agree
        cfg = DipoleConfig(eps=2.0**-4, dt=2.0**-8, t_burn=0.02,
                           t_measure=0.06, lambdas=(2.0**-2, 2.0**-3))
        with pytest.raises(ValueError, match="^time step dt = 0.00390625 is "
                           "not the lattice's 0.001953125$"):
            dipole_counterterm(TorusLattice(32, dt=2.0**-9), cfg)

    def test_lambda_floor_enforced(self):
        # two distinct lambdas, so that only the 1-cell one is refused
        lat = TorusLattice(32, dt=2.0**-8)
        from sinegordon.stochastic import dipole_moment
        cfg = DipoleConfig(eps=2.0**-4, dt=2.0**-8,
                           lambdas=(2.0**-2, 2.0**-5))
        with pytest.raises(ValueError, match="below 4 grid cells"):
            dipole_moment(lat, cfg, seed=0)

    def test_no_sample_refused(self):
        # no sample has no time block, so every moment would divide by zero
        cfg = DipoleConfig(eps=2.0**-4, dt=2.0**-8,
                           lambdas=(2.0**-2, 2.0**-3), n_samples=0)
        with pytest.raises(ValueError, match="need at least one sample"):
            dipole_moment(TorusLattice(32, dt=2.0**-8), cfg, seed=0)


class TestPDE:
    def test_beta_zero_is_heat_flow(self):
        lat = TorusLattice(32, dt=2.0**-8)
        x = np.arange(32) / 32
        v0 = np.cos(2 * np.pi * x)[:, None] * np.ones((1, 32))
        res = solve_pde(lat, 2.0**-4, Fraction(1, 10**12), seed=0,
                        t_end=0.05, v0=v0)
        t = res.times[-1]
        exact = v0 * np.exp(-0.5 * (2 * np.pi) ** 2 * t)
        assert np.max(np.abs(res.final - exact)) < 1e-6

    def test_trajectory_real_and_reproducible(self):
        lat = TorusLattice(32, dt=2.0**-8)
        r1 = solve_pde(lat, 2.0**-4, Fraction(2), seed=7, t_end=0.05)
        r2 = solve_pde(lat, 2.0**-4, Fraction(2), seed=7, t_end=0.05)
        assert r1.max_imag < 1e-12
        assert r1.final.tobytes() == r2.final.tobytes()

    @pytest.mark.parametrize("t_end", [0.0, -1.0, 2.0**-10])
    def test_run_without_steps_refused(self, t_end):
        # 2^-10 is a quarter step of dt = 2^-8 and rounds to none
        lat = TorusLattice(32, dt=2.0**-8)
        with pytest.raises(ValueError, match="rounds to no step"):
            solve_pde(lat, 2.0**-3, Fraction(2), seed=0, t_end=t_end)
        with pytest.raises(ValueError, match="rounds to no step"):
            convergence_study(lat, Fraction(2), [2.0**-2, 2.0**-3], [0],
                              t_end=t_end)

    @pytest.mark.parametrize("shape", [(32, 33), (16, 16), (32,)])
    def test_initial_state_must_be_n_by_n(self, shape):
        # a 32-by-33 rfft2 has the half-spectrum shape of a 32-by-32 one
        lat = TorusLattice(32, dt=2.0**-8)
        with pytest.raises(ValueError, match=r"not \(32, 32\)"):
            solve_pde(lat, 2.0**-3, Fraction(2), 0, t_end=lat.dt,
                      v0=np.zeros(shape))

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_recording_interval_below_one_refused(self, record_every):
        lat = TorusLattice(32, dt=2.0**-8)
        with pytest.raises(ValueError, match="is below 1"):
            solve_pde(lat, 2.0**-3, Fraction(2), 0, t_end=6 * lat.dt,
                      record_every=record_every)

    def test_convergence_guard_rails(self):
        lat = TorusLattice(32, dt=2.0**-8)
        with pytest.raises(ValueError, match="at least two widths"):
            convergence_study(lat, Fraction(2), [2.0**-3], [0])
        with pytest.raises(ValueError, match="dyadic cascade"):
            convergence_study(lat, Fraction(2), [2.0**-3, 2.0**-3.5], [0])
        # the seeds rule comes before the coupling and step rules
        with pytest.raises(ValueError, match="at least one seed"):
            convergence_study(lat, Fraction(4), [2.0**-2, 2.0**-3], [])

    @pytest.mark.parametrize("beta_sq", [Fraction(4), Fraction(9, 2)])
    def test_coupling_at_or_above_4pi_refused(self, beta_sq):
        lat = TorusLattice(8)
        with pytest.raises(ValueError, match=r"beta\^2 < 4\*pi"):
            solve_pde(lat, 0.25, beta_sq, seed=0, t_end=lat.dt)
        with pytest.raises(ValueError, match=r"beta\^2 < 4\*pi"):
            convergence_study(lat, beta_sq, [0.5, 0.25], [0], t_end=lat.dt)

    def test_coupling_refused_before_the_swap_width(self):
        # no quartic width matches eps = 2 at 32^2, but the coupling is
        # checked first
        lat = TorusLattice(32, dt=2.0**-8)
        with pytest.raises(ValueError, match=r"beta\^2 < 4\*pi"):
            convergence_study(lat, Fraction(4), [4.0, 2.0], [0], t_end=lat.dt)

    def test_run_without_steps_refused_before_any_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("the run started before its refusal")

        monkeypatch.setattr(TorusLattice, "mode_variances", work)
        lat = TorusLattice(32, dt=2.0**-8)
        with pytest.raises(ValueError, match="rounds to no step"):
            solve_pde(lat, 2.0**-3, Fraction(2), seed=0, t_end=0.0)
        with pytest.raises(ValueError, match="rounds to no step"):
            convergence_study(lat, Fraction(2), [2.0**-2, 2.0**-3], [0],
                              t_end=0.0)

    def test_ratios_ok_needs_a_ratio(self):
        # two widths give one d and no ratio: nothing has passed
        rep = ConvergenceReport([0.25, 0.125], 0.1, [0.01], [], 0.0, 0.0, 1)
        assert not rep.ratios_ok
        rep.ratios = [0.5]
        assert rep.ratios_ok
        rep.ratios = [0.5, 0.9]
        assert not rep.ratios_ok

    def test_quartic_width_calibration(self):
        lat = TorusLattice(64)
        eps = 2.0**-4
        w = calibrate_width(lat, eps)
        assert np.isclose(sigma2(lat, w, QUARTIC), sigma2(lat, eps, GAUSS),
                          rtol=1e-10)

    def test_calibration_refuses_a_target_below_the_widest_width(self):
        # at 32^2 the Gaussian at eps = 2 has variance 3.4e-5, below the
        # quartic's 0.0137 at the widest bracket end, 1.0
        lat = TorusLattice(32)
        assert sigma2(lat, 2.0, GAUSS) < sigma2(lat, 1.0, QUARTIC)
        with pytest.raises(ValueError, match="not reachable"):
            calibrate_width(lat, 2.0)
        with pytest.raises(ValueError, match="not reachable"):
            convergence_study(lat, Fraction(2), [4.0, 2.0], [0], t_end=lat.dt)

    @pytest.mark.parametrize("n, eps", [(64, 2.0**-4), (128, 2.0**-6)])
    def test_calibration_stops_once_the_bracket_does(self, monkeypatch, n,
                                                     eps):
        """The early exit returns the float of all 200 bisection steps."""
        lat = TorusLattice(n)
        target = sigma2(lat, eps, GAUSS)
        lo, hi = lat.min_eps(), 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if sigma2(lat, mid, QUARTIC) > target:
                lo = mid
            else:
                hi = mid
        calls = []

        def counted(*args):
            calls.append(args)
            return sigma2(*args)

        monkeypatch.setattr(stochastic, "sigma2", counted)
        assert calibrate_width(lat, eps) == 0.5 * (lo + hi)
        assert len(calls) < 100

    def test_convergence_study_transform_count(self, monkeypatch):
        """Per seed: one inverse per width and step for the reaction, and
        one per compared pair on each step from ``start`` on, each through
        ``_irfft2_into`` and none through ``np.fft.irfft2``."""
        calls = []
        irfft2_into = stochastic._irfft2_into

        def counted(h, out, tmp):
            calls.append(h.shape)
            return irfft2_into(h, out, tmp)

        def refused(*args, **kwargs):
            raise AssertionError("np.fft.irfft2 called")

        monkeypatch.setattr(stochastic, "_irfft2_into", counted)
        monkeypatch.setattr(np.fft, "irfft2", refused)
        lat = TorusLattice(32, dt=2.0**-8)
        eps_list, seeds = [2.0**-2, 2.0**-3, 2.0**-4], [0, 1]
        n_steps, start = 16, 4
        convergence_study(lat, Fraction(2), eps_list, seeds,
                          t_end=n_steps * lat.dt)
        widths = len(eps_list) + 1      # the Gaussian widths and the swap
        pairs = len(eps_list)           # the dyadic neighbours and the swap
        assert len(calls) == len(seeds) * (n_steps * widths
                                           + (n_steps - start) * pairs)
        assert set(calls) == {(32, 17)}

    # Recorded (numpy 2.4.6, x86-64) once the sup window became the states
    # after the steps of the last three quarters.  CONVERGENCE_LIBM keeps
    # the same run's values with the chaos sine taken from libm rather than
    # from the half-angle tangent of _charges_into, which the pinned run
    # matches to rtol 1e-12.  Its max_imag is roundoff itself, so it is not
    # kept.
    CONVERGENCE_PIN = (
        "ConvergenceReport(eps_list=[0.25, 0.125, 0.0625],"
        " swap_eps=0.08702782662877487,"
        " d_values=[np.float64(0.00954089214250985),"
        " np.float64(0.006849787391612165)],"
        " ratios=[np.float64(0.7179399252500347)],"
        " swap_gap=0.0026036147693460554, max_imag=6.940826197818152e-18,"
        " n_seeds=2, stderrs=[0.0010485692545427255, 0.0009991651911041488])"
    )
    CONVERGENCE_LIBM = {
        "swap_eps": 0.08702782662877487,
        "d_values": [0.00954089214250985, 0.006849787391612162],
        "ratios": [0.7179399252500345],
        "swap_gap": 0.0026036147693460554,
        "stderrs": [0.001048569254542723, 0.0009991651911041431],
    }
    # sha256 of each snapshot's bytes, at t = 0, 4 dt, ..., 16 dt, recorded
    # after the field became sigma_k z of a unit OU process z, which moved
    # the solution at roundoff
    PDE_PIN = (
        "d142986c6d6bf86aeb86862d990de0cb90f0bb4c2c4818d6ac74cdb111adec1e",
        "1a11451f31b8f43be918073c10e3361f37629ca9435231f42b8dc253eacee752",
        "48af55ee79484f50bf44a214b3f54e2652659b93e1e62a044f34a0df3cf5709a",
        "ce28c6fe1ff35124ada421bc3ece93c4250f943d7a2e6589926765745b3052b5",
        "5db590a8a95d361084327c430619e28e075cb41b40a1703851da456aa9a6c371",
    )

    @pinned_bits
    def test_convergence_study_is_pinned_bit_for_bit(self):
        lat = TorusLattice(32, dt=2.0**-8)
        rep = convergence_study(lat, Fraction(2),
                                [2.0**-2, 2.0**-3, 2.0**-4], [0, 1],
                                t_end=16 * lat.dt)
        assert repr(rep) == self.CONVERGENCE_PIN
        for key, libm in self.CONVERGENCE_LIBM.items():
            assert np.allclose(getattr(rep, key), libm, rtol=1e-12, atol=0)

    @pinned_bits
    def test_solve_pde_is_pinned_bit_for_bit(self):
        lat = TorusLattice(32, dt=2.0**-8)
        x = np.arange(32) / 32
        v0 = 0.3 * np.sin(2 * np.pi * x)[:, None] * np.cos(4 * np.pi * x)
        res = solve_pde(lat, 2.0**-3, Fraction(2), 3, t_end=16 * lat.dt,
                        v0=v0, record_every=4)
        assert repr(res.max_imag) == "1.7736290635527415e-18"
        assert tuple(hashlib.sha256(snap.tobytes()).hexdigest()
                     for snap in res.snapshots) == self.PDE_PIN


# --- oracles: the per-step complex formulation the shared stepper replaced ---


def _euler_tables(lat, dt):
    x = -lat.mu * dt
    gain = np.full_like(x, dt)
    nz = x != 0
    gain[nz] = dt * np.expm1(x[nz]) / x[nz]
    return np.exp(x), gain


def _complex_forcing_step(v_hat, phi, beta_sq, c_eps, tables):
    """The shifted-equation step built from the complex chaos, a complex
    exponential of the solution, their product and its imaginary part."""
    decay, gain = tables
    beta = np.sqrt(float(beta_sq) * np.pi)
    v = np.real(np.fft.ifft2(v_hat))
    xi_plus = c_eps * np.exp(1j * beta * phi)
    forcing = np.imag(np.exp(1j * beta * v) * xi_plus)
    return decay * v_hat + gain * np.fft.fft2(forcing)


def _ou_fields(lat, seed, widths, n_steps):
    """Real fields at each (width, shape) of ``widths`` before each of
    ``n_steps`` steps of lat.dt: sigma_k z on the full spectrum, z the
    unit-variance OU process of sample 0 of ``seed``, damped like the heat
    flow and driven by the Philox slots (seed, 0, step)."""
    n = lat.n
    decay = np.exp(-lat.mu * lat.dt)

    def white(step):
        return np.fft.fft2(step_rng(seed, 0, step).standard_normal((n, n))) / n

    z = white(0)
    for step in range(n_steps):
        yield [np.real(np.fft.ifft2(np.sqrt(lat.mode_variances(w, sh)) * z))
               * n**2 for w, sh in widths]
        z = decay * z + np.sqrt(1 - decay**2) * white(step + 1)


def _old_dipole_trajectory(lat, cfg, seed, sample, collect):
    """Zero mode dropped from the forcing; collect(xi_minus, u)."""
    c_eps = renorm_constant(lat, cfg.eps, cfg.beta_sq)
    fld = sample_phi(lat, cfg.eps, seed, sample)
    decay, gain = _euler_tables(lat, cfg.dt)
    u_hat = np.zeros((lat.n, lat.n), dtype=complex)
    n_burn = int(round(cfg.t_burn / cfg.dt))
    n_meas = int(round(cfg.t_measure / cfg.dt))
    for step in range(n_burn + n_meas):
        xi_plus = wick_exponential(fld.real_space(), cfg.beta_sq, c_eps)
        f_hat = np.fft.fft2(xi_plus)
        f_hat[0, 0] = 0.0
        u_hat = decay * u_hat + gain * f_hat
        fld.advance(white_spectral(lat, step_rng(seed, sample, step + 1)))
        if step >= n_burn:
            collect(np.conj(xi_plus), np.fft.ifft2(u_hat))


def _smeared_counterterm(lat, cfg, h):
    """kappa per lambda from the mean h(w) = E[xi_-(z + w) u(z)]: the
    displacement table c = h(0) - h, smeared by the bump at the origin."""
    cterm = h[0, 0] - h
    return [complex(np.fft.ifft2(bump_spectral(lat, lam)
                                 * np.fft.fft2(cterm))[0, 0])
            for lam in cfg.lambdas]


def _old_counterterm(lat, cfg, seed, n_traj):
    """Sampled kappas, one row per trajectory, each from the per-slice
    translation correlations of that trajectory."""
    rows = []
    for s in range(n_traj):
        tables = []

        def collect(xi_minus, u):
            tables.append(translation_correlation(u, xi_minus))

        _old_dipole_trajectory(lat, cfg, seed, s, collect)
        rows.append(_smeared_counterterm(lat, cfg, sum(tables) / len(tables)))
    return np.array(rows)


def _old_dipole_blocks(lat, cfg, seed, kappas):
    """Per-slice real-space block sums: |ren|^2, |block|^2 and mean(ren)."""
    windows = [max(1, int(round(lam**2 / (4.0 * cfg.dt))))
               for lam in cfg.lambdas]
    psi_hats = [bump_spectral(lat, lam) for lam in cfg.lambdas]
    sq, ab, means = [[] for _ in windows], [[] for _ in windows], []
    for s in range(cfg.n_samples):
        acc, cnt = [0.0] * len(windows), [0] * len(windows)

        def collect(xi_minus, u):
            g1 = np.fft.fft2(xi_minus * u)
            g2 = np.fft.fft2(xi_minus)
            for i, ph in enumerate(psi_hats):
                acc[i] = (acc[i] + np.fft.ifft2(ph * g1)
                          - np.fft.ifft2(ph * g2) * u)
                cnt[i] += 1
                if cnt[i] >= windows[i]:
                    block = acc[i] / cnt[i]
                    ren = block - kappas[i]
                    sq[i].append(np.mean(np.abs(ren) ** 2))
                    ab[i].append(np.mean(np.abs(block) ** 2))
                    if i == 0:
                        means.append(np.mean(ren))
                    acc[i], cnt[i] = 0.0, 0

        _old_dipole_trajectory(lat, cfg, seed, s, collect)
    return sq, ab, means


def _rel_close(a, b, rtol=1e-12):
    """Max-norm relative agreement, so entries near zero do not dominate."""
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


class TestSharedStepperOracle:
    """The shared exponential-Euler driver, the real sine forcing and the
    spectral dipole accumulators against the per-step complex code."""

    LAT = TorusLattice(32, dt=2.0**-8)

    def test_solve_pde_matches_complex_forcing(self):
        lat, eps, beta_sq, seed = self.LAT, 2.0**-3, Fraction(2), 3
        x = np.arange(32) / 32
        v0 = 0.3 * np.sin(2 * np.pi * x)[:, None] * np.cos(4 * np.pi * x)
        res = solve_pde(lat, eps, beta_sq, seed, t_end=16 * lat.dt, v0=v0,
                        record_every=4)
        c_eps = renorm_constant(lat, eps, beta_sq)
        tables = _euler_tables(lat, lat.dt)
        v_hat = np.fft.fft2(v0)
        snaps = [v0]
        for step, (phi,) in enumerate(_ou_fields(lat, seed, [(eps, GAUSS)],
                                                 16)):
            v_hat = _complex_forcing_step(v_hat, phi, beta_sq, c_eps, tables)
            if (step + 1) % 4 == 0:
                snaps.append(np.real(np.fft.ifft2(v_hat)))
        assert res.times == [k * 4 * lat.dt for k in range(5)]
        assert len(res.snapshots) == len(snaps)
        for got, ref in zip(res.snapshots, snaps):
            assert _rel_close(got, ref)
        assert 0 < res.max_imag < 1e-12

    def test_convergence_study_matches_complex_forcing(self):
        lat, beta_sq, seeds = self.LAT, Fraction(2), [0, 1]
        eps_list, n_steps, start = [2.0**-2, 2.0**-3], 16, 4
        rep = convergence_study(lat, beta_sq, eps_list, seeds,
                                t_end=n_steps * lat.dt)
        widths = eps_list + [calibrate_width(lat, eps_list[-1])]
        shapes = [GAUSS, GAUSS, QUARTIC]
        consts = [renorm_constant(lat, w, beta_sq, sh)
                  for w, sh in zip(widths, shapes)]
        tables = _euler_tables(lat, lat.dt)
        d, gap = 0.0, 0.0
        for seed in seeds:
            v_hats = [np.zeros((32, 32), dtype=complex)] * 3
            d_seed = gap_seed = 0.0
            for step, phis in enumerate(_ou_fields(
                    lat, seed, list(zip(widths, shapes)), n_steps)):
                vs = []
                for i in range(3):
                    v_hats[i] = _complex_forcing_step(
                        v_hats[i], phis[i], beta_sq, consts[i], tables)
                    vs.append(np.real(np.fft.ifft2(v_hats[i])))
                if step + 1 > start:        # the states after the step
                    d_seed = max(d_seed, np.max(np.abs(vs[0] - vs[1])))
                    gap_seed = max(gap_seed, np.max(np.abs(vs[1] - vs[2])))
            d += d_seed / len(seeds)
            gap += gap_seed / len(seeds)
        assert np.allclose(rep.d_values, [d], rtol=1e-12, atol=0)
        assert np.isclose(rep.swap_gap, gap, rtol=1e-12, atol=0)
        assert rep.ratios == []
        assert 0 < rep.max_imag < 1e-12

    def test_convergence_study_with_a_ratio_matches_complex_forcing(self):
        """Three Gaussian widths and the swap: both dyadic pairs, their
        ratio, and the swap pair (width 2 against the quartic)."""
        lat, beta_sq, seeds = self.LAT, Fraction(2), [0, 1]
        eps_list, n_steps, start = [2.0**-2, 2.0**-3, 2.0**-4], 16, 4
        rep = convergence_study(lat, beta_sq, eps_list, seeds,
                                t_end=n_steps * lat.dt)
        widths = eps_list + [calibrate_width(lat, eps_list[-1])]
        shapes = [GAUSS, GAUSS, GAUSS, QUARTIC]
        consts = [renorm_constant(lat, w, beta_sq, sh)
                  for w, sh in zip(widths, shapes)]
        tables = _euler_tables(lat, lat.dt)
        pairs = [(0, 1), (1, 2), (2, 3)]
        sups = np.zeros(len(pairs))
        for seed in seeds:
            v_hats = [np.zeros((32, 32), dtype=complex)] * 4
            sup_seed = np.zeros(len(pairs))
            for step, phis in enumerate(_ou_fields(
                    lat, seed, list(zip(widths, shapes)), n_steps)):
                vs = []
                for i in range(4):
                    v_hats[i] = _complex_forcing_step(
                        v_hats[i], phis[i], beta_sq, consts[i], tables)
                    vs.append(np.real(np.fft.ifft2(v_hats[i])))
                if step + 1 > start:        # the states after the step
                    sup_seed = np.maximum(sup_seed, [
                        np.max(np.abs(vs[a] - vs[b])) for a, b in pairs])
            sups += sup_seed / len(seeds)
        assert np.allclose(rep.d_values, sups[:2], rtol=1e-12, atol=0)
        assert np.allclose(rep.ratios, [sups[1] / sups[0]], rtol=1e-12,
                           atol=0)
        assert np.isclose(rep.swap_gap, sups[2], rtol=1e-12, atol=0)
        assert 0 < rep.max_imag < 1e-12

    # lambda windows of 4, 2 and 1 slices over 11 measured steps, so blocks
    # are left open at each trajectory end
    @staticmethod
    def dipole_cfg():
        return DipoleConfig(eps=2.0**-4, dt=2.0**-8, t_burn=0.02,
                            t_measure=11 * 2.0**-8,
                            lambdas=(2.0**-2, 2.0**-2.5, 2.0**-3),
                            n_samples=2)

    def test_counterterm_within_sampled_batch(self):
        """The exact kappas against 64 trajectories of the per-slice
        translation-correlation estimator, within 4 standard errors on the
        real part; the imaginary part averages to 0 within 4 of its own."""
        cfg, n_traj, k = self.dipole_cfg(), 64, 4.0
        exact = dipole_counterterm(self.LAT, cfg)
        rows = _old_counterterm(self.LAT, cfg, seed=4, n_traj=n_traj)
        mean = rows.mean(axis=0)
        se_re = rows.real.std(axis=0, ddof=1) / np.sqrt(n_traj)
        se_im = rows.imag.std(axis=0, ddof=1) / np.sqrt(n_traj)
        assert np.all(np.abs(mean.real - exact) <= k * se_re)
        assert np.all(np.abs(mean.imag) <= k * se_im)

    def test_dipole_moment_matches_per_slice_collect(self):
        lat, cfg = self.LAT, self.dipole_cfg()
        rep = dipole_moment(lat, cfg, seed=2)
        sq, ab, means = _old_dipole_blocks(
            lat, cfg, 2, dipole_counterterm(lat, cfg))
        assert np.allclose(rep.second_moments, [np.mean(v) for v in sq],
                           rtol=1e-12, atol=0)
        assert np.allclose(rep.stderrs,
                           [np.std(v, ddof=1) / np.sqrt(len(v)) for v in sq],
                           rtol=1e-12, atol=0)
        assert np.allclose(rep.ablation_moments, [np.mean(v) for v in ab],
                           rtol=1e-12, atol=0)
        # the mean is a small difference of block values of size
        # sqrt(ablation moment), so it is compared on that scale
        scale = np.sqrt(rep.ablation_moments[0])
        assert abs(rep.mean_complex - np.mean(means)) <= 1e-12 * scale

    # repr of as_dict() at 32^2 and seed 2, recorded (numpy 2.4.6, x86-64)
    # after the field became sigma_k z of a unit OU process z, which moved
    # it at roundoff, as the move of the chaos sine and cosine from libm to
    # the half-angle tangent of _charges_into did before.  PINNED_LIBM keeps
    # the reprs recorded with libm's sine and cosine, which the pinned runs
    # still match to rtol 1e-12.
    # test_dipole_moment_matches_per_slice_collect covers every other setup.
    PINNED = (
        "{'lambdas': [0.25, 0.1767766952966369, 0.125],"
        " 'second_moments': [0.01486206939207533, 0.026068166243015233,"
        " 0.045549380931721756], 'stderrs': [0.002094620754465355,"
        " 0.0014776597101206596, 0.0012819694246123236],"
        " 'ablation_moments': [0.3560583247253143, 0.29028222923465014,"
        " 0.22903594634129879], 'slope': -1.6157964358007637,"
        " 'ablation_slope': 0.6365395418850861, 'n_samples': 2,"
        " 'ablation_gap': 2.25233597768585,"
        " 'mean_re': -0.010689825264574942,"
        " 'mean_im': 0.007651638319906809}"
    )
    PINNED_LIBM = (
        "{'lambdas': [0.25, 0.1767766952966369, 0.125],"
        " 'second_moments': [0.014862069392075334, 0.026068166243015244,"
        " 0.045549380931721756], 'stderrs': [0.002094620754465353,"
        " 0.0014776597101206607, 0.0012819694246123227],"
        " 'ablation_moments': [0.35605832472531423, 0.29028222923465,"
        " 0.22903594634129876], 'slope': -1.6157964358007637,"
        " 'ablation_slope': 0.636539541885086, 'n_samples': 2,"
        " 'ablation_gap': 2.2523359776858496,"
        " 'mean_re': -0.01068982526457498,"
        " 'mean_im': 0.007651638319906808}"
    )

    @pinned_bits
    def test_dipole_moment_is_pinned_bit_for_bit(self):
        rep = dipole_moment(self.LAT, self.dipole_cfg(), seed=2)
        assert repr(rep.as_dict()) == self.PINNED
        for key, libm in ast.literal_eval(self.PINNED_LIBM).items():
            assert np.allclose(rep.as_dict()[key], libm, rtol=1e-12, atol=0)


def _expected_slice_spectrum(lat, cfg):
    """E[u_hat(m) conj f_hat(m)] averaged over the measured slices m, as
    the double sum over steps i <= m of decay^(m-i) gain E[f_hat(i) conj
    f_hat(m)], with Gamma an explicit mode sum and the spectrum of the
    chaos correlation a direct DFT over pairs of sites."""
    n, beta2 = lat.n, float(cfg.beta_sq) * np.pi
    decay, gain = _euler_tables(lat, cfg.dt)
    var, mu = lat.mode_variances(cfg.eps).ravel(), lat.mu.ravel()
    sites = np.array([(a, b) for a in range(n) for b in range(n)])
    phase = np.exp(-2j * np.pi * (sites @ sites.T) / n)    # [mode, site]
    diff = (sites[:, None, :] - sites[None, :, :]) % n
    pair = diff[..., 0] * n + diff[..., 1]                  # site of x - y

    def pair_spectrum(lag):        # E[f_hat(i)(k) conj f_hat(i + lag)(k)]
        gamma = phase.real.T @ (var * np.exp(-mu * lag * cfg.dt))
        r = np.exp(beta2 * gamma)[pair]
        return np.einsum("kx,xy,ky->k", phase, r, phase.conj()).reshape(n, n)

    n_burn = int(round(cfg.t_burn / cfg.dt))
    n_meas = int(round(cfg.t_measure / cfg.dt))
    slices = list(range(n_burn, n_burn + n_meas))
    tables = {lag: pair_spectrum(lag) for lag in range(slices[-1] + 1)}
    spec = np.zeros((n, n), dtype=complex)
    for m in slices:
        for i in range(m + 1):
            spec += decay ** (m - i) * gain * tables[m - i]
    spec[0, 0] = 0.0               # the trajectory projects u's mean out
    return spec / len(slices)


class TestExactCounterterm:
    """dipole_counterterm against the slice-pair double sum at 8^2."""

    LAT = TorusLattice(8, dt=2.0**-8)

    def test_matches_slice_pair_sum(self):
        cfg = DipoleConfig(eps=2.0**-2, dt=2.0**-8, t_burn=3 * 2.0**-8,
                           t_measure=6 * 2.0**-8,
                           lambdas=(2.0**-1, 2.0**-2, 2.0**-3))
        # E[xi_-(z + w) u(z)] inverts spec(-k) / n^2: fft2(spec) / n^4
        h = np.fft.fft2(_expected_slice_spectrum(self.LAT, cfg)) / 8**4
        want = np.array(_smeared_counterterm(self.LAT, cfg, h))
        got = dipole_counterterm(self.LAT, cfg)
        assert np.max(np.abs(want.imag)) <= 1e-14 * np.max(want.real)
        assert np.allclose(got, want.real, rtol=1e-12, atol=0)


class TestHalfSpectrumResidue:
    """The real-mode driver's imaginary residue against the complex inverse
    of the half-spectrum's Hermitian extension."""

    N = 32

    def driver(self, half):
        return _HeatDriver(TorusLattice(self.N, dt=2.0**-8), half)

    def extension(self, half):
        """The full spectrum E(k, l) = conj(E(-k, -l)) for l > n/2."""
        n = self.N
        flip = (-np.arange(n)) % n
        full = np.empty((n, n), dtype=complex)
        full[:, : n // 2 + 1] = half
        full[:, n // 2 + 1:] = np.conj(half[flip][:, n // 2 - 1: 0: -1])
        return full

    def hermitian_half(self):
        """Random interior columns; columns 0 and n/2 are real and sit only
        at the self-conjugate rows 0 and n/2, so the extension is exactly
        Hermitian."""
        n = self.N
        rng = np.random.default_rng(5)
        half = (rng.standard_normal((n, n // 2 + 1))
                + 1j * rng.standard_normal((n, n // 2 + 1)))
        half[:, :: n // 2] = 0.0
        half[:: n // 2, :: n // 2] = rng.standard_normal((2, 2))
        return half

    def test_hermitian_half_spectrum_has_no_residue(self):
        half = self.hermitian_half()
        assert _imag_residues(half) == 0.0
        full = np.fft.ifft2(self.extension(half))
        assert _rel_close(self.driver(half).profile(np.empty((self.N,
                                                              self.N))),
                          full.real)
        assert np.max(np.abs(full.imag)) < 1e-15 * np.max(np.abs(full.real))

    def test_anti_hermitian_columns_are_measured(self):
        n = self.N
        half = self.hermitian_half()
        rng = np.random.default_rng(6)
        for col in (0, n // 2):
            # a(k) = -conj(a(-k)): purely imaginary at the self-conjugate rows
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = 0.5 * (a - np.conj(a[(-np.arange(n)) % n]))
            half[:, col] += (0.3 if col else 1.0) * a
        got = _imag_residues(half)
        want = np.max(np.abs(np.fft.ifft2(self.extension(half)).imag))
        assert want > 0
        assert np.isclose(got, want, rtol=1e-12, atol=0)

    def test_stack_reads_each_residue_bit_for_bit(self):
        n, rng = self.N, np.random.default_rng(7)
        stack = (rng.standard_normal((3, n, n // 2 + 1))
                 + 1j * rng.standard_normal((3, n, n // 2 + 1)))
        stack[1] = self.hermitian_half()
        got = _imag_residues(stack)
        assert got.shape == (3,) and got[1] == 0.0 < got[0]
        assert got.tolist() == [_imag_residues(half) for half in stack]
