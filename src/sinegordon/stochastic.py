"""Lattice simulation of the log-correlated field, its unit-modulus chaos
exponentials, the renormalized dipole estimator, and the shifted-equation
solver on the two-dimensional unit torus.

Each Fourier mode of the free field is an independent Ornstein-Uhlenbeck
process at equilibrium, damped by half its Laplacian symbol, so the
equal-time variance table is exact and the renormalization constant from
the same table gives the chaos unit expectation exactly in distribution.
A field is sigma_k z for one unit-variance OU process z
(``GaussianField``).  One real exponential-Euler integrator
(``_HeatDriver``) steps every heat flow: one stacked real pair for the
dipole's complex profile, driven by C (cos, sin)(beta Phi), and one per
width of the shifted equation (``_shifted_steps``), driven by
C sin(beta (Phi + v)).  The dipole counterterm is exact, not sampled.

Real fields are stored as ``rfft2`` half-spectra.  All noise comes from
Philox generators keyed by (seed, sample, step), so runs are reproducible
in any order.  ``white_spectral``, ``GaussianField.real_space`` and
``_HeatDriver.profile`` write into the buffers they are given, through the
1-d passes of ``_rfft2_into``/``_irfft2_into`` (bit for bit
``rfft2``/``irfft2``, slice by slice on a stack); a full-grid table is
inverted by ``_ifft2_real`` in one complex array.  Chaos sines and cosines
come from ``_charges_into``, and ``wick_exponential`` writes them into the
buffers it is given, so ``_chaos_spectra`` samples every field in buffers
allocated once per grid size, with ``fft2`` as its two 1-d passes in
place.  Each experiment checks its validity window, lazy rules (name,
holds, message), through ``_refuse`` before it does any work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * np.pi

GAUSS = "gauss"
QUARTIC = "quartic"


def _refuse(window):
    """Raise a ValueError with the first failing rule's message."""
    for _, holds, message in window:
        if not holds:
            raise ValueError(message)


@dataclass
class TorusLattice:
    """Uniform n-by-n grid on the unit torus with spectral tables.

    The lattice stores one full-grid table, the squared integer mode
    number ``m2``; ``k2`` and ``mu`` are derived from it on each read.  The
    tables it caches are the half-spectrum ones: ``sigma_k`` per width and
    shape, and the heat tables per time step.
    """

    n: int
    dt: float = 2.0**-10
    _sigma_k: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _heat: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError("grid size must be a power of two >= 4")
        if not 0 < self.dt < np.inf:
            raise ValueError(
                f"time step dt = {self.dt} must be positive and finite")
        m = np.fft.fftfreq(self.n) * self.n
        self.m2 = np.add.outer(m**2, m**2)      # integer mode number squared
        self.n_rfft = self.n // 2 + 1            # columns of an rfft2 table

    @property
    def k2(self) -> np.ndarray:
        """|2 pi m|^2 per mode, a fresh full-grid table."""
        return (TWO_PI**2) * self.m2

    @property
    def mu(self) -> np.ndarray:
        """Half-Laplacian damping per mode, a fresh full-grid table."""
        return 0.5 * self.k2

    def min_eps(self) -> float:
        return 2.0 / self.n

    def mollifier(self, eps: float, shape: str = GAUSS) -> np.ndarray:
        """Spectral multiplier of the smoothing kernel at width eps.

        The argument is eps times the integer mode number, so the cutoff
        mode is 1/eps and the Nyquist condition is exactly eps >= 2/n.
        """
        x = (eps**2) * self.m2
        if shape == GAUSS:
            return np.exp(-x)
        if shape == QUARTIC:
            return np.exp(-(x**2))
        raise ValueError(f"unknown mollifier shape {shape!r}")

    def mode_variances(self, eps: float, shape: str = GAUSS) -> np.ndarray:
        """Equal-time variance per Fourier mode (zero mode dropped)."""
        if not -np.inf < eps < np.inf:
            raise ValueError(f"eps = {eps} is not a finite width")
        if eps < self.min_eps():
            raise ValueError(
                f"eps = {eps} below the resolvable width {self.min_eps()}"
            )
        mm = self.mollifier(eps, shape)
        np.square(mm, out=mm)
        k2 = self.k2
        # the zero mode is k2's own 0, which the division skips
        return np.divide(mm, k2, out=k2, where=k2 > 0)

    def sigma_k(self, eps: float, shape: str = GAUSS) -> np.ndarray:
        """Read-only half-spectrum standard deviation per mode, the square
        root of the first ``n_rfft`` columns of ``mode_variances``.

        Cached per (eps, shape), so call it only at the widths fields are
        sampled at; width searches and the full-grid sums use the uncached
        ``mode_variances``.
        """
        key = (eps, shape)
        sk = self._sigma_k.get(key)
        if sk is None:
            sk = np.sqrt(self.mode_variances(eps, shape)[:, : self.n_rfft])
            sk.flags.writeable = False
            self._sigma_k[key] = sk
        return sk

    def _heat_tables(self, dt: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only half-spectrum tables, cached per dt: the exponential-
        Euler (decay, gain) of the heat flow du = (1/2) Laplacian u dt + f dt,
        decay = e^x and gain = dt (e^x - 1) / x with x = -mu dt, and the
        kick sqrt(1 - decay^2) of the unit OU process damped like it."""
        tables = self._heat.get(dt)
        if tables is None:
            x = -self.mu[:, : self.n_rfft] * dt
            decay = np.exp(x)
            tables = (decay, dt * np.divide(np.expm1(x), x,
                                            out=np.ones_like(x),
                                            where=x != 0),
                      np.sqrt(1.0 - decay**2))
            for t in tables:
                t.flags.writeable = False
            self._heat[dt] = tables
        return tables


def step_rng(seed: int, sample: int, step: int) -> np.random.Generator:
    """Counter-based stream addressing one (sample, step) slot."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, 0, sample, step])
    )


def _step_rngs(seed: int):
    """``step_rng(seed, sample, step)`` for every slot from one Philox.

    Returns ``slot(sample, step)``, which re-keys that one generator to the
    slot through its state and returns it, with the draws of a fresh
    ``step_rng(seed, sample, step)``.  The generator is shared: a slot's
    draws are made before the next slot is asked for.
    """
    rng = step_rng(seed, 0, 0)
    state = rng.bit_generator.state      # key of seed, buffer still empty

    def slot(sample: int, step: int) -> np.random.Generator:
        state["state"]["counter"][2:] = sample, step
        rng.bit_generator.state = state
        return rng

    return slot


def white_spectral(lat: TorusLattice, rng: np.random.Generator,
                   out: np.ndarray | None = None, w: np.ndarray | None = None,
                   tmp: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum of real white noise, unit variance per mode.

    The standard normal draw is written into the real n-by-n ``w`` and its
    half-spectrum into ``out`` through the scratch ``tmp`` shaped like it;
    each is fresh unless given.
    """
    n = lat.n
    w = (rng.standard_normal((n, n)) if w is None
         else rng.standard_normal(out=w))
    if out is None:
        out = np.empty((n, lat.n_rfft), dtype=complex)
    _rfft2_into(w, out, np.empty_like(out) if tmp is None else tmp)
    out /= n
    return out


def _rfft2_into(x: np.ndarray, out: np.ndarray, tmp: np.ndarray
                ) -> np.ndarray:
    """``np.fft.rfft2(x)`` over the last two axes, bit for bit, written into
    ``out`` through the scratch ``tmp`` (both complex half-spectra): rfft2
    is these two passes, and neither allocates once given ``out``."""
    np.fft.rfft(x, axis=-1, out=tmp)
    return np.fft.fft(tmp, axis=-2, out=out)


def _irfft2_into(h: np.ndarray, out: np.ndarray, tmp: np.ndarray
                 ) -> np.ndarray:
    """``np.fft.irfft2(h, s=out.shape[-2:])`` written into the real ``out``,
    bit for bit, through the complex scratch ``tmp`` shaped like ``h``,
    which may be ``h`` itself (``irfft2`` drops ``out=`` in numpy 2.4 and
    ``irfftn`` allocates)."""
    np.fft.ifft(h, axis=-2, out=tmp)
    return np.fft.irfft(tmp, n=out.shape[-1], axis=-1, out=out)


def _ifft2_real(table: np.ndarray) -> np.ndarray:
    """``np.real(np.fft.ifft2(table))``, bit for bit, as ifft2's two 1-d
    passes (axis 1, then axis 0) in place in one complex copy of the n-by-n
    ``table``, where ``ifft2`` makes a fresh complex array per pass."""
    c = table.astype(complex)
    np.fft.ifft(c, axis=1, out=c)
    return np.fft.ifft(c, axis=0, out=c).real


def sigma2(lat: TorusLattice, eps: float, shape: str = GAUSS) -> float:
    """Exact lattice mode sum for the equal-time field variance."""
    return float(np.sum(lat.mode_variances(eps, shape)))


def covariance_table(lat: TorusLattice, eps: float, shape: str = GAUSS
                     ) -> np.ndarray:
    """Exact equal-time two-point function indexed by grid displacement."""
    return _ifft2_real(lat.mode_variances(eps, shape)) * lat.n**2


def renorm_constant(lat: TorusLattice, eps: float, beta_sq,
                    shape: str = GAUSS) -> float:
    """exp(beta^2 sigma^2 / 2) with beta^2 = beta_sq * pi."""
    beta2 = float(Fraction(beta_sq)) * np.pi
    return float(np.exp(0.5 * beta2 * sigma2(lat, eps, shape)))


def renorm_slope(lat: TorusLattice, eps_list, beta_sq) -> float:
    """Fitted slope of log C_eps against log eps, over at least two
    distinct widths."""
    if len(set(eps_list)) < 2:
        raise ValueError("need at least two distinct widths")
    logs = [np.log(renorm_constant(lat, e, beta_sq)) for e in eps_list]
    return float(np.polyfit(np.log(eps_list), logs, 1)[0])


def calibrate_width(lat: TorusLattice, eps_ref: float,
                    shape: str = QUARTIC) -> float:
    """Width for ``shape`` matching the variance of the Gaussian at eps_ref.

    Matching the exact lattice variances makes the two renormalization
    constants identical, isolating the mollifier-shape dependence.
    """
    target = sigma2(lat, eps_ref, GAUSS)
    lo, hi = lat.min_eps(), 1.0
    if not sigma2(lat, hi, shape) <= target <= sigma2(lat, lo, shape):
        raise ValueError(f"target variance of eps_ref = {eps_ref} not "
                         f"reachable at widths in [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:       # adjacent floats: neither end can move
            break
        if sigma2(lat, mid, shape) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- field sampling ----------------------------------------------------------


@dataclass
class GaussianField:
    """One stationary field realization, the ``rfft2`` half-spectrum
    sigma_k z of a unit-variance OU process z damped like the heat flow.
    Width and shape enter through sigma_k alone: one z serves them all."""

    lat: TorusLattice
    eps: float
    z: np.ndarray               # unit-variance half-spectrum, the OU state
    shape: str = GAUSS
    sigma_k: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sigma_k = self.lat.sigma_k(self.eps, self.shape)

    def real_space(self, out: np.ndarray | None = None,
                   tmp: np.ndarray | None = None) -> np.ndarray:
        """The real field, ``irfft2`` of sigma_k z times n^2, written into
        the real n-by-n ``out`` through the scratch ``tmp`` shaped like
        ``z``; each is fresh unless given."""
        n = self.lat.n
        if out is None:
            out = np.empty((n, n))
        spec = np.multiply(self.sigma_k, self.z,
                           out=np.empty_like(self.z) if tmp is None else tmp)
        _irfft2_into(spec, out, spec)
        out *= n**2
        return out

    def advance(self, white: np.ndarray, dt: float):
        """Exact equilibrium-preserving step of z, driven by the white-noise
        half-spectrum ``white``, which it overwrites.  The damping is the
        lattice's heat decay at ``dt``."""
        decay, _, kick = self.lat._heat_tables(dt)
        np.multiply(decay, self.z, out=self.z)
        self.z += np.multiply(kick, white, out=white)


def sample_phi(lat: TorusLattice, eps: float, seed: int, sample: int = 0,
               shape: str = GAUSS) -> GaussianField:
    """Equilibrium sample, deterministic in (seed, sample): z is the white
    noise of the Philox slot (seed, sample, 0)."""
    rng = step_rng(seed, sample, 0)
    return GaussianField(lat, eps, white_spectral(lat, rng), shape)


def _charges_into(t: np.ndarray, c_eps: float, d: np.ndarray, s: np.ndarray,
                  c: np.ndarray | None = None):
    """The charges C sin(2 t) into ``s`` and, when ``c`` is given,
    C cos(2 t) into ``c``, from the half angles ``t`` = beta Phi / 2.

    Both come from the tangent t = tan(beta Phi / 2), as 2 C t / d and
    C (1 - t)(1 + t) / d with d = 1 + t^2 in the scratch ``d``, since
    numpy's float64 ``tan`` has a SIMD kernel and ``sin`` and ``cos`` run
    through scalar libm.  The absolute error per value is a few ulps of C,
    poles of the tangent included, and a NaN or infinite angle gives NaN.
    ``t`` is overwritten; ``s`` may be ``t`` itself when no cosine is asked
    for.  All arrays are real and of one shape.
    """
    np.tan(t, out=t)
    np.multiply(t, t, out=d)
    d += 1.0
    np.multiply(t, 2.0 * c_eps, out=s)
    s /= d
    if c is not None:
        np.subtract(1.0, t, out=c)
        t += 1.0
        c *= t
        c *= c_eps
        c /= d


def wick_exponential(phi: np.ndarray, beta_sq, c_eps: float,
                     sign: int = +1, out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Unit-expectation chaos field C * exp(+-i beta Phi), written into the
    complex ``out`` shaped like ``phi`` through ``scratch``, three real
    arrays shaped like it (the half angles t and the tables d and s of
    ``_charges_into``); each is fresh unless given, and ``phi`` is not
    written."""
    beta = np.sqrt(float(Fraction(beta_sq)) * np.pi)
    t, d, s = np.empty((3,) + phi.shape) if scratch is None else scratch
    np.multiply(phi, 0.5 * beta, out=t)
    if out is None:
        out = np.empty(phi.shape, dtype=complex)
    _charges_into(t, c_eps, d, s, out.real)
    if sign < 0:
        np.negative(s, out=out.imag)
    else:
        out.imag = s
    return out


@dataclass
class ChaosStats:
    mean_re: float
    se_re: float
    mean_im: float
    se_im: float
    n_fields: int

    @property
    def within_3se(self) -> bool:
        return (abs(self.mean_re - 1.0) <= 3 * self.se_re
                and abs(self.mean_im) <= 3 * self.se_im)


def _chaos_mean_window(n_fields):
    # one field has no standard error
    yield ("fields", n_fields >= 2,
           f"n_fields = {n_fields}: need at least two fields")


def chaos_mean(lat: TorusLattice, eps: float, beta_sq, seed: int,
               n_fields: int = 64) -> ChaosStats:
    """Monte Carlo check of the unit-expectation normalization."""
    _refuse(_chaos_mean_window(n_fields))
    c_eps = renorm_constant(lat, eps, beta_sq)
    res, ims = [], []
    for s in range(n_fields):
        phi = sample_phi(lat, eps, seed, sample=s).real_space()
        xi = wick_exponential(phi, beta_sq, c_eps)
        res.append(float(np.mean(xi.real)))
        ims.append(float(np.mean(xi.imag)))
    res, ims = np.array(res), np.array(ims)
    return ChaosStats(
        float(res.mean()), float(res.std(ddof=1) / np.sqrt(n_fields)),
        float(ims.mean()), float(ims.std(ddof=1) / np.sqrt(n_fields)),
        n_fields,
    )


# --- correlation exponents ---------------------------------------------------


def translation_correlation(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(1/n^2) sum_y f(y) g(y+z), indexed by the displacement z."""
    n2 = f.size
    return np.fft.ifft2(np.conj(np.fft.fft2(np.conj(f))) * np.fft.fft2(g)) / n2


@dataclass
class CorrelationReport:
    radii: list
    opposite: list
    same: list
    opposite_slope: float
    same_slope: float
    product_slope: float

    def as_dict(self) -> dict:
        return asdict(self)


def dyadic_shifts(lat: TorusLattice, r_min: float, r_max: float) -> list[int]:
    out = []
    r = r_min
    while r <= r_max * (1 + 1e-9):
        out.append(int(round(r * lat.n)))
        r *= 2
    return out


_BAND_SHARE = 1e-14     # largest outer-band share of the coarse chaos power


def _fold(size: int, n: int) -> np.ndarray:
    """Index on an n grid of each frequency of a size grid (size <= n)."""
    return (np.fft.fftfreq(size) * size).astype(int) % n


def _chaos_spectra(lat: TorusLattice, var: np.ndarray, beta_sq, seed: int,
                   n_fields: int, amp: float, modes: int, want_same: bool):
    """Spectral products of the chaos amp * exp(-i beta Phi), summed over
    fields: returns (M, power, cross) with power = sum |a|^2 and, when
    ``want_same``, cross = sum a(k) a(-k), for a = fft2 of one field's chaos,
    both as n-by-n tables.  ``var`` is the field's full-grid
    ``mode_variances`` table, of which only the low block is read.

    Each field has only its modes |m| <= c = ``modes``, drawn from the
    white noise of the Philox slot (seed, sample, 0) on the smallest
    power-of-two grid M0 > 2c, where they do not alias and have the joint
    law of an n^2 draw's low modes; at M0 = n they are that draw's own.
    The chaos of such a field is band-limited to roundoff, so it is
    evaluated and its products summed on an M^2 grid, then zero-padded to
    n^2 and scaled by (n/M)^4.  M starts at the smallest power of two
    >= 4 (c + 1) and doubles while the outer band max(|q1|, |q2|) >= 3M/8
    holds more than ``_BAND_SHARE`` of field 0's power, or of the summed
    power.  M never exceeds n, and at M = n (always when 4c >= n) these
    are the full-grid sums.
    """
    n = lat.n
    size0 = min(n, 1 << max(2, (2 * modes).bit_length()))
    small = lat if size0 == n else TorusLattice(size0)
    cols = np.arange(small.n_rfft)
    sk_lo = np.where(small.m2[:, cols] <= modes**2,
                     np.sqrt(var[np.ix_(_fold(size0, n), cols)]), 0.0)
    size = min(n, 1 << (4 * modes + 3).bit_length())

    def draw(sample):
        return sk_lo * white_spectral(small, step_rng(seed, sample, 0))

    def spectra(size):
        """The map from a field's drawn modes to a = fft2 of its chaos on
        the M = ``size`` grid, in buffers allocated once for this M: each
        call overwrites the ``a`` it returns."""
        # M >= M0, so each drawn mode keeps its frequency on the M grid; the
        # table is zero past column len(cols), so the axis-0 pass runs on
        # those columns only: bit for bit irfft2 of the full table.
        tab = np.zeros((size, len(cols)), dtype=complex)
        rows = _fold(size0, size)
        phi = np.empty((size, size))
        a = np.empty((size, size), dtype=complex)
        scratch = np.empty((3, size, size))

        def spectrum(low):
            tab[rows] = low
            np.fft.irfft(np.fft.ifft(tab, axis=0), n=size, axis=1, out=phi)
            np.multiply(phi, size**2, out=phi)
            wick_exponential(phi, beta_sq, amp, sign=-1, out=a,
                             scratch=scratch)
            # fft2 as its two 1-d passes in place, last axis first
            np.fft.fft(a, axis=1, out=a)
            return np.fft.fft(a, axis=0, out=a)

        return spectrum

    def outer_share(power):
        q = np.abs(np.fft.fftfreq(len(power)) * len(power))
        band = np.maximum.outer(q, q) >= 3 * len(power) / 8
        return power[band].sum() / power.sum()

    low0, probing = draw(0), True
    while True:
        spectrum = spectra(size)
        power, sq = np.zeros((size, size)), np.empty((size, size))
        if want_same:
            cross = np.zeros((size, size), dtype=complex)
            rev, mirror = np.empty((2, size, size), dtype=complex)
            flip = (-np.arange(size)) % size
        else:
            cross = None
        for s in range(n_fields):
            a = spectrum(low0 if s == 0 else draw(s))
            if (not s and probing and size < n
                    and outer_share(np.abs(a)**2) > _BAND_SHARE):
                break           # field 0 alone says M is too small
            if want_same:       # a(k) a(-k), with a(-k) = a[flip][:, flip]
                np.take(a, flip, axis=0, out=rev)
                np.take(rev, flip, axis=1, out=mirror)
                cross += np.multiply(a, mirror, out=mirror)
            power += np.square(a.real, out=sq)
            power += np.square(a.imag, out=sq)
        else:
            probing = False
            if size == n or outer_share(power) <= _BAND_SHARE:
                break
        size *= 2
    if size < n:
        q = _fold(size, n)

        def pad(table):
            out = np.zeros((n, n), dtype=table.dtype)
            out[np.ix_(q, q)] = table * (n / size) ** 4
            return out

        power = pad(power)
        cross = pad(cross) if want_same else None
    return size, power, cross


def _correlation_slopes_window(lat, eps, shifts, n_fields, condition_modes):
    yield ("separation", not min(shifts) < 2 * eps * lat.n,
           "insufficient scale separation for the fit window")
    # a larger shell wraps around the torus
    yield ("wrap", max(shifts) <= lat.n / 2,
           f"shifts above n/2 = {lat.n // 2} cells wrap around the torus")
    # the shifts are the points of each fit
    yield "shifts", len(set(shifts)) >= 2, "need at least two distinct shifts"
    # the cutoff enters squared, so -c would run as c
    yield ("condition_modes", condition_modes is None or condition_modes >= 0,
           f"condition_modes = {condition_modes} is negative")
    yield ("fields", n_fields >= 1,
           f"n_fields = {n_fields}: need at least one field")


def correlation_slopes(lat: TorusLattice, eps: float, beta_sq, seed: int,
                       n_fields: int = 64, shifts=None, want_same: bool = True,
                       condition_modes: int | None = None
                       ) -> CorrelationReport:
    """Log-log fits of the two-charge correlations over a range of
    separations, averaged over radial shells and over fields.

    Opposite charges attract (negative exponent), same charges repel, and
    the two power laws are reciprocal, so the product's slope is compatible
    with zero; ``want_same=False`` skips the same-charge fit, whose signal
    is tiny at strong coupling.  The shifts, in cells, are by default the
    dyadic separations 2^-5 ... 2^-2.

    The estimator is conditional Monte Carlo on the modes |m| <= c =
    ``condition_modes`` >= 0 (None: every mode).  Modes above the cutoff are
    integrated out exactly (a deterministic Gaussian factor in each
    two-point function) and only the low-pass field is sampled
    (``_chaos_spectra``), so the estimator stays unbiased while the
    variance inflation from the fine modes, severe at strong coupling,
    disappears.  With every mode kept, the factor is 1 and the amplitude is
    ``renorm_constant``.
    """
    n = lat.n
    if shifts is None:
        shifts = dyadic_shifts(lat, 2.0**-5, 2.0**-2)
    _refuse(_correlation_slopes_window(lat, eps, shifts, n_fields,
                                       condition_modes))
    beta2 = float(Fraction(beta_sq)) * np.pi
    modes = n if condition_modes is None else condition_modes
    lo = lat.m2 <= modes**2
    sk2 = lat.mode_variances(eps)
    amp_lo = np.exp(0.5 * beta2 * float(np.where(lo, sk2, 0.0).sum()))
    # Both correlations are linear in per-field spectral products, so the
    # products are summed over fields, on the coarse grid of _chaos_spectra,
    # and inverted once on the n grid.  With a = fft2(conj xi):
    # translation_correlation(xi, conj xi) inverts |a|^2, and
    # translation_correlation(xi, xi) inverts conj(a(k) a(-k)).
    _, power_opp, cross_same = _chaos_spectra(
        lat, sk2, beta_sq, seed, n_fields, amp_lo, modes, want_same)
    # built after the field sum, so that it is not resident during it
    cov_hi = _ifft2_real(np.where(lo, 0.0, sk2)) * n**2
    scale = n * n * n_fields
    radius = np.sqrt(lat.m2)
    shells = [np.abs(radius - c) <= 0.5 for c in shifts]

    def profile(table):
        return [float(np.mean(table[sh])) for sh in shells]

    radii = [c / n for c in shifts]
    opp = profile(_ifft2_real(power_opp) / scale
                  * np.exp(beta2 * cov_hi))
    lr = np.log(radii)
    slope_o = float(np.polyfit(lr, np.log(opp), 1)[0])
    if want_same:
        same = profile(_ifft2_real(np.conj(cross_same)) / scale
                       * np.exp(-beta2 * cov_hi))
        slope_s = float(np.polyfit(lr, np.log(same), 1)[0])
        prod = float(np.polyfit(
            lr, np.log(np.array(opp) * np.array(same)), 1)[0])
    else:
        same, slope_s, prod = [], float("nan"), float("nan")
    return CorrelationReport(radii, opp, same, slope_o, slope_s, prod)


# --- dipole estimator --------------------------------------------------------


def bump_spectral(lat: TorusLattice, lam: float) -> np.ndarray:
    """Spectral multiplier of a unit-mass smooth bump of width ~lam."""
    return np.exp(-0.5 * (lam / 2.0) ** 2 * lat.k2)


class _HeatDriver:
    """Exponential-Euler integrator of du = (1/2) Laplacian u dt + f dt.

    u and f are real, or stacks of real fields; the half-spectrum ``u_hat``
    (zero unless given) is the driver's only own state, and ``step``
    updates it in place, leaving the forcing's half-spectrum in ``f_hat``.
    ``step`` and ``profile`` transform through ``_tmp``, free between
    steps.  ``scratch`` is the pair (``f_hat``, ``_tmp``), shaped like
    ``u_hat`` and fresh unless given: drivers stepped in turn may share
    both, and the next step of any of them then overwrites ``f_hat``.
    """

    def __init__(self, lat: TorusLattice, dt: float,
                 u_hat: np.ndarray | None = None, scratch=None):
        self.decay, self.gain, _ = lat._heat_tables(dt)
        shape = self.decay.shape if u_hat is None else u_hat.shape
        self.u_hat = np.zeros(shape, dtype=complex) if u_hat is None else u_hat
        self.f_hat, self._tmp = (np.empty((2,) + shape, dtype=complex)
                                 if scratch is None else scratch)

    def step(self, forcing: np.ndarray) -> None:
        _rfft2_into(forcing, self.f_hat, self._tmp)
        self.u_hat *= self.decay
        self.u_hat += np.multiply(self.gain, self.f_hat, out=self._tmp)

    def profile(self, out: np.ndarray) -> np.ndarray:
        """The real solution, ``irfft2`` of ``u_hat``, written into the real
        ``out``, n by n or a stack of them like ``u_hat``."""
        return _irfft2_into(self.u_hat, out, self._tmp)


def _imag_residues(u_hats: np.ndarray) -> np.ndarray:
    """max |Im ifft2(E)| of each half-spectrum of the stack ``u_hats`` (its
    last two axes), E the Hermitian extension of that half-spectrum.

    Only the self-conjugate columns 0 and n/2 can carry an anti-Hermitian
    part, entering at column offset y as g_0(x) + (-1)^y g_{n/2}(x), g_l
    the ifft of column l; so the residue is (1/n) max_x (|Im g_0(x)| +
    |Im g_{n/2}(x)|), and a stack reads its members' residues bit for bit.
    """
    n = u_hats.shape[-2]
    g = np.fft.ifft(u_hats[..., :: n // 2], axis=-2)
    return np.abs(g.imag).sum(axis=-1).max(axis=-1) / n


@dataclass
class DipoleConfig:
    beta_sq: object = Fraction(5)
    eps: float = 2.0**-5.5
    lambdas: tuple = (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5)
    dt: float = 2.0**-11
    t_burn: float = 0.06
    t_measure: float = 0.2
    n_samples: int = 12
    # unread; perfbench/workloads.py and test_perfbench.py still pass it
    n_counter: int = 12


@dataclass
class DipoleReport:
    lambdas: list
    second_moments: list
    stderrs: list
    ablation_moments: list
    slope: float
    ablation_slope: float
    mean_complex: complex
    n_samples: int

    @property
    def ablation_gap(self) -> float:
        return abs(self.slope - self.ablation_slope)

    def as_dict(self) -> dict:
        out = asdict(self)
        mean = out.pop("mean_complex")
        return dict(out, ablation_gap=self.ablation_gap, mean_re=mean.real,
                    mean_im=mean.imag)


def _dipole_trajectory(lat: TorusLattice, cfg: DipoleConfig, seed: int,
                       sample: int, collect, flow, scratch):
    """Run one stationary trajectory up to its last measured slice,
    invoking ``collect(m, flow, forcing)`` on each slice of
    ``_measured_steps``: its index m = 0, 1, ... among them, the one real
    flow of the stacked pair (u_c, u_s), u = u_c + i u_s, whose ``f_hat``
    holds the half-spectra of its forcing, and that forcing, the stacked
    components (c, s) = C (cos, sin)(beta Phi) of xi_plus.

    ``flow`` (reset here) and ``scratch`` = ((two real n-by-n arrays and a
    stacked pair of them), two half-spectra, such as the halves of the
    flow's free ``_tmp``) are the caller's, and each step overwrites them.
    Only differences of the profile enter the estimator, so its undamped
    mean is projected out after each step; ``f_hat`` keeps its zero modes.
    """
    beta = np.sqrt(float(Fraction(cfg.beta_sq)) * np.pi)
    c_eps = renorm_constant(lat, cfg.eps, cfg.beta_sq)
    fld = sample_phi(lat, cfg.eps, seed, sample)
    rng = _step_rngs(seed)
    (x, d, forcing), (white, tmp) = scratch
    flow.u_hat[...] = 0.0
    steps = _measured_steps(cfg)
    for step in range(steps[-1] + 1):
        fld.real_space(x, tmp)
        x *= 0.5 * beta
        _charges_into(x, c_eps, d, forcing[1], forcing[0])
        flow.step(forcing)
        flow.u_hat[:, 0, 0] = 0.0
        fld.advance(white_spectral(lat, rng(sample, step + 1), white, x, tmp),
                    cfg.dt)
        if step >= steps[0]:
            collect(step - steps[0], flow, forcing)


def _measured_steps(cfg: DipoleConfig) -> np.ndarray:
    """Step indices of the slices ``_dipole_trajectory`` collects."""
    n_burn = round(cfg.t_burn / cfg.dt)
    return n_burn + np.arange(round(cfg.t_measure / cfg.dt))


def _block_lengths(cfg: DipoleConfig) -> list[int]:
    return [max(1, int(round(lam**2 / (4.0 * cfg.dt)))) for lam in cfg.lambdas]


def dipole_counterterm(lat: TorusLattice, cfg: DipoleConfig) -> list[float]:
    """Exact counterterm kappa_lambda for each lambda in ``cfg.lambdas``.

    The field is an exact OU process damped like the heat flow, so at lag l
    its covariance is Gamma_l = n^2 irfft2(sigma_k^2 decay^l) and the chaos
    pair correlation is exp(beta^2 Gamma_l).  The mean over measured slices
    m of E[u_hat(m) conj f_hat(m)] sums over lags that spectrum times
    decay^l gain and the share of slices at step >= l.  kappa smears it by
    1 - psi_lambda, which vanishes on the zero mode that u lacks.
    """
    n, half = lat.n, lat.n_rfft
    beta2 = float(Fraction(cfg.beta_sq)) * np.pi
    decay, gain, _ = lat._heat_tables(cfg.dt)
    var = lat.mode_variances(cfg.eps)[:, :half]
    steps = _measured_steps(cfg)
    q = np.ones_like(decay)                         # decay^lag
    spec = np.zeros(q.shape, dtype=complex)
    # each lag's terms, in buffers reused by every lag
    weight, gamma = np.empty_like(q), np.empty((n, n))
    var_q, pair, tmp = (np.empty_like(spec) for _ in range(3))
    for lag in range(steps[-1] + 1):
        _irfft2_into(np.multiply(var, q, out=var_q), gamma, tmp)
        gamma *= n**2
        gamma *= beta2
        _rfft2_into(np.exp(gamma, out=gamma), pair, tmp)
        np.multiply(q, np.count_nonzero(steps >= lag), out=weight)
        spec += np.multiply(weight, pair, out=pair)
        q *= decay
    spec *= gain * n**2 / len(steps)
    return [float(np.fft.irfft2((1 - bump_spectral(lat, lam)[:, :half]) * spec,
                                s=(n, n))[0, 0]) / n**2 for lam in cfg.lambdas]


def _dipole_moment_window(lat, cfg):
    beta2 = float(Fraction(cfg.beta_sq)) * np.pi
    yield ("coupling", 4 * np.pi < beta2 < 16 * np.pi / 3,
           "dipole scaling window requires beta^2 in (4pi, 16pi/3)")
    yield ("dt", 0 < cfg.dt < np.inf,
           f"time step dt = {cfg.dt} must be positive and finite")
    yield ("lattice_dt", cfg.dt == lat.dt,
           f"time step dt = {cfg.dt} is not the lattice's {lat.dt}")
    yield ("lambdas", len(set(cfg.lambdas)) >= 2,
           "need at least two distinct lambdas")
    yield ("lambda_floor", not min(cfg.lambdas) * lat.n < 4,
           "smallest lambda is below 4 grid cells")
    # one time block has no standard error
    n_slices = len(_measured_steps(cfg))
    for lam, w in zip(cfg.lambdas, _block_lengths(cfg)):
        yield ("blocks", n_slices // w >= 2,
               f"lambda = {lam}: t_measure holds {n_slices} measured slices, "
               f"fewer than 2 time blocks of {w}")
    yield ("samples", cfg.n_samples >= 1,
           f"n_samples = {cfg.n_samples}: need at least one sample")


def dipole_moment(lat: TorusLattice, cfg: DipoleConfig, seed: int
                  ) -> DipoleReport:
    """Second moment of the renormalized dipole observable across scales.

    The observable pairs the negative-charge chaos against the increment of
    the heat-flow profile driven by the positive charge, subtracts the
    exact counterterm of ``dipole_counterterm``, and is smeared by a
    unit-mass bump of width ~lambda in space and a time window of the
    matching parabolic length.  The reported slope is the log-log fit of
    the spatially averaged second moment against lambda; the ablation runs
    the identical estimator without the counterterm.

    The steps must resolve the chaos decorrelation time: with dt much
    larger than eps^2 the time-Riemann sum picks up a same-cell term of
    size ~C_eps^2 that masquerades as extra small-scale mass and steepens
    the fitted slope.
    """
    _refuse(_dipole_moment_window(lat, cfg))
    lambdas, windows = list(cfg.lambdas), _block_lengths(cfg)
    kappas = dipole_counterterm(lat, cfg)
    n = lat.n
    # complex, as each product with a half-spectrum would cast them anyway
    psi_hats = [bump_spectral(lat, lam)[:, : lat.n_rfft].astype(complex)
                for lam in lambdas]

    sq_blocks = [[] for _ in lambdas]     # renormalized |.|^2 per time block
    ab_blocks = [[] for _ in lambdas]     # ablated |.|^2 per time block
    means = []               # mean(ren) per time block of the first lambda
    # Per lambda, the open time block sums the half-spectra of (Re, Im) of
    # xi_- u = (c u_c + s u_s) + i (c u_s - s u_c), inverted once when it
    # closes, and (Re, Im) of the products (psi * xi_-) u, where psi * xi_-
    # = conj(psi * xi_plus) = p[0] - i p[1] because psi is real and even.
    g_sums = np.empty((len(lambdas), 2, n, lat.n_rfft), dtype=complex)
    local_sums = np.empty((len(lambdas), 2, n, n))
    # collect's profile pair, psi-filtered forcing pair and two products
    u, p, (a, b) = np.empty((3, 2, n, n))
    u_c, u_s = u

    def parts(p, q):
        """(Re, Im) of (p - i q) u in turn, each in the buffer ``a``."""
        yield np.add(np.multiply(p, u_c, out=a), np.multiply(q, u_s, out=b),
                     out=a)
        yield np.subtract(np.multiply(p, u_s, out=a),
                          np.multiply(q, u_c, out=b), out=a)

    def collect(m, flow, forcing):
        """Add measured slice m of a trajectory to each lambda's open time
        block, and close the blocks it ends.  lambda_i's blocks are the
        slices [j w_i, (j + 1) w_i), so the block a trajectory leaves open
        at its end is dropped: slice 0 of the next one opens a new block."""
        spec, tmp = work = flow._tmp       # free between steps
        for i, w in enumerate(windows):
            if m % w == 0:
                g_sums[i] = local_sums[i] = 0.0
        flow.profile(u)
        for k, part in enumerate(parts(*forcing)):
            g_sums[:, k] += _rfft2_into(part, spec, tmp)
        for i, (ph, w) in enumerate(zip(psi_hats, windows)):
            _irfft2_into(np.multiply(ph, flow.f_hat, out=work), p, work)
            for k, part in enumerate(parts(*p)):
                local_sums[i, k] += part
            if (m + 1) % w == 0:
                re, im = p                # free until the next slice
                for g, loc, out in zip(g_sums[i], local_sums[i], p):
                    _irfft2_into(np.multiply(ph, g, out=spec), out, tmp)
                    out -= loc
                    out /= w
                ren = np.subtract(re, kappas[i], out=a)
                if i == 0:
                    means.append(complex(np.mean(ren), np.mean(im)))
                im2 = np.square(im, out=b)
                sq_blocks[i].append(float(np.mean(
                    np.add(np.square(ren, out=a), im2, out=a))))
                ab_blocks[i].append(float(np.mean(
                    np.add(np.square(re, out=a), im2, out=a))))

    flow = _HeatDriver(lat, cfg.dt, np.zeros_like(g_sums[0]))   # (u_c, u_s)
    scratch = (*np.empty((2, n, n)), np.empty((2, n, n))), flow._tmp
    for sample in range(cfg.n_samples):
        _dipole_trajectory(lat, cfg, seed, sample, collect, flow, scratch)

    moments = [float(np.mean(v)) for v in sq_blocks]
    errs = [float(np.std(v, ddof=1) / np.sqrt(len(v))) for v in sq_blocks]
    ab_moments = [float(np.mean(v)) for v in ab_blocks]
    ll = np.log(lambdas)
    slope = float(np.polyfit(ll, np.log(moments), 1)[0])
    ab_slope = float(np.polyfit(ll, np.log(ab_moments), 1)[0])
    return DipoleReport(lambdas, moments, errs, ab_moments, slope, ab_slope,
                        sum(means, 0j) / len(means), cfg.n_samples)


# --- the shifted equation ----------------------------------------------------


@dataclass
class PDEResult:
    times: list
    snapshots: list          # real-space fields at the recorded times
    max_imag: float          # largest |Im ifft2| of the solution (roundoff)

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


def _width_forcings(lat: TorusLattice, beta_sq, widths) -> list:
    """Per (width, shape) of ``widths``, the pair (C, n^2 sigma_k) that
    forces that width in ``_shifted_steps``: its renormalization constant,
    and the rfft2 of its field per unit of z (n^2 scales exactly)."""
    return [(renorm_constant(lat, w, beta_sq, sh),
             lat.n**2 * lat.sigma_k(w, sh)) for w, sh in widths]


def _shifted_steps(lat: TorusLattice, beta_sq, seed: int, widths, forcings,
                   t_end: float, u_hats: np.ndarray, scratch):
    """Steps of lat.dt of the shifted equation at each (width, shape) of
    ``widths``, forced by its pair of ``forcings`` (``_width_forcings``),
    from the half-spectra of the stack ``u_hats``, stepped in place; yields
    (step, n_steps) after each step.  ``scratch`` = (two real n-by-n
    arrays, two half-spectra) is the caller's, overwritten by each step and
    free between yields.  Every width's Phi is sigma_k z for the one z of
    sample 0 of ``seed``.  The reaction Im(e^{i beta v} C e^{i beta Phi})
    is the real C sin(beta (Phi + v)), from one inverse of the summed
    half-spectra.
    """
    dt = lat.dt
    n_steps = int(round(t_end / dt))
    beta = np.sqrt(float(Fraction(beta_sq)) * np.pi)
    fld = sample_phi(lat, widths[0][0], seed, shape=widths[0][1])
    rng = _step_rngs(seed)
    # every flow steps through one forcing half-spectrum and one scratch
    (x, d), (spare, tmp) = scratch
    drivers = [_HeatDriver(lat, dt, u_hat, (spare, tmp)) for u_hat in u_hats]
    for step in range(1, n_steps + 1):
        for driver, (c_eps, scale) in zip(drivers, forcings):
            phi_v = np.multiply(scale, fld.z, out=spare)
            phi_v += driver.u_hat
            _irfft2_into(phi_v, x, tmp)
            x *= 0.5 * beta
            _charges_into(x, c_eps, d, x)
            driver.step(x)
        fld.advance(white_spectral(lat, rng(0, step), spare, x, tmp), dt)
        yield step, n_steps


def _shifted_window(lat, beta_sq, t_end):
    # below 4 pi the Da Prato-Debussche expansion closes at first order
    yield ("coupling", float(Fraction(beta_sq)) < 4.0,
           "pde solver requires beta^2 < 4*pi")
    yield "t_end", -np.inf < t_end < np.inf, f"t_end = {t_end} is not finite"
    yield ("steps", not t_end / lat.dt <= 0.5,     # round(x) >= 1 iff x > 1/2
           f"t_end = {t_end} rounds to no step of dt = {lat.dt}")


def _solve_pde_window(lat, beta_sq, t_end, v0, record_every):
    yield ("v0_shape", v0.shape == (lat.n, lat.n),
           f"v0 has shape {v0.shape}, not ({lat.n}, {lat.n})")
    yield ("record_every", record_every is None or record_every >= 1,
           f"record_every = {record_every} is below 1")
    yield from _shifted_window(lat, beta_sq, t_end)


def solve_pde(lat: TorusLattice, eps: float, beta_sq, seed: int,
              t_end: float, v0: np.ndarray | None = None,
              record_every: int | None = None) -> PDEResult:
    """The shifted equation of ``_shifted_steps`` at the Gaussian width
    eps, from ``v0`` (n-by-n, zero unless given), recorded every
    ``record_every`` >= 1 steps (None: none but the last) and after the
    last step."""
    n = lat.n
    v0 = np.zeros((n, n)) if v0 is None else np.asarray(v0, dtype=float)
    _refuse(_solve_pde_window(lat, beta_sq, t_end, v0, record_every))
    u_hats = np.fft.rfft2(v0)[None]
    widths = [(eps, GAUSS)]
    forcings = _width_forcings(lat, beta_sq, widths)
    scratch = np.empty((2, n, n)), np.empty((2, n, lat.n_rfft), dtype=complex)
    times, snaps, max_imag = [0.0], [np.fft.irfft2(u_hats[0], s=(n, n))], 0.0
    for step, n_steps in _shifted_steps(lat, beta_sq, seed, widths, forcings,
                                        t_end, u_hats, scratch):
        max_imag = max(max_imag, float(_imag_residues(u_hats[0])))
        if step % (record_every or n_steps) == 0 or step == n_steps:
            times.append(step * lat.dt)
            snaps.append(np.fft.irfft2(u_hats[0], s=(n, n)))
    return PDEResult(times, snaps, max_imag)


@dataclass
class ConvergenceReport:
    eps_list: list
    swap_eps: float
    d_values: list          # mean over seeds of sup-distance per dyadic pair
    ratios: list
    swap_gap: float
    max_imag: float
    n_seeds: int
    stderrs: list = field(default_factory=list)   # seed-to-seed SE of each d

    @property
    def ratios_ok(self) -> bool:
        return bool(self.ratios) and all(r <= 0.85 for r in self.ratios)

    @property
    def swap_ok(self) -> bool:
        return bool(self.swap_gap <= 2.0 * self.d_values[-1])

    def as_dict(self) -> dict:
        return {
            "eps_list": [float(e) for e in self.eps_list],
            "swap_eps": float(self.swap_eps),
            "d_values": [float(d) for d in self.d_values],
            "ratios": [float(r) for r in self.ratios],
            "ratios_ok": self.ratios_ok,
            "swap_gap": float(self.swap_gap),
            "swap_ok": self.swap_ok,
            "max_imag": float(self.max_imag),
            "n_seeds": self.n_seeds,
        }


def _convergence_study_window(lat, beta_sq, eps_list, seeds, t_end):
    yield "widths", len(eps_list) >= 2, "need at least two widths"
    yield ("cascade", not any(abs(a / b - 2.0) > 1e-9
                              for a, b in zip(eps_list, eps_list[1:])),
           "widths must form a dyadic cascade")
    yield "seeds", len(seeds) >= 1, "need at least one seed"
    yield from _shifted_window(lat, beta_sq, t_end)


def convergence_study(lat: TorusLattice, beta_sq, eps_list, seeds,
                      t_end: float = 0.25) -> ConvergenceReport:
    """Cauchy-in-width study with common driving noise across widths, in
    steps of lat.dt.

    For each seed, ``_shifted_steps`` solves at all widths, plus one
    quartic mollifier whose width matches the finest variance.  d is the
    sup, over the states after the steps of the last three quarters, of the
    difference between solutions at consecutive widths, and the swap gap
    is that of the finest Gaussian and the quartic; a NaN solution reaches
    the sup.
    """
    eps_list, seeds = sorted(eps_list, reverse=True), list(seeds)
    _refuse(_convergence_study_window(lat, beta_sq, eps_list, seeds, t_end))
    swap_eps = calibrate_width(lat, eps_list[-1], QUARTIC)
    widths = [(w, GAUSS) for w in eps_list] + [(swap_eps, QUARTIC)]
    forcings = _width_forcings(lat, beta_sq, widths)     # shared by the seeds
    # the dyadic neighbours, then the swap pair (finest Gaussian, quartic)
    pairs = [(j, j + 1) for j in range(len(eps_list))]
    n = lat.n
    sups = np.zeros((len(seeds), len(pairs)))     # per seed, per pair
    max_imag = 0.0
    # one solution stack and one scratch, allocated once, serve every seed
    u_hats = np.empty((len(widths), n, lat.n_rfft), dtype=complex)
    scratch = np.empty((2, n, n)), np.empty((2, n, lat.n_rfft), dtype=complex)
    (x, _), (spare, tmp) = scratch
    dists = np.empty(len(pairs))
    for sup, seed in zip(sups, seeds):
        u_hats[...] = 0.0
        for step, n_steps in _shifted_steps(lat, beta_sq, seed, widths,
                                            forcings, t_end, u_hats, scratch):
            if step > round(0.25 * n_steps):
                for k, (a, b) in enumerate(pairs):
                    _irfft2_into(np.subtract(u_hats[a], u_hats[b], out=spare),
                                 x, tmp)
                    dists[k] = np.abs(x, out=x).max()
                np.maximum(sup, dists, out=sup)
            max_imag = max(max_imag, *_imag_residues(u_hats).tolist())
    d_vals = list(sups[:, :-1].mean(axis=0))
    ratios = [d_vals[j + 1] / d_vals[j] for j in range(len(d_vals) - 1)]
    errs = (sups[:, :-1].std(axis=0, ddof=1) / np.sqrt(len(seeds))
            if len(seeds) > 1 else np.full(len(d_vals), np.nan))
    return ConvergenceReport(eps_list, swap_eps, d_vals, ratios,
                             float(sups[:, -1].mean()), max_imag, len(seeds),
                             errs.tolist())
