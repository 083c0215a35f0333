"""Spectral grids, transforms, diagonal operator algebra and Sobolev norms.

Two bases are supported:

* ``FOURIER2D`` -- the doubly periodic square (0, 2)^2, real-to-complex FFT
  storage (``scipy.fft.rfft2`` layout).  Wavenumbers k = pi*n per direction.
* ``SINE1D`` -- the Dirichlet interval (-1, 1), DST-I basis
  phi_j(x) = sin(j*pi*(x+1)/2) sampled at the N interior points of a uniform
  grid with spacing h = 2/(N+1).  Wavenumbers k_j = j*pi/2.

The domain is fixed by the basis; a grid is its basis plus its extents.
Spectral coefficients are stored normalized so that a coefficient is the
amplitude of its basis function: a constant field has Fourier coefficient
(0,0) equal to that constant, and sin(j*pi*(x+1)/2) has sine coefficient 1
at mode j.  With the uniform-grid quadrature

    (f, g) = cell_volume * sum_i f_i * g_i

discrete Parseval holds exactly for both bases, so physical and spectral
inner products agree to rounding; :func:`inner` and the norms are computed
from the coefficients, each as one dot product against a weighted symbol.
Sums of fields are always formed from the coefficients, so adding a field
that already holds them costs no transform.

In the rfft2 layout the self-conjugate columns (ky = 0 and Nyquist) store
both modes kx and -kx, which for a real field must be complex conjugates.
That Hermitian symmetry is enforced in one place, :meth:`Field.from_spectral`,
the entry point for caller-supplied coefficients.  Coefficients produced
here need no repair: ``rfft2`` of real data is Hermitian, and every diagonal
operator (``k2``, the dealias mask, the symbols built from them) is real
(held as r + 0j where it meets complex coefficients) and even in kx, so
multiplying or dividing by it keeps the symmetry; and ``irfft2`` reads only
the Hermitian part in any case.

Grids precompute wavenumber tables, quadrature weights and dealiasing masks
at construction and are immutable afterwards, hence safe for concurrent use.
The tables that multiply coefficients are held in the coefficient dtype:
numpy casts a real table to r + 0j on each product anyway, so the bits are
the same and the cast is gone.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy import fft as _fft

__all__ = [
    "Basis",
    "Grid",
    "Field",
    "SavError",
    "SettingError",
    "apply_symbol",
    "solve_shifted",
    "sobolev_norm",
    "quadratic_form",
    "dealias",
    "pointwise_map",
    "inner",
    "integrate",
    "sine_derivative_values",
]


class SavError(Exception):
    """The base of every error the package raises; `exit_code` is the CLI's exit status for it."""

    exit_code = 1


class SettingError(SavError, ValueError):
    """A setting or argument outside its domain; `setting` names the parameter."""

    def __init__(self, setting: str, message: str):
        super().__init__(message)
        self.setting = setting


def _real(name: str, value) -> float:
    """`value` as a float: an int, a float or a numpy real scalar, not a bool or a str,
    that a float can hold; else a SettingError on `name`, which prints no huge int."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise SettingError(name, f"{name} must be a real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SettingError(name, f"{name} must fit a float, got an integer of "
                                 f"{value.bit_length()} bits") from None


def _integer(name: str, value, kind: str = "an integer") -> int:
    """`value` as an int: an int or a numpy integer, not a bool, that Python can print;
    else a SettingError on `name`, which names a longer int by its bit length."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SettingError(name, f"{name} must be {kind}, got {type(value).__name__}")
    try:  # through its digits, so that an int a site's message could not print stops here
        return int(str(value))
    except ValueError:
        raise SettingError(name, f"{name}: an int of {value.bit_length()} bits, too long to print") from None


def _check_positive(name: str, value: float) -> None:
    if not (0 < _real(name, value) < math.inf):  # false for nan too
        raise SettingError(name, f"{name} must be positive and finite, got {value!r}")


def _check_non_negative(name: str, value: float) -> None:
    if not (0 <= _real(name, value) < math.inf):  # false for nan too
        raise SettingError(name, f"{name} must be non-negative and finite, got {value!r}")


class Basis(enum.Enum):
    FOURIER2D = "fourier2d"
    SINE1D = "sine1d"


class Grid:
    """Immutable description of a discretization: a basis and its extents.

    The domain is fixed by the basis: the square (0, 2)^2 for FOURIER2D, the
    interval (-1, 1) for SINE1D.  Use the :meth:`fourier2d` / :meth:`sine1d`
    constructors.  All derived arrays (points, wavenumbers, multiplicities,
    dealias mask) are computed once here and must be treated as read-only;
    `coeff_dtype` is complex128 on FOURIER2D and float64 on SINE1D.
    """

    __slots__ = (
        "basis", "extents", "points", "spectral_shape", "coeff_dtype", "cell_volume", "volume",
        "k2", "dealias_mask", "_mult", "_norm_factor", "_sobolev_weights",
    )

    def __init__(self, basis: Basis, extents: tuple[int, ...]):
        self.basis = basis
        if not np.iterable(extents):
            raise SettingError("extents", f"extents must be a sequence, got {type(extents).__name__}")
        self.extents = extents = tuple(_integer("extents", n, "positive integers") for n in extents)
        if not all(n > 0 for n in extents):
            raise SettingError("extents", f"extents must be positive integers, got {extents}")
        if 16 * math.prod(extents) > np.iinfo(np.intp).max:  # numpy's largest complex array
            raise SettingError("extents", f"extents {extents} exceed numpy's largest array")

        if basis is Basis.FOURIER2D:
            if len(extents) != 2:
                raise SettingError("extents", "FOURIER2D grids are two-dimensional")
            if any(n % 2 for n in self.extents):
                raise SettingError("extents", f"FOURIER2D extents must be even, got {extents}")
            nx, ny = self.extents
            lx = ly = 2.0
            hx, hy = lx / nx, ly / ny
            kx = 2.0 * np.pi * _fft.fftfreq(nx, d=hx)
            ky = 2.0 * np.pi * _fft.rfftfreq(ny, d=hy)
            self.k2 = kx[:, None] ** 2 + ky[None, :] ** 2
            self.spectral_shape = (nx, ny // 2 + 1)
            self.coeff_dtype = np.dtype(np.complex128)
            # conjugate-pair multiplicity of the rfft2 layout
            mult = np.ones(self.spectral_shape, dtype=self.coeff_dtype)
            mult[:, 1:-1] = 2.0
            self._mult = mult
            ix = np.abs(np.rint(_fft.fftfreq(nx) * nx)).astype(int)
            iy = np.arange(ny // 2 + 1)
            cut_x = 2.0 * (nx // 2) / 3.0
            cut_y = 2.0 * (ny // 2) / 3.0
            mask = (ix[:, None] <= cut_x) & (iy[None, :] <= cut_y)
            self.cell_volume = hx * hy
            self.volume = lx * ly
            self.points = np.meshgrid(hx * np.arange(nx), hy * np.arange(ny), indexing="ij")
            self._norm_factor = self.volume
        elif basis is Basis.SINE1D:
            if len(extents) != 1:
                raise SettingError("extents", "SINE1D grids are one-dimensional")
            (n,) = self.extents
            a, length = -1.0, 2.0
            h = length / (n + 1)
            j = np.arange(1, n + 1)
            kj = j * np.pi / length
            self.k2 = kj ** 2
            self.spectral_shape = self.extents
            self.coeff_dtype = np.dtype(np.float64)
            self._mult = np.ones(n)
            mask = j <= 2.0 * n / 3.0
            self.cell_volume = h
            self.volume = length
            self.points = (a + h * np.arange(1, n + 1),)
            # L2 norm of each basis function: integral of sin^2 over (-1, 1)
            self._norm_factor = length / 2.0
        self.dealias_mask = mask.astype(self.coeff_dtype)
        for arr in (self.k2, self.dealias_mask, self._mult):
            arr.setflags(write=False)
        self._sobolev_weights = {}

    @classmethod
    def fourier2d(cls, nx: int, ny: int | None = None) -> "Grid":
        """An nx x ny periodic grid on (0, 2)^2; square when ny is omitted."""
        return cls(Basis.FOURIER2D, (nx, ny if ny is not None else nx))

    @classmethod
    def sine1d(cls, n: int) -> "Grid":
        """n interior points of a uniform Dirichlet grid on (-1, 1)."""
        return cls(Basis.SINE1D, (n,))

    def _sobolev_weight(self, s: float) -> np.ndarray:
        """Per-mode weight of the H^s norm, multiplicity * (1 + |k|^2)^s.

        Built once per exponent and read-only like the other tables; filling
        the cache twice under a race stores equal arrays.
        """
        w = self._sobolev_weights.get(s)
        if w is None:
            w = self._mult * (1.0 + self.k2) ** s
            w.setflags(write=False)
            self._sobolev_weights[s] = w
        return w

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.basis, self.extents) == (other.basis, other.extents)

    def __hash__(self) -> int:
        return hash((self.basis, self.extents))

    def __repr__(self) -> str:
        return f"Grid({self.basis.value}, extents={self.extents})"


def _hermitianize(coeffs: np.ndarray, nx: int) -> np.ndarray:
    """Enforce the row symmetry of the self-conjugate rfft2 columns."""
    out = np.array(coeffs, dtype=complex, copy=True)
    idx = (-np.arange(nx)) % nx
    for col in (0, out.shape[1] - 1):
        out[:, col] = 0.5 * (out[:, col] + np.conj(out[idx, col]))
    return out


# the transforms, one per basis and direction plus the derivative's DCT-I; each looks
# `_fft` up when it runs, so a patched `scipy.fft` sees every call
def _fourier_forward(values: np.ndarray) -> np.ndarray:
    return _fft.rfft2(values, norm="forward")


def _fourier_inverse(coeffs: np.ndarray) -> np.ndarray:
    return _fft.irfft2(coeffs, norm="forward")  # even extents: the grid's shape


def _sine_forward(values: np.ndarray) -> np.ndarray:
    return _fft.dst(values, type=1) / (values.shape[0] + 1)


def _sine_inverse(coeffs: np.ndarray) -> np.ndarray:
    return _fft.dst(coeffs, type=1) / 2.0


def _cosine_values(padded: np.ndarray) -> np.ndarray:
    return _fft.dct(padded, type=1)


def _to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The coefficients of physical values, a new array."""
    return (_fourier_forward if grid.basis is Basis.FOURIER2D else _sine_forward)(values)


class Field:
    """A real grid function with lazily synchronized physical and spectral data.

    At least one representation is valid at all times; the other is computed
    on demand and cached.  Fields are value types: arithmetic returns new
    fields and stored arrays must not be mutated.
    """

    __slots__ = ("grid", "_phys", "_spec")

    def __init__(self, grid: Grid, physical: np.ndarray | None = None, spectral: np.ndarray | None = None):
        if physical is None and spectral is None:
            raise SettingError("physical", "a Field needs a physical or a spectral array")
        self.grid = grid
        self._phys = physical
        self._spec = spectral

    @classmethod
    def from_physical(cls, grid: Grid, values) -> "Field":
        arr = np.asarray(values, dtype=float)
        if arr.shape != grid.extents:
            raise SettingError(
                "values", f"physical shape {arr.shape} does not match grid extents {grid.extents}")
        return cls(grid, physical=arr)

    @classmethod
    def from_spectral(cls, grid: Grid, coeffs) -> "Field":
        fourier = grid.basis is Basis.FOURIER2D
        arr = np.asarray(coeffs, dtype=grid.coeff_dtype)
        if arr.shape != grid.spectral_shape:
            raise SettingError(
                "coeffs", f"spectral shape {arr.shape} does not match grid {grid.spectral_shape}")
        return cls(grid, spectral=_hermitianize(arr, grid.extents[0]) if fourier else arr)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        """Exact zeros in both representations, so neither costs a transform; read-only, to share."""
        phys, spec = np.zeros(grid.extents), np.zeros(grid.spectral_shape, grid.coeff_dtype)
        phys.setflags(write=False)
        spec.setflags(write=False)
        return cls(grid, phys, spec)

    # -- representation access -------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        if self._phys is None:
            fourier = self.grid.basis is Basis.FOURIER2D
            self._phys = (_fourier_inverse if fourier else _sine_inverse)(self._spec)
        return self._phys

    @property
    def coeffs(self) -> np.ndarray:
        if self._spec is None:
            self._spec = _to_spectral(self.grid, self._phys)
        return self._spec

    def mean(self) -> float:
        """The mean over the domain; on a Fourier grid the (0, 0) coefficient."""
        if self.grid.basis is Basis.FOURIER2D:
            return self.coeffs.item(0).real
        return float(self.values.sum() * self.grid.cell_volume / self.grid.volume)

    def max_abs(self) -> float:
        """The held array's largest |entry|, or |re| or |im| if complex, whatever its layout;
        nan if it holds a nan.

        The larger of its max and -min, so no |entry| array is made; both reductions
        read nan if it holds one, and + 0.0 turns the -0.0 of an all-zero array into 0.0."""
        arr = self._phys if self._phys is not None else self._spec
        if arr.dtype.kind == "c":  # a real loop, not a hypot per entry
            arr = np.ascontiguousarray(arr).view(arr.real.dtype)
        return max(float(np.maximum.reduce(arr, axis=None)),
                   -float(np.minimum.reduce(arr, axis=None))) + 0.0

    # -- arithmetic -------------------------------------------------------------

    def _binary(self, other, op):
        if not isinstance(other, Field):
            return NotImplemented
        if self.grid != other.grid:
            raise SettingError("other", f"fields live on different grids: {self.grid} vs {other.grid}")
        return Field(self.grid, spectral=op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, np.floating)):
            return NotImplemented
        s = float(scalar)
        phys = None if self._phys is None else s * self._phys
        spec = None if self._spec is None else s * self._spec
        return Field(self.grid, physical=phys, spectral=spec)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def __repr__(self) -> str:
        reps = "".join(r for r, v in (("P", self._phys), ("S", self._spec)) if v is not None)
        return f"Field({self.grid!r}, reps={reps})"


# -- diagonal operator algebra ----------------------------------------------------


def apply_symbol(symbol, f: Field) -> Field:
    """Apply a diagonal (Fourier/sine multiplier) operator to a field.

    The symbol must be real and even in kx, like every symbol built from
    the grid's tables, so the result stays Hermitian.
    """
    return Field(f.grid, spectral=symbol * f.coeffs)


#: (shift, symbol, coefficient dtype, factor, ufunc) of the last positive solve of a read-only symbol
_last_solve: tuple = (None, None, None, None, None)


def solve_shifted(shift: float, op_symbol, rhs: Field, overwrite_rhs: bool = False) -> Field:
    """Solve (shift + A) x = rhs for a diagonal operator A given by its symbol.

    Every mode denominator d = shift + symbol must be strictly positive.
    Complex coefficients are multiplied by fl(1/d) + 0j: numpy divides
    a + bi by a real d as (a + b*0) * fl(1/d), so only the sign of a zero
    part can differ.  Real ones are divided, as a * fl(1/d) != a / d there.
    A time loop solves with one shift and one symbol step after step, so
    that factor, checked positive, is kept for the last read-only symbol,
    which cannot change under it; the entry holds the symbol, so its
    identity cannot pass to another array.  The entry is keyed on the shift
    object too, not its value: a run passes its `Scheme.shift` at every
    step, so every step hits, while an equal shift computed anew (or a bool
    equal to it) takes one miss, which checks it and gives the same bits.
    With `overwrite_rhs` the solution is written into rhs's coefficients,
    which the caller owns.
    """
    global _last_solve
    c = rhs.coeffs
    last_shift, last_symbol, last_dtype, factor, apply = _last_solve
    if op_symbol is not last_symbol or shift is not last_shift or c.dtype is not last_dtype:
        denom = _real("shift", shift) + np.asarray(op_symbol)
        if np.min(denom) <= 0.0:
            raise SettingError("op_symbol",
                               f"indefinite operator: min(shift + symbol) = {np.min(denom):g} <= 0")
        if c.dtype.kind == "c":
            factor, apply = (1.0 / denom).astype(c.dtype), np.multiply
        else:
            factor, apply = denom, np.divide
        if isinstance(op_symbol, np.ndarray) and not op_symbol.flags.writeable:
            factor.setflags(write=False)
            _last_solve = (shift, op_symbol, c.dtype, factor, apply)
    return Field(rhs.grid, spectral=apply(c, factor, out=c if overwrite_rhs else None))


# -- norms and inner products ------------------------------------------------------


def _weighted_sum(grid: Grid, c: np.ndarray, weight) -> float:
    """factor * sum(weight * |c|^2) over the stored modes, as one dot product; where
    that overflows, inf - inf in its cross terms reads nan, so the real and imaginary
    parts, whose terms weight * part^2 are >= 0, are summed apart and read inf."""
    wc = weight * c
    total = np.vdot(c, wc).real
    if not math.isfinite(total):
        total = np.vdot(c.real, wc.real) + np.vdot(c.imag, wc.imag)
    return float(grid._norm_factor * total)


def sobolev_norm(f: Field, s: float = 0.0) -> float:
    """Spectral H^s norm: sqrt(sum (1 + |k|^2)^s |f_hat|^2), L2 at s = 0."""
    return float(np.sqrt(_weighted_sum(f.grid, f.coeffs, f.grid._sobolev_weight(_real("s", s)))))


def quadratic_form(symbol, f: Field) -> float:
    """(S f, f) for a diagonal operator S given by its (real) symbol."""
    return _weighted_sum(f.grid, f.coeffs, f.grid._mult * symbol)


def inner(f: Field, g: Field) -> float:
    """L2 inner product, computed from the coefficients by Parseval.

    Equals the uniform-grid quadrature cell_volume * sum(f_i * g_i) to
    rounding, without transforming a field that is held in spectral form.
    """
    if f.grid != g.grid:
        raise SettingError("g", "inner product of fields on different grids")
    grid = f.grid
    return float(grid._norm_factor * np.vdot(f.coeffs, grid._mult * g.coeffs).real)


def integrate(f: Field) -> float:
    """Quadrature of the field over the domain: cell_volume * sum of values."""
    return float(f.values.sum() * f.grid.cell_volume)


# -- dealiasing and pointwise operations ------------------------------------------


def dealias(f: Field) -> Field:
    """Zero all modes above 2/3 of the Nyquist index (idempotent)."""
    return Field(f.grid, spectral=f.coeffs * f.grid.dealias_mask)


def pointwise_map(f: Field, fn) -> Field:
    """Apply a scalar function to the physical values of a field."""
    return Field.from_physical(f.grid, fn(f.values))


def sine_derivative_values(f: Field) -> np.ndarray:
    """Physical values of d/dx of a sine-basis field.

    The derivative of a sine series is a cosine series; it is returned as
    point values on the interior grid (a DCT-I evaluation), not as a Field,
    because it does not satisfy the Dirichlet conditions of the basis.
    """
    g = f.grid
    if g.basis is not Basis.SINE1D:
        raise SettingError("f", "sine_derivative_values requires a SINE1D grid")
    n = g.extents[0]
    kj = np.sqrt(g.k2)
    padded = np.zeros(n + 2)
    padded[1:-1] = f.coeffs * kj / 2.0
    return _cosine_values(padded)[1:-1]
