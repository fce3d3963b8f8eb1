"""Geometric line-of-sight channel model for a RIS-assisted MIMO link.

A multi-antenna base station (uniform rectangular array) reaches a
multi-antenna user terminal only through a reconfigurable reflecting
surface.  Both hops are modeled as single-path outer products of URA
steering vectors, so each hop factors into a Kronecker product of a
horizontal (y) and a vertical (z) rank-one term.  The model yields the
BS-surface-user cascade, the one channel description every later stage
reads; the hop matrices themselves are never formed.  The cascade's
memory order lives here only: the rank-one layout (reader, writer,
sixth-order re-indexing) and the split of a row into its (user,
base-station) antenna pair (:func:`split_rows`).  All functions are
pure; randomness enters only through a passed generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .tensors import kron

__all__ = [
    "AZIMUTH_RANGE_DEG",
    "ELEVATION_RANGE_DEG",
    "SystemDims",
    "ChannelParams",
    "ChannelRealization",
    "spatial_frequencies",
    "steering_1d",
    "TENSOR_MODES",
    "tensor_shape",
    "cascade_tensor",
    "split_rows",
    "array_responses",
    "rank_one_cascade",
    "build_channels",
    "sample_params",
]

# Angle ranges (degrees) used when drawing random link geometries.
AZIMUTH_RANGE_DEG = (-60.0, 60.0)
ELEVATION_RANGE_DEG = (90.0, 130.0)


@dataclass(frozen=True)
class SystemDims:
    """Array geometry and training lengths.

    ``n_bs_*`` are the base-station URA extents, ``n_ue_*`` the user-side
    URA extents and ``n_ris_*`` the reflecting-surface extents, each split
    into a horizontal (y) and vertical (z) factor.  ``n_pilots`` is the
    number of pilot symbols per block; ``n_blocks`` the number of training
    blocks (one surface phase profile per block).
    """

    n_bs_y: int
    n_bs_z: int
    n_ue_y: int
    n_ue_z: int
    n_ris_y: int
    n_ris_z: int
    n_pilots: int
    n_blocks: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError("%s must be >= 1" % f.name)

    @property
    def n_bs(self) -> int:
        return self.n_bs_y * self.n_bs_z

    @property
    def n_ue(self) -> int:
        return self.n_ue_y * self.n_ue_z

    @property
    def n_ris(self) -> int:
        return self.n_ris_y * self.n_ris_z


def spatial_frequencies(azimuth: float, elevation: float) -> tuple[float, float]:
    """Map azimuth/elevation (radians) to URA phase-progression rates.

    Horizontal rate pi*sin(elevation)*sin(azimuth); vertical rate
    pi*cos(elevation).  Both land in [-pi, pi] for any angles, assuming
    half-wavelength element spacing.
    """
    freq_y = math.pi * math.sin(elevation) * math.sin(azimuth)
    freq_z = math.pi * math.cos(elevation)
    return freq_y, freq_z


@dataclass(frozen=True)
class ChannelParams:
    """Azimuth/elevation (radians) of the four ray endpoints.

    ``*_ris_arr`` is the ray arriving at the surface from the base
    station, ``*_ris_dep`` the ray departing towards the user.
    """

    az_bs: float
    el_bs: float
    az_ris_arr: float
    el_ris_arr: float
    az_ris_dep: float
    el_ris_dep: float
    az_ue: float
    el_ue: float

    @property
    def bs_freqs(self) -> tuple[float, float]:
        return spatial_frequencies(self.az_bs, self.el_bs)

    @property
    def ris_arr_freqs(self) -> tuple[float, float]:
        return spatial_frequencies(self.az_ris_arr, self.el_ris_arr)

    @property
    def ris_dep_freqs(self) -> tuple[float, float]:
        return spatial_frequencies(self.az_ris_dep, self.el_ris_dep)

    @property
    def ue_freqs(self) -> tuple[float, float]:
        return spatial_frequencies(self.az_ue, self.el_ue)


def steering_1d(length: int, freq: float) -> np.ndarray:
    """Uniform linear array response: entry l is exp(-1j*l*freq), l = 0..length-1."""
    if length < 1:
        raise ValueError("steering vector length must be >= 1")
    return np.exp(-1j * np.arange(length) * freq)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """All deterministic channel quantities implied by one geometry draw.

    Two realizations compare equal only when they are the same object.

    cascade (n_bs*n_ue x n_ris): the :func:`rank_one_cascade` of the six
        vectors below; the quantity the pilot stage ultimately estimates
        and the one channel description the pilot model, the sweeps and
        the scorers read.  Column n collects what user antennas see of
        base-station antennas via surface element n alone; it is stored
        column-major, the layout of every estimate of it.
    bs_y/bs_z, ue_y/ue_z: per-axis steering vectors of the two arrays.
    surface_y/surface_z: element-wise products of the surface arrival and
        departure responses, the per-element cascaded phases that a
        phase-profile vector multiplies.  These six vectors are the truth
        for factor alignment in the tests.
    """

    dims: SystemDims
    params: ChannelParams
    bs_y: np.ndarray
    bs_z: np.ndarray
    ue_y: np.ndarray
    ue_z: np.ndarray
    surface_y: np.ndarray
    surface_z: np.ndarray
    cascade: np.ndarray


# the vector that each mode of a cascade's sixth-order layout holds
TENSOR_MODES = ("ue_z", "bs_z", "surface_z", "ue_y", "bs_y", "surface_y")


def tensor_shape(dims: SystemDims) -> tuple:
    """The sixth-order layout's extents, one per :data:`TENSOR_MODES` name."""
    return (dims.n_ue_z, dims.n_bs_z, dims.n_ris_z, dims.n_ue_y, dims.n_bs_y, dims.n_ris_y)


def cascade_tensor(cascade: np.ndarray, dims: SystemDims) -> np.ndarray:
    """The (n_ue*n_bs x n_ris) cascade in its sixth-order layout.  Read
    column-major, a row splits into (ue_z, ue_y, bs_z, bs_y) digits and a
    column into (surface_z, surface_y), fastest first; the transpose puts
    every z digit before every y digit, so a :func:`rank_one_cascade` maps
    to the outer product of the :data:`TENSOR_MODES` vectors."""
    shape = tensor_shape(dims)
    digits = sum(zip(shape[:3], shape[3:]), ())      # each z digit, then its y digit
    return cascade.reshape(digits, order="F").transpose(0, 2, 4, 1, 3, 5)


def split_rows(a: np.ndarray, dims: SystemDims) -> np.ndarray:
    """``a``, whose leading axis holds the cascade's n_ue*n_bs rows, as
    (n_ue, n_bs, ...): row (m*n_ue + q) is entry (q, m), the user antenna
    q and base-station antenna m, and the other axes are kept.  So a
    cascade reads as its (user, base station, surface) tensor and each
    column as its n_ue x n_bs matrix.  Only the leading axis is split, so
    the result is a view of ``a`` in any layout: writing through it
    writes ``a``."""
    return a.reshape((dims.n_ue, dims.n_bs) + a.shape[1:], order="F")


def array_responses(*, ue_y, ue_z, bs_y, bs_z, surface_y, surface_z) -> tuple:
    """The one reader of the per-axis order: the user, base-station and
    surface responses kron(ue_y, ue_z), kron(bs_y, bs_z) and
    kron(surface_y, surface_z), read by :func:`rank_one_cascade` and by
    rate scoring."""
    return kron(ue_y, ue_z), kron(bs_y, bs_z), kron(surface_y, surface_z)


def rank_one_cascade(*, amplitude=None, **vectors) -> np.ndarray:
    """The one writer of a rank-one cascade: with (ue, bs, surface) the
    :func:`array_responses` of the six vectors, passed by name, the
    (n_bs*n_ue x n_ris) outer product of kron(bs, ue), times ``amplitude``
    when one is given, with surface.  Without an amplitude no scaling
    pass runs, so each entry is the plain product of six vector entries.
    """
    ue, bs, surface = array_responses(**vectors)
    row = np.multiply.outer(bs, ue).reshape(-1)
    if amplitude is not None:
        row = amplitude * row
    return np.multiply.outer(surface, row).T


def build_channels(dims: SystemDims, params: ChannelParams) -> ChannelRealization:
    """Construct the cascade and its factors for one geometry.

    Per axis, the first hop is the outer product of the surface arrival
    response with the base-station response, and the second hop the outer
    product of the user response with the surface departure response.  The
    cascade, the column-wise Kronecker product of the transposed first hop
    with the second hop, is rank one and is written by
    :func:`rank_one_cascade`, so neither hop is formed.
    """
    bs_fy, bs_fz = params.bs_freqs
    arr_fy, arr_fz = params.ris_arr_freqs
    dep_fy, dep_fz = params.ris_dep_freqs
    ue_fy, ue_fz = params.ue_freqs

    bs_y = steering_1d(dims.n_bs_y, bs_fy)        # base station, horizontal
    bs_z = steering_1d(dims.n_bs_z, bs_fz)
    ris_arr_y = steering_1d(dims.n_ris_y, arr_fy)  # surface, arrival side
    ris_arr_z = steering_1d(dims.n_ris_z, arr_fz)
    ris_dep_y = steering_1d(dims.n_ris_y, dep_fy)  # surface, departure side
    ris_dep_z = steering_1d(dims.n_ris_z, dep_fz)
    ue_y = steering_1d(dims.n_ue_y, ue_fy)         # user terminal
    ue_z = steering_1d(dims.n_ue_z, ue_fz)

    surface_y = ris_arr_y * ris_dep_y
    surface_z = ris_arr_z * ris_dep_z
    vectors = dict(bs_y=bs_y, bs_z=bs_z, ue_y=ue_y, ue_z=ue_z,
                   surface_y=surface_y, surface_z=surface_z)
    return ChannelRealization(
        dims=dims, params=params, **vectors, cascade=rank_one_cascade(**vectors),
    )


def sample_params(rng: np.random.Generator) -> ChannelParams:
    """Draw one link geometry: i.i.d. uniform azimuths and elevations.

    Azimuths are uniform over AZIMUTH_RANGE_DEG and elevations over
    ELEVATION_RANGE_DEG (converted to radians), drawn in the order
    (base station, surface arrival, surface departure, user).
    """
    lo_a, hi_a = np.deg2rad(AZIMUTH_RANGE_DEG)
    lo_e, hi_e = np.deg2rad(ELEVATION_RANGE_DEG)
    az = rng.uniform(lo_a, hi_a, size=4)
    el = rng.uniform(lo_e, hi_e, size=4)
    return ChannelParams(
        az_bs=az[0], el_bs=el[0],
        az_ris_arr=az[1], el_ris_arr=el[1],
        az_ris_dep=az[2], el_ris_dep=el[2],
        az_ue=az[3], el_ue=el[3],
    )
