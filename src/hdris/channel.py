"""Geometric line-of-sight channel model for a RIS-assisted MIMO link.

A multi-antenna base station (uniform rectangular array) reaches a
multi-antenna user terminal only through a reconfigurable reflecting
surface.  Both hops are modeled as single-path outer products of URA
steering vectors, so every channel matrix factors into a Kronecker
product of a horizontal (y) and a vertical (z) rank-one term.  All
functions here are pure and side-effect free; randomness enters only
through an explicitly passed generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import khatri_rao, kron

__all__ = [
    "AZIMUTH_RANGE_DEG",
    "ELEVATION_RANGE_DEG",
    "SystemDims",
    "ChannelParams",
    "ChannelRealization",
    "spatial_frequencies",
    "steering_1d",
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
        for name in (
            "n_bs_y", "n_bs_z", "n_ue_y", "n_ue_z",
            "n_ris_y", "n_ris_z", "n_pilots", "n_blocks",
        ):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)

    @property
    def n_bs(self) -> int:
        return self.n_bs_y * self.n_bs_z

    @property
    def n_ue(self) -> int:
        return self.n_ue_y * self.n_ue_z

    @property
    def n_ris(self) -> int:
        return self.n_ris_y * self.n_ris_z

    def training_feasible(self) -> bool:
        """Whether a Kronecker-structured training design with orthonormal
        rows exists: it needs n_pilots >= n_bs and n_blocks >= n_ris, which
        also gives the pilot budget n_pilots*n_blocks >= n_bs*n_ris."""
        return self.n_pilots >= self.n_bs and self.n_blocks >= self.n_ris


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


@dataclass(frozen=True)
class ChannelRealization:
    """All deterministic channel quantities implied by one geometry draw.

    bs_ris  (n_ris x n_bs): base station -> surface hop, Kronecker product
        of a horizontal and a vertical rank-one factor (z index fastest).
    ris_ue  (n_ue x n_ris): surface -> user hop, likewise.
    cascade (n_bs*n_ue x n_ris): column-wise Kronecker product of the
        transposed first hop with the second hop; the quantity the pilot
        stage ultimately estimates.  Column n collects what user antennas
        see of base-station antennas via surface element n alone.
    surface_y/surface_z: element-wise products of the surface arrival and
        departure responses; kron(surface_y, surface_z) collects the
        per-element cascaded phases that a phase-profile vector multiplies.
    """

    dims: SystemDims
    params: ChannelParams
    bs_y: np.ndarray
    bs_z: np.ndarray
    ue_y: np.ndarray
    ue_z: np.ndarray
    surface_y: np.ndarray
    surface_z: np.ndarray
    bs_ris: np.ndarray
    ris_ue: np.ndarray
    cascade: np.ndarray


def build_channels(dims: SystemDims, params: ChannelParams) -> ChannelRealization:
    """Construct both hops and their derived products for one geometry.

    Per axis, the first hop is the outer product of the surface arrival
    response with the base-station response, and the second hop the outer
    product of the user response with the surface departure response; the
    full matrices are Kronecker products of their two axis factors, and
    the cascade is the column-wise Kronecker product of the transposed
    first hop with the second hop.
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

    bs_ris_y = np.outer(ris_arr_y, bs_y)
    bs_ris_z = np.outer(ris_arr_z, bs_z)
    ris_ue_y = np.outer(ue_y, ris_dep_y)
    ris_ue_z = np.outer(ue_z, ris_dep_z)
    bs_ris = kron(bs_ris_y, bs_ris_z)
    ris_ue = kron(ris_ue_y, ris_ue_z)
    cascade = khatri_rao(bs_ris.T, ris_ue)

    return ChannelRealization(
        dims=dims,
        params=params,
        bs_y=bs_y,
        bs_z=bs_z,
        ue_y=ue_y,
        ue_z=ue_z,
        surface_y=ris_arr_y * ris_dep_y,
        surface_z=ris_arr_z * ris_dep_z,
        bs_ris=bs_ris,
        ris_ue=ris_ue,
        cascade=cascade,
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
