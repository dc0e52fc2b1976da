"""Loading of volumetric images and masks from a constrained NRRD subset.

Supported files are 3D, raw-encoded, with axis-aligned (diagonal)
orientation. Honored header fields: ``dimension``, ``type``, ``sizes``,
``encoding``, ``spacings`` or ``space directions`` and ``endian`` (little
assumed if absent). A ``space origin`` line, when present, must parse
as a vector such as ``(x,y,z)``; it is checked, not kept, as no step
reads the origin (all geometry is spacing-relative). Everything else
is ignored. The payload starts immediately after the blank line that
terminates the header.

Loaded grids are immutable and safe to share across parallel extraction
tasks. Voxel value order follows the NRRD convention: the first axis
varies fastest in the payload, so ``values[i, j, k]`` indexes axis 0
fastest. Axes 0 and 1 are the in-plane axes, axis 2 is the slice axis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import RadrepError

SPACING_RTOL = 1e-6

_DTYPES = {
    "short": np.dtype(np.int16),
    "int": np.dtype(np.int32),
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
}


class MissingHeaderField(RadrepError):
    """A required header field is absent or malformed."""


class UnsupportedEncoding(RadrepError):
    """The file uses an encoding other than raw."""


class UnsupportedHeaderValue(RadrepError):
    """A header field holds a value outside the supported subset."""


class PayloadSizeMismatch(RadrepError):
    """Declared sizes do not match the payload byte count."""


class NonFiniteValue(RadrepError):
    """The payload contains NaN or infinity."""


class EmptyMask(RadrepError):
    """A mask contains no labeled voxel."""


class GeometryMismatch(RadrepError):
    """Image and mask grids disagree in shape or spacing."""


class NonBinaryLabel(RadrepError):
    """A mask payload contains values outside {0, 1}."""


class Structure(Enum):
    """Kind of segmented structure a mask delineates."""

    TUMOR = "Tumor"
    PERIPHERAL_ZONE = "PeripheralZone"
    WHOLE_GLAND = "WholeGland"
    MUSCLE_REFERENCE = "MuscleReference"


@dataclass(frozen=True)
class VolumeGrid:
    """3D scalar field with physical spacing: its values and its spacing.

    ``values`` is a read-only 3D array with no empty axis; its shape is
    the grid's shape. Spacing is in mm per voxel.
    """

    spacing: tuple[float, float, float]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.values.ndim != 3 or 0 in self.values.shape:
            raise ValueError("values must be a 3D array with no empty axis, "
                             f"got shape {self.values.shape}")
        if any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        self.values.setflags(write=False)

    def payload_hash(self) -> str:
        """SHA-256 digest of the voxel payload in file order."""
        return hashlib.sha256(
            np.asfortranarray(self.values).tobytes(order="F")
        ).hexdigest()


@dataclass(frozen=True)
class RoiMask:
    """Binary label grid aligned to a :class:`VolumeGrid`: its labels,
    their spacing and the structure they delineate.

    The ROI is found once, at construction: ``bounding_box`` holds the
    per-axis slices of the smallest box that holds every labeled voxel,
    and ``inside`` (read-only) the mask within it, ``labels[bounding_box]
    > 0``. Every step that needs the ROI reads these two, not ``labels``.
    """

    spacing: tuple[float, float, float]
    labels: np.ndarray = field(repr=False)
    structure: Structure
    bounding_box: tuple[slice, slice, slice] = field(init=False)
    inside: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        index = np.nonzero(self.labels)
        if index[0].size == 0:
            raise EmptyMask("mask has no labeled voxel")
        self.labels.setflags(write=False)
        box = tuple(slice(int(i.min()), int(i.max()) + 1) for i in index)
        inside = self.labels[box] > 0
        inside.setflags(write=False)
        object.__setattr__(self, "bounding_box", box)
        object.__setattr__(self, "inside", inside)

    @property
    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.inside))

    def payload_hash(self) -> str:
        return hashlib.sha256(
            np.asfortranarray(self.labels).astype(np.uint8).tobytes(order="F")
        ).hexdigest()


def _parse_header(raw: bytes, path) -> tuple[dict[str, str], bytes]:
    """Split file bytes into a field map and the raw payload."""
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise MissingHeaderField(f"{path}: no blank line terminating the header")
    header, payload = raw[:sep], raw[sep + 2:]
    lines = header.decode("latin-1").splitlines()
    if not lines or not lines[0].startswith("NRRD"):
        raise MissingHeaderField(f"{path}: missing NRRD magic line")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        line = line.rstrip("\r")
        if not line or line.startswith("#") or ":=" in line:
            continue  # comments and key-value pairs are ignored
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        fields[key.strip().lower()] = value.strip()
    return fields, payload


def _require(fields: dict[str, str], name: str, path) -> str:
    try:
        return fields[name]
    except KeyError:
        raise MissingHeaderField(f"{path}: header lacks required field '{name}'") from None


def _parse_vectors(text: str) -> list[list[float]]:
    """Parse '(a,b,c) (d,e,f) ...' vector lists."""
    vecs = []
    for chunk in text.replace(")", ") ").split():
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise MissingHeaderField(f"malformed vector component {chunk!r}")
        vecs.append([float(v) for v in chunk[1:-1].split(",")])
    return vecs


def _spacing_from_fields(fields: dict[str, str], path) -> tuple[float, float, float]:
    if "spacings" in fields:
        parts = fields["spacings"].split()
        if len(parts) != 3:
            raise MissingHeaderField(f"{path}: 'spacings' must list 3 values")
        spacing = tuple(float(p) for p in parts)
    elif "space directions" in fields:
        vecs = _parse_vectors(fields["space directions"])
        if len(vecs) != 3 or any(len(v) != 3 for v in vecs):
            raise MissingHeaderField(f"{path}: 'space directions' must list 3 3-vectors")
        for i, v in enumerate(vecs):
            off = [v[j] for j in range(3) if j != i]
            if any(x != 0.0 for x in off):
                raise UnsupportedHeaderValue(
                    f"{path}: non-diagonal space directions are not supported"
                )
        # |diag| tolerates axis flips; features are orientation-agnostic
        spacing = tuple(abs(v[i]) for i, v in enumerate(vecs))
    else:
        raise MissingHeaderField(
            f"{path}: header lacks 'spacings' or 'space directions'"
        )
    if any(s <= 0 for s in spacing):
        raise UnsupportedHeaderValue(f"{path}: spacing components must be > 0")
    return spacing


def _load_grid(path) -> tuple[tuple, np.ndarray]:
    path = Path(path)
    raw = path.read_bytes()
    fields, payload = _parse_header(raw, path)

    if _require(fields, "dimension", path) != "3":
        raise UnsupportedHeaderValue(f"{path}: only dimension 3 is supported")
    if _require(fields, "encoding", path) != "raw":
        raise UnsupportedEncoding(f"{path}: only raw encoding is supported")
    type_name = _require(fields, "type", path)
    if type_name not in _DTYPES:
        raise UnsupportedHeaderValue(
            f"{path}: type '{type_name}' not in {sorted(_DTYPES)}"
        )
    sizes = _require(fields, "sizes", path).split()
    if len(sizes) != 3:
        raise MissingHeaderField(f"{path}: 'sizes' must list 3 values")
    dims = tuple(int(s) for s in sizes)
    if any(d <= 0 for d in dims):
        raise UnsupportedHeaderValue(f"{path}: sizes must be positive")

    spacing = _spacing_from_fields(fields, path)

    endian = fields.get("endian", "little")
    if endian not in ("little", "big"):
        raise UnsupportedHeaderValue(f"{path}: unknown endian '{endian}'")
    dtype = _DTYPES[type_name].newbyteorder("<" if endian == "little" else ">")

    if "space origin" in fields:
        _parse_vectors(fields["space origin"])  # refuses a malformed vector

    count = dims[0] * dims[1] * dims[2]
    if len(payload) != count * dtype.itemsize:
        raise PayloadSizeMismatch(
            f"{path}: sizes declare {count} values ({count * dtype.itemsize} bytes) "
            f"but payload holds {len(payload)} bytes"
        )
    flat = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if not np.isfinite(flat).all():
        raise NonFiniteValue(f"{path}: payload contains NaN or infinity")
    return spacing, flat.reshape(dims, order="F")


def read_volume(path) -> VolumeGrid:
    """Load a volumetric image from the supported NRRD subset."""
    return VolumeGrid(*_load_grid(path))


def read_mask(path, structure: Structure) -> RoiMask:
    """Load a binary mask; payload values must be exactly 0 or 1."""
    spacing, values = _load_grid(path)
    binary = (values == 0) | (values == 1)
    if not binary.all():
        bad = values[~binary].flat[0]
        raise NonBinaryLabel(f"{path}: mask contains non-binary value {bad}")
    labels = values.astype(np.uint8)
    if not labels.any():
        raise EmptyMask(f"{path}: mask has no labeled voxel")
    return RoiMask(spacing, labels, structure)


def _spacing_close(a, b) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= SPACING_RTOL * max(abs(a), abs(b))


def check_geometry(image: VolumeGrid, mask: RoiMask) -> bool:
    """True iff shapes match and spacing agrees within relative 1e-6 per axis."""
    if image.values.shape != mask.labels.shape:
        return False
    return all(_spacing_close(a, b) for a, b in zip(image.spacing, mask.spacing))


def write_nrrd(path, values: np.ndarray, spacing,
               dtype: str = "double") -> None:
    """Write a 3D array as a raw little-endian NRRD file.

    Used to produce pipeline inputs and test fixtures; ``double`` payloads
    round-trip bit-exactly through :func:`read_volume`.
    """
    values = np.asarray(values)
    if values.ndim != 3:
        raise ValueError("values must be a 3D array")
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")
    header = [
        "NRRD0004",
        "# radrep volume export",
        f"type: {dtype}",
        "dimension: 3",
        "sizes: {} {} {}".format(*values.shape),
        "spacings: {!r} {!r} {!r}".format(*(float(s) for s in spacing)),
        "encoding: raw",
        "endian: little",
        "space origin: (0.0,0.0,0.0)",
        "",
        "",
    ]
    payload = np.asfortranarray(
        values.astype(_DTYPES[dtype].newbyteorder("<"))
    ).tobytes(order="F")
    Path(path).write_bytes("\n".join(header).encode("ascii") + payload)
