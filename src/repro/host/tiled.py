"""Host-resident (out-of-core) matrices and rectangular regions.

A :class:`HostMatrix` is the "big" operand living in host memory (or on
disk via ``numpy.memmap`` — genuinely out of core). OOC engines address it
through :class:`HostRegion` windows, which carry enough information for
both executors:

* the numeric executor reads/writes ``region.array`` (a numpy view — never
  a copy, per the zero-copy discipline of the OOC engines);
* the simulated executor only uses ``region.nbytes``.

A *shape-only* matrix has no backing storage at all, which is what lets the
simulator factorize 131072 x 131072 (68 GB) problems in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.util.regions import rects_overlap
from repro.util.validation import check_shape_2d, positive_int


@dataclass(eq=False)
class HostMatrix:
    """A 2-D matrix in host storage, possibly without backing data."""

    rows: int
    cols: int
    element_bytes: int = 4
    data: np.ndarray | None = None
    name: str = "A"

    def __post_init__(self) -> None:
        self.rows, self.cols = check_shape_2d((self.rows, self.cols), self.name)
        self.element_bytes = positive_int(self.element_bytes, "element_bytes")
        if self.data is not None:
            if self.data.shape != (self.rows, self.cols):
                raise ShapeError(
                    f"backing array shape {self.data.shape} does not match "
                    f"declared shape {(self.rows, self.cols)}"
                )
            if self.data.dtype.itemsize != self.element_bytes:
                raise ShapeError(
                    f"backing dtype {self.data.dtype} has itemsize "
                    f"{self.data.dtype.itemsize}, declared {self.element_bytes}"
                )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_array(cls, array: np.ndarray, name: str = "A") -> "HostMatrix":
        """Wrap an existing 2-D numpy array (no copy; memmap subclasses are
        kept as-is so callers can still flush them)."""
        if not isinstance(array, np.ndarray):
            array = np.atleast_2d(np.asarray(array))
        if array.ndim != 2:
            raise ShapeError(f"{name} must be 2-D, got {array.ndim}-D")
        return cls(
            rows=array.shape[0],
            cols=array.shape[1],
            element_bytes=array.dtype.itemsize,
            data=array,
            name=name,
        )

    @classmethod
    def shape_only(
        cls, rows: int, cols: int, element_bytes: int = 4, name: str = "A"
    ) -> "HostMatrix":
        """A matrix that exists only as a shape (simulation mode)."""
        return cls(rows=rows, cols=cols, element_bytes=element_bytes, data=None, name=name)

    @classmethod
    def zeros(
        cls, rows: int, cols: int, dtype=np.float32, name: str = "A"
    ) -> "HostMatrix":
        """An actual zero-initialized host matrix."""
        return cls.from_array(np.zeros((rows, cols), dtype=dtype), name=name)

    @classmethod
    def memmap(
        cls,
        path: str | Path,
        rows: int,
        cols: int,
        dtype=np.float32,
        mode: str = "w+",
        name: str = "A",
    ) -> "HostMatrix":
        """A disk-backed matrix (true out-of-core host storage)."""
        mm = np.memmap(str(path), dtype=dtype, mode=mode, shape=(rows, cols))
        return cls.from_array(mm, name=name)

    # -- properties --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nbytes(self) -> int:
        """Total storage footprint in bytes."""
        return self.rows * self.cols * self.element_bytes

    @property
    def backed(self) -> bool:
        """Whether the matrix has real data (numeric mode)."""
        return self.data is not None

    # -- region addressing ---------------------------------------------------------

    def region(
        self, row0: int = 0, row1: int | None = None, col0: int = 0, col1: int | None = None
    ) -> "HostRegion":
        """The window ``[row0:row1, col0:col1]`` as a :class:`HostRegion`."""
        row1 = self.rows if row1 is None else row1
        col1 = self.cols if col1 is None else col1
        return HostRegion(self, row0, row1, col0, col1)

    def full(self) -> "HostRegion":
        """The whole matrix as a region."""
        return self.region()

    def col_block(self, col0: int, width: int) -> "HostRegion":
        """Columns ``[col0, col0 + width)`` over all rows."""
        return self.region(col0=col0, col1=col0 + width)

    def row_block(self, row0: int, height: int) -> "HostRegion":
        """Rows ``[row0, row0 + height)`` over all columns."""
        return self.region(row0=row0, row1=row0 + height)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "backed" if self.backed else "shape-only"
        return f"HostMatrix({self.name!r}, {self.rows}x{self.cols}, {backing})"


@dataclass(frozen=True)
class HostRegion:
    """A rectangular window into a :class:`HostMatrix`."""

    matrix: HostMatrix
    row0: int
    row1: int
    col0: int
    col1: int

    def __post_init__(self) -> None:
        if not (0 <= self.row0 < self.row1 <= self.matrix.rows):
            raise ShapeError(
                f"row range [{self.row0}, {self.row1}) outside matrix with "
                f"{self.matrix.rows} rows"
            )
        if not (0 <= self.col0 < self.col1 <= self.matrix.cols):
            raise ShapeError(
                f"col range [{self.col0}, {self.col1}) outside matrix with "
                f"{self.matrix.cols} cols"
            )

    @property
    def rows(self) -> int:
        return self.row1 - self.row0

    @property
    def cols(self) -> int:
        return self.col1 - self.col0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nbytes(self) -> int:
        """Bytes a transfer of this region moves over PCIe."""
        return self.rows * self.cols * self.matrix.element_bytes

    @property
    def array(self) -> np.ndarray:
        """Numpy view of the region (numeric mode only; never a copy)."""
        if self.matrix.data is None:
            raise ValidationError(
                f"region of shape-only matrix {self.matrix.name!r} has no data"
            )
        return self.matrix.data[self.row0 : self.row1, self.col0 : self.col1]

    def overlaps(self, other: "HostRegion") -> bool:
        """Whether the two regions share an element of the same matrix."""
        return self.matrix is other.matrix and rects_overlap(
            (self.row0, self.row1), (self.col0, self.col1),
            (other.row0, other.row1), (other.col0, other.col1),
        )

    def sub(
        self, row0: int = 0, row1: int | None = None, col0: int = 0, col1: int | None = None
    ) -> "HostRegion":
        """A sub-window addressed relative to this region."""
        row1 = self.rows if row1 is None else row1
        col1 = self.cols if col1 is None else col1
        return HostRegion(
            self.matrix,
            self.row0 + row0,
            self.row0 + row1,
            self.col0 + col0,
            self.col0 + col1,
        )

    def label(self) -> str:
        """Compact human-readable address (used in op names / timelines)."""
        return (
            f"{self.matrix.name}[{self.row0}:{self.row1},{self.col0}:{self.col1}]"
        )


def tile_ranges(extent: int, tile: int) -> list[tuple[int, int]]:
    """Split ``[0, extent)`` into consecutive ranges of at most *tile*.

    The partition property (exact cover, no overlap) is hypothesis-tested.
    """
    extent = positive_int(extent, "extent")
    tile = positive_int(tile, "tile")
    return [(lo, min(lo + tile, extent)) for lo in range(0, extent, tile)]
