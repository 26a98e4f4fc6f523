"""Named, ordered parameter segments shared by every model instance."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError
from .tensor import Tensor


@dataclass(frozen=True)
class SegmentSpec:
    """Shape and init metadata for one parameter segment."""

    name: str
    shape: tuple[int, ...]
    fan_in: int

    @property
    def count(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))


class ParamVector:
    """A model's parameters: one flat 1-d Tensor in layout order, with each
    segment a named view of it.

    ``layout`` is a sequence of ``(name, shape)`` pairs.  Everything that
    acts on every element (Adam, the warm start, the residual, the lattice
    snap) acts on ``flat`` in one expression; what needs a segment on its
    own takes ``params[name]`` or :meth:`split`.
    """

    def __init__(self, layout, flat: Tensor):
        self._layout = tuple((name, tuple(shape)) for name, shape in layout)
        self.names = tuple(name for name, _ in self._layout)
        if len(set(self.names)) != len(self.names):
            raise LayoutError("duplicate segment names")
        self.sizes = tuple(math.prod(shape) for _, shape in self._layout)
        if flat.data.ndim != 1 or flat.size != sum(self.sizes):
            raise LayoutError(f"flat vector of shape {flat.shape} does not "
                              f"hold {sum(self.sizes)} parameters")
        self.flat = flat
        self._ends = np.cumsum(self.sizes)
        self._spans = {name: (end - size, end, shape)
                       for (name, shape), size, end
                       in zip(self._layout, self.sizes, self._ends)}

    def __getitem__(self, name: str) -> Tensor:
        start, end, shape = self._spans[name]
        return Tensor(self.flat.data[start:end].reshape(shape))

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """``values``, one per parameter in layout order, cut into one
        1-d view per segment."""
        return np.split(values, self._ends[:-1])

    def spread(self, values) -> np.ndarray:
        """One value per segment, cast to the dtype and repeated over the
        segment's elements."""
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != (len(self.sizes),):
            raise LayoutError(f"{values.size} values for {len(self.sizes)} "
                              f"segments")
        return np.repeat(values, self.sizes)

    @property
    def dtype(self):
        return self.flat.dtype

    def layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return self._layout

    def check_same_layout(self, other: "ParamVector") -> None:
        mine, theirs = self.layout(), other.layout()
        if len(mine) != len(theirs):
            raise LayoutError(f"segment count differs: {len(mine)} vs "
                              f"{len(theirs)}")
        for (n1, s1), (n2, s2) in zip(mine, theirs):
            if n1 != n2 or s1 != s2:
                raise LayoutError(f"segment mismatch at {n1!r}: "
                                  f"{n1} {s1} vs {n2} {s2}")

    def with_flat(self, data: np.ndarray,
                  requires_grad: bool = False) -> "ParamVector":
        """The same layout over the 1-d ``data``, sharing this vector's
        layout tables rather than building them again."""
        flat = Tensor(data, requires_grad=requires_grad)
        if flat.data.ndim != 1 or flat.size != self.flat.size:
            raise LayoutError(f"flat vector of shape {flat.shape} does not "
                              f"hold {self.flat.size} parameters")
        out = copy.copy(self)
        out.flat = flat
        return out

    def clone(self, requires_grad: bool = False) -> "ParamVector":
        return self.with_flat(self.flat.data.copy(), requires_grad)

    def clear_grads(self) -> None:
        self.flat.grad = None

    def to_bytes(self) -> bytes:
        """Raw little-endian dump in layout order."""
        return self.flat.data.astype(self.dtype.newbyteorder("<"),
                                     copy=False).tobytes()
