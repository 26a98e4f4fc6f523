"""Named, ordered parameter segments shared by every model instance."""

from __future__ import annotations

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
    """Ordered mapping segment-name -> Tensor with a fixed layout."""

    def __init__(self, segments: list[tuple[str, Tensor]]):
        names = [name for name, _ in segments]
        if len(set(names)) != len(names):
            raise LayoutError("duplicate segment names")
        self._names = tuple(names)
        self._tensors = {name: t for name, t in segments}

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._names)

    def items(self):
        for name in self._names:
            yield name, self._tensors[name]

    def tensors(self) -> list[Tensor]:
        return [self._tensors[name] for name in self._names]

    @property
    def total_count(self) -> int:
        return sum(t.size for t in self._tensors.values())

    @property
    def dtype(self):
        return self._tensors[self._names[0]].dtype

    def layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((name, tuple(self._tensors[name].shape))
                     for name in self._names)

    def check_same_layout(self, other: "ParamVector") -> None:
        mine, theirs = self.layout(), other.layout()
        if len(mine) != len(theirs):
            raise LayoutError(f"segment count differs: {len(mine)} vs "
                              f"{len(theirs)}")
        for (n1, s1), (n2, s2) in zip(mine, theirs):
            if n1 != n2 or s1 != s2:
                raise LayoutError(f"segment mismatch at {n1!r}: "
                                  f"{n1} {s1} vs {n2} {s2}")

    def clone(self, requires_grad: bool = False) -> "ParamVector":
        return ParamVector([(name, Tensor(t.data.copy(),
                                          requires_grad=requires_grad))
                            for name, t in self.items()])

    def clear_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def flatten(self) -> np.ndarray:
        return np.concatenate([t.data.reshape(-1) for t in self.tensors()])

    def to_bytes(self) -> bytes:
        """Raw little-endian dump in layout order."""
        return b"".join(np.ascontiguousarray(t.data).astype(
            t.data.dtype.newbyteorder("<"), copy=False).tobytes()
            for t in self.tensors())
