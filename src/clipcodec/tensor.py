"""Dense tensors with taped reverse-mode differentiation.

A :class:`Tape` records every differentiable operation executed while it
is active (``with Tape() as tape: ...``).  ``tape.backward(loss)`` replays
the records in reverse and accumulates gradients into the ``grad`` field
of every leaf tensor that requires them.  A tape can be walked backward
exactly once; a second call raises :class:`~clipcodec.errors.TapeError`
rather than silently recomputing.

Precision is chosen once per run: float32 for training (the default),
float64 for gradient-check tests.  Operations inherit the dtype of their
inputs, so the choice made when parameters are created flows through the
whole graph.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import TapeError

DTYPES = {"f32": np.float32, "f64": np.float64}

_default_dtype = np.float32


def set_default_dtype(name: str) -> None:
    global _default_dtype
    _default_dtype = DTYPES[name]


def default_dtype():
    return _default_dtype


@contextmanager
def precision(name: str):
    """Temporarily switch the default dtype (``"f32"`` or ``"f64"``)."""
    global _default_dtype
    prev = _default_dtype
    _default_dtype = DTYPES[name]
    try:
        yield
    finally:
        _default_dtype = prev


def dtype_name(dtype) -> str:
    for name, dt in DTYPES.items():
        if np.dtype(dtype) == np.dtype(dt):
            return name
    raise KeyError(f"unsupported dtype {dtype}")


class Tensor:
    """A shaped array plus the bookkeeping autodiff needs."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in (np.float32,
                                                               np.float64):
                dtype = data.dtype
            else:
                dtype = _default_dtype
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"


class _Node:
    """One recorded op.  ``out`` is its output tensor, or a tuple of
    output tensors for an op that yields several; ``backward`` then takes
    one gradient per output, ``None`` for an output that received none."""

    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered record of executed operations; one training step each."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._produced: set[int] = set()
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def record(self, out, inputs, backward) -> None:
        self._nodes.append(_Node(out, inputs, backward))
        for tensor in out if isinstance(out, tuple) else (out,):
            self._produced.add(id(tensor))

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``leaf.grad`` for every leaf.

        Gradients add into ``.grad`` across tapes as well: a leaf used by
        several tapes holds their sum until the caller clears it with
        :meth:`~clipcodec.params.ParamVector.clear_grads`.

        ``loss`` must be a scalar produced while this tape was active.
        Replaying a second time is rejected; re-record the forward pass
        instead.
        """
        if self._spent:
            raise TapeError("tape already walked backward; re-record the "
                            "forward pass before differentiating again")
        if loss.data.ndim != 0:
            raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
        if id(loss) not in self._produced:
            raise TapeError("loss was not produced on this tape")
        self._spent = True

        grads: dict[int, np.ndarray] = {
            id(loss): np.ones_like(loss.data)
        }
        leaves: dict[int, Tensor] = {}
        for node in reversed(self._nodes):
            if isinstance(node.out, tuple):
                g = [grads.pop(id(tensor), None) for tensor in node.out]
                if all(part is None for part in g):
                    continue
            else:
                g = grads.pop(id(node.out), None)
                if g is None:
                    continue
            for tensor, gin in zip(node.inputs, node.backward(g)):
                if gin is None:
                    continue
                interest = tensor.requires_grad or id(tensor) in self._produced
                if not interest:
                    continue
                key = id(tensor)
                if key in grads:
                    grads[key] = grads[key] + gin
                else:
                    grads[key] = gin
                if tensor.requires_grad and key not in self._produced:
                    leaves[key] = tensor
        for key, tensor in leaves.items():
            g = grads.get(key)
            if g is None:
                continue
            tensor.grad = g if tensor.grad is None else tensor.grad + g
