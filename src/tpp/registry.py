"""Named parameters with group tags.

A parameter is a ``Param``: a leaf ``Tensor`` that also carries a unique
hierarchical name and one of three group tags: Backbone (the pre-trained
trunk), Target (parameters a PEFT mechanism introduces), or Head (task
heads and reconstruction scaffolding). Every learnable tensor in a model
lives in exactly one registry, and model code passes the ``Param`` itself
to the tape ops. ``requires_grad`` is the one trainability flag: a frozen
param has it off, so backward never computes a gradient for it, and
optimizers only ever see params that have it on.
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum

import numpy as np

from .errors import StateError, StructuralError
from .tensor import Tensor


class ParamGroup(Enum):
    BACKBONE = "backbone"
    TARGET = "target"
    HEAD = "head"


class Param(Tensor):
    """One named parameter: a trainable leaf tensor with a name and a group tag."""

    __slots__ = ("name", "group")

    def __init__(self, name: str, data, group: ParamGroup):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.group = group

    def __repr__(self) -> str:
        return (f"Param({self.name}, shape={list(self.shape)}, group={self.group.value}, "
                f"requires_grad={self.requires_grad})")


class ParamRegistry:
    """Insertion-ordered collection of uniquely named params."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def register(self, name: str, data, group: ParamGroup) -> Param:
        """Add a trainable param; a stage's plan decides what stays trainable."""
        if name in self._params:
            raise StateError(f"parameter name already registered: {name}")
        param = Param(name, data, group)
        self._params[name] = param
        return param

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self):
        return iter(self._params.values())

    def get(self, name: str) -> Param:
        try:
            return self._params[name]
        except KeyError:
            raise StructuralError(f"no such parameter: {name}") from None

    def params(self, group: ParamGroup | None = None, trainable: bool | None = None,
               prefix: str | None = None) -> list[Param]:
        out = []
        for p in self._params.values():
            if group is not None and p.group is not group:
                continue
            if trainable is not None and p.requires_grad is not trainable:
                continue
            if prefix is not None and not p.name.startswith(prefix):
                continue
            out.append(p)
        return out

    # -- accounting ----------------------------------------------------

    def count(self, group: ParamGroup | None = None, trainable: bool | None = None) -> int:
        """Total number of scalar parameters matching the filters."""
        return sum(p.size for p in self.params(group, trainable))

    def trainable_ratio(self) -> float:
        """Trainable / total parameters, as a percentage."""
        total = self.count()
        if total == 0:
            return 0.0
        return 100.0 * self.count(trainable=True) / total

    # -- freezing ------------------------------------------------------

    def set_group_trainable(self, group: ParamGroup, flag: bool) -> None:
        """Set `requires_grad` on every param of `group`; freezing drops a stale grad."""
        for p in self.params(group):
            p.requires_grad = bool(flag)
            if not flag:
                p.grad = None

    # -- state movement --------------------------------------------------

    @contextmanager
    def swap(self, values: dict[str, np.ndarray]):
        """Temporarily substitute parameter data (used for teacher forwards)."""
        saved = {}
        try:
            for name, arr in values.items():
                p = self.get(name)
                saved[name] = p.data
                p.data = arr
            yield self
        finally:
            for name, arr in saved.items():
                self._params[name].data = arr
