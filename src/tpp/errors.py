"""Exception taxonomy shared across the package.

All argument/shape problems derive from ValueError so callers can catch
broadly; state and structural problems derive from RuntimeError.
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ArgumentError(ValueError):
    """A value is outside the operation's documented domain."""


class StateError(RuntimeError):
    """The object is not in a state that permits the requested operation."""


class StructuralError(RuntimeError):
    """Two structures (registries, checkpoints) that must match do not."""


class ConfigError(ValueError):
    """An experiment config is malformed or internally inconsistent."""


class NonFiniteScores(RuntimeError):
    """The model's outputs on an evaluated split are not all finite."""


class TrainingDiverged(RuntimeError):
    """Loss (or, at a val site, the val scores) became non-finite; carries diagnostic context."""

    def __init__(self, step: int, lr: float, loss_history: list[float], what: str = "loss"):
        self.step = step
        self.lr = lr
        self.loss_history = list(loss_history)
        tail = ", ".join(f"{v:.6g}" for v in self.loss_history[-8:])
        super().__init__(
            f"non-finite {what} at step {step} (lr={lr:.6g}); recent losses: [{tail}]"
        )
