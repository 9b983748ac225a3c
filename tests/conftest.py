import numpy as np
import pytest

from tpp import tensor as T


@pytest.fixture(autouse=True)
def clean_tape():
    """Every test starts and ends with an empty tape."""
    T.clear_tape()
    yield
    T.clear_tape()


def tsum(x: T.Tensor) -> T.Tensor:
    """Sum of every entry, as a 0-d tensor: one tape node that turns an output into a loss."""
    x = T._as_tensor(x)
    out = T.Tensor(np.sum(x.data))
    xshape = x.shape

    def vjp(g):
        return (np.broadcast_to(g, xshape).copy(),)

    return T._record(out, (x,), vjp)


def finite_difference(scalar_fn, array: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar_fn w.r.t. `array`, entry by entry.

    scalar_fn takes no arguments and must re-read `array` (which is
    perturbed in place) on every call. This is the independent oracle for
    every analytic gradient in the suite: it only ever evaluates forward
    passes.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = scalar_fn()
        flat[i] = orig - h
        f_minus = scalar_fn()
        flat[i] = orig
        flat_grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def finite_difference_sampled(scalar_fn, array: np.ndarray, indices: np.ndarray,
                              h: float = 1e-6) -> np.ndarray:
    """Central differences at selected flat indices only; returns one value each."""
    flat = array.reshape(-1)
    out = np.zeros(len(indices))
    for j, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = scalar_fn()
        flat[i] = orig - h
        f_minus = scalar_fn()
        flat[i] = orig
        out[j] = (f_plus - f_minus) / (2.0 * h)
    return out


def rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """max over entries of |analytic - numeric| / max(|analytic|, floor)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def rel_err_tensor(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """max |analytic - numeric| normalized by the tensor's gradient scale.

    Whole-tensor comparison: entries that are individually ~0 are judged
    against the largest gradient in the tensor, which keeps central-
    difference roundoff (~1e-10 absolute at h=1e-6) from dominating.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.max(np.abs(analytic))), floor)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def run_forward_loss(loss_builder) -> float:
    """Evaluate a loss builder with grad recording off (for FD oracles)."""
    with T.no_grad():
        return float(loss_builder().data)


def saved_arrays(node) -> list[np.ndarray]:
    """The arrays a tape node's vjp closure keeps alive."""
    cells = node.vjp.__closure__ or ()
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]
