"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every differentiable primitive records a node on a process-global tape,
one list of nodes (a Wengert list: append order is topological order).
``backward`` walks it in strict reverse append order, propagating cotangents.

Contracts the rest of the package relies on:

* all data is float64; results are deterministic for a fixed op sequence;
* ``requires_grad`` is the one grad flag: trainable leaves (model
  parameters are tensors, see ``registry.Param``) and recorded outputs have it;
* leaf tensors with ``requires_grad=True`` accumulate into ``.grad``
  across ``backward`` calls until the grad is explicitly zeroed;
* tensors with ``requires_grad=False`` never receive a grad buffer, and
  no vector-Jacobian product is ever evaluated for them (frozen
  parameters cost nothing beyond the forward pass);
* an op records a node only if at least one input has ``requires_grad``,
  so subgraphs built purely from frozen values stay off the tape;
* the tape holds only what a needed cotangent reads. A node links to its
  parents' nodes and to trainable leaves, never to intermediate tensors,
  and its vjp closure keeps only the arrays that the cotangents needed at
  record time read. A `linear` node whose weight and LoRA A are frozen
  saves no input, a `layer_norm` that trains only its SSF shift saves
  nothing, and an `attention` whose q and k are frozen keeps only its
  attention weights: the input dies as soon as the forward drops it;
* what a vjp can rebuild bit for bit from arrays it keeps anyway, it
  rebuilds instead of keeping. An SSF `layer_norm` that keeps xhat rebuilds
  its output from it, and an `attention` whose q and k both train (so it
  keeps their heads) rebuilds its weights in batch blocks from the row max
  and row sum of the softmax. Each rebuild repeats the forward's ops on the
  same operands, so no bit of a cotangent depends on it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np

from .errors import ArgumentError, ShapeError, StateError


def _load_erf():
    """`scipy.special.erf`, the same ufunc object, loaded from the one compiled
    module that defines it. `scipy.special`'s `__init__` would add ~300 ms and
    ~20 MB of modules the package never calls (it clones numpy's namespace,
    pulling in `numpy.f2py` and `numpy.testing`), paid by every process."""
    name = "scipy.special._special_ufuncs"
    scipy_spec = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    special = os.path.join(scipy_spec.submodule_search_locations[0] if scipy_spec else "scipy",
                           "special")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(special, "_special_ufuncs" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)  # registers itself: `scipy.special` reuses it
            return module.erf
    raise ImportError(f"GELU needs scipy>=1.17.1, whose compiled _special_ufuncs module "
                      f"defines erf; {special} has none")


erf = _load_erf()

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN_EPS = 1e-5
_GELU_BLOCK = 32768  # elements: 256 KiB of float64, see `gelu`
_ATTN_BLOCK = 131072  # scores: 1 MiB of float64, see `attention`


class Node:
    """One recorded primitive: links to its inputs plus a vector-Jacobian product.

    ``parents`` has one entry per input: the input's node if a recorded op
    made it, the input tensor if it is a trainable leaf, else None. It
    never holds an intermediate ``Tensor``. ``vjp(g)`` returns one cotangent
    per parent (None for parents that do not need one). Its closure holds
    only the arrays that those cotangents read, chosen when the op records
    (a frozen-weight linear keeps the weight, not its input), less those it
    rebuilds exactly from what it keeps (an SSF layer norm's output from
    xhat, attention weights from q's and k's heads and two row
    statistics); they are freed when the tape is cleared. ``idx`` is the
    node's position on the tape.
    """

    __slots__ = ("parents", "vjp", "idx", "alive")

    def __init__(self, parents, vjp, idx):
        self.parents = parents
        self.vjp = vjp
        self.idx = idx
        self.alive = True


_TAPE: list[Node] = []  # append-only op record; cleared between training steps
_GRAD_ENABLED = True


def tape() -> list[Node]:
    return _TAPE


def clear_tape() -> None:
    """Free all saved activations; recorded results can no longer backprop."""
    for node in _TAPE:
        node.alive = False
        node.vjp = None
        node.parents = ()
    _TAPE.clear()


class no_grad:
    """Context manager: ops inside record nothing on the tape."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """n-dimensional float64 array; ``node`` is its tape node, None for a leaf."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    # -- basics ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flags = []
        if self.requires_grad:
            flags.append("requires_grad")
        if self.node is not None:
            flags.append("taped")
        tag = (" " + ",".join(flags)) if flags else ""
        return f"Tensor(shape={list(self.shape)}{tag})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _link(t: Tensor) -> Node | Tensor | None:
    if t.node is not None:
        if not t.node.alive:  # its index now names another node's slot
            raise StateError("op input was computed on a tape that has since been cleared")
        return t.node
    return t if t.requires_grad else None


def _record(out: Tensor, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Attach a tape node if recording is on and any parent has requires_grad.

    The node links to the parents' nodes or trainable leaves (see `Node`),
    so only `vjp` keeps arrays alive: each primitive captures just the
    arrays that the cotangents of its requires_grad inputs read.
    """
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.node = Node(tuple(_link(p) for p in parents), vjp, len(_TAPE))
        _TAPE.append(out.node)
        out.requires_grad = True
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a cotangent down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _scale_shift_vjp(g, x, scale, nx, nscale, nshift):
    """Cotangents (x, scale, shift) of y = x * scale + shift; None where a flag is off."""
    # the column sums first: x's cotangent is never alive beside g * x
    gscale = (g * x).reshape(-1, g.shape[-1]).sum(axis=0) if nscale else None
    gshift = g.reshape(-1, g.shape[-1]).sum(axis=0) if nshift else None
    return (g * scale if nx else None), gscale, gshift


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {list(a.shape)} and {list(b.shape)} are not broadcastable"
        ) from None


# -- elementwise -----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)
    ash, bsh = a.shape, b.shape
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        ga = _unbroadcast(g, ash) if na else None
        gb = _unbroadcast(g, bsh) if nb else None
        return ga, gb

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)
    ash, bsh = a.shape, b.shape
    na, nb = a.requires_grad, b.requires_grad
    # each cotangent reads only the other operand
    ad = a.data if nb else None
    bd = b.data if na else None

    def vjp(g):
        ga = _unbroadcast(g * bd, ash) if na else None
        gb = _unbroadcast(g * ad, bsh) if nb else None
        return ga, gb

    return _record(out, (a, b), vjp)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    When it records, the derivative cdf + x * pdf is computed in the forward
    and is the one array the node keeps.

    The work runs in place, in blocks of `_GELU_BLOCK` elements (128 rows of
    256): the input block and the cdf and derivative blocks, 256 KiB each,
    stay together in a 2 MiB per-core L2, where whole-array passes over a
    [2176, 256] activation (4.4 MB) would stream each temporary through
    memory. Every product and sum keeps the operands of the whole-array
    formula, so the bits do not depend on the blocking.
    """
    x = _as_tensor(x)
    xd = x.data
    grad = _GRAD_ENABLED and x.requires_grad
    y = np.empty(xd.shape)  # a block holds the cdf, then x * cdf
    dydx = np.empty(xd.shape) if grad else None
    xs, ys = xd.reshape(-1), y.reshape(-1)
    ds = dydx.reshape(-1) if grad else None
    for lo in range(0, xs.size, _GELU_BLOCK):
        block = slice(lo, lo + _GELU_BLOCK)
        xb, cdf = xs[block], ys[block]
        erf(np.multiply(xb, _INV_SQRT2, out=cdf), out=cdf)
        cdf += 1.0
        cdf *= 0.5
        if grad:
            d = np.multiply(xb, -0.5, out=ds[block])
            d *= xb
            np.exp(d, out=d)
            d *= _INV_SQRT2PI
            d *= xb
            d += cdf
        cdf *= xb
    out = Tensor(y)
    if not grad:
        return out

    def vjp(g):
        return (g * dydx,)

    return _record(out, (x,), vjp)


# -- shape ops ---------------------------------------------------------------


def linear(x, weight, bias, lora=None, ssf=None) -> Tensor:
    """x @ weight + bias with a layer's PEFT terms, as one node.

    x is [..., K], weight [K, M] and bias [M]; the leading axes of x are the
    rows of one GEMM. `lora = (A, B, s)` adds s * ((x @ A) @ B), with A
    [K, r] and B [r, M]. `ssf = (gamma, beta)` then scales and shifts each
    output channel. The node keeps x only when the weight or A trains, the
    unmodulated output only when gamma trains, and x @ A only when B trains.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if weight.ndim != 2 or x.shape[-1:] != weight.shape[:1]:
        raise ShapeError(
            f"linear: inner dimensions disagree for {list(x.shape)} @ {list(weight.shape)}"
        )
    k, m = weight.shape
    xshape = x.shape
    x2 = x.data.reshape(-1, k)
    y = x2 @ weight.data
    y += bias.data
    parents = [x, weight, bias]
    na = nb = ngamma = nbeta = False
    s = None
    if lora is not None:
        a, b, s = lora
        xa = x2 @ a.data
        y += (xa @ b.data) * s
        parents += [a, b]
        na, nb = a.requires_grad, b.requires_grad
    y0 = y
    if ssf is not None:
        gamma, beta = ssf
        y = y0 * gamma.data
        y += beta.data
        parents += [gamma, beta]
        ngamma, nbeta = gamma.requires_grad, beta.requires_grad
    out = Tensor(y.reshape(xshape[:-1] + (m,)))
    nx, nw, nbias = x.requires_grad, weight.requires_grad, bias.requires_grad
    has_lora, has_ssf = lora is not None, ssf is not None
    nlora = nx or na or nb  # needs the cotangent of the LoRA term
    ny = nlora or nw or nbias  # needs the cotangent of the unmodulated output
    xd = x.data if (nw or na) else None
    wd = weight.data if nx else None
    ad = a.data if (has_lora and nx) else None
    bd = b.data if (has_lora and (nx or na)) else None
    xa = xa if nb else None
    y0 = y0 if ngamma else None
    gd = gamma.data if (has_ssf and ny) else None

    def vjp(g):
        g = g.reshape(-1, m)
        glora = ()
        g, *gssf = _scale_shift_vjp(g, y0, gd, ny, ngamma, nbeta) if has_ssf else (g,)
        if has_lora:
            gl = g * s if nlora else None
            gxa = gl @ bd.T if (nx or na) else None
            glora = (xd.reshape(-1, k).T @ gxa if na else None,
                     xa.T @ gl if nb else None)
        gx = None
        if nx:
            gx = g @ wd.T
            if has_lora:
                gx += gxa @ ad.T
            gx = gx.reshape(xshape)
        gw = xd.reshape(-1, k).T @ g if nw else None
        gbias = g.sum(axis=0) if nbias else None
        return (gx, gw, gbias, *glora, *gssf)

    return _record(out, tuple(parents), vjp)


def transpose(x: Tensor, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    out = Tensor(np.transpose(x.data, axes))
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _record(out, (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.shape
    out = Tensor(np.reshape(x.data, shape))

    def vjp(g):
        return (np.reshape(g, old),)

    return _record(out, (x,), vjp)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(_as_tensor(t) for t in tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    needs = [t.requires_grad for t in tensors]

    def vjp(g):
        grads = []
        for i, need in enumerate(needs):
            if need:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[i], offsets[i + 1])
                grads.append(g[tuple(sl)])
            else:
                grads.append(None)
        return tuple(grads)

    return _record(out, tensors, vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along `axis`, starting at `start`."""
    x = _as_tensor(x)
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow: [{start}, {start + length}) out of range for axis {axis} of {list(x.shape)}"
        )
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(x.data[sl])
    xshape = x.shape

    def vjp(g):
        gx = np.zeros(xshape)
        gx[sl] = g
        return (gx,)

    return _record(out, (x,), vjp)


def take_tokens(x: Tensor, idx: np.ndarray) -> Tensor:
    """Per-sample token gather: x [B, N, d], idx [B, K] -> [B, K, d]."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    if x.ndim != 3 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ShapeError(
            f"take_tokens: expected x [B,N,d] and idx [B,K], got {list(x.shape)} and {list(idx.shape)}"
        )
    batch = np.arange(x.shape[0])[:, None]
    out = Tensor(x.data[batch, idx])
    xshape = x.shape

    def vjp(g):
        gx = np.zeros(xshape)
        np.add.at(gx, (batch, idx), g)
        return (gx,)

    return _record(out, (x,), vjp)


def scatter_tokens(visible: Tensor, idx: np.ndarray, fill: Tensor, num_tokens: int) -> Tensor:
    """Place per-sample tokens back into a full sequence.

    visible [B, V, d] goes to positions idx [B, V]; every other position
    receives the shared `fill` token (shape [d]). Returns [B, num_tokens, d].
    """
    visible, fill = _as_tensor(visible), _as_tensor(fill)
    idx = np.asarray(idx, dtype=np.intp)
    bsz, nvis, dim = visible.shape
    if fill.data.reshape(-1).shape[0] != dim:
        raise ShapeError(f"scatter_tokens: fill has {fill.size} values, expected {dim}")
    batch = np.arange(bsz)[:, None]
    data = np.tile(fill.data.reshape(1, 1, dim), (bsz, num_tokens, 1))
    data[batch, idx] = visible.data
    out = Tensor(data)
    filled = np.ones((bsz, num_tokens), dtype=bool)
    filled[batch, idx] = False
    nvis, nfill = visible.requires_grad, fill.requires_grad
    fshape = fill.shape

    def vjp(g):
        gvis = g[batch, idx] if nvis else None
        gfill = None
        if nfill:
            gfill = g[filled].sum(axis=0).reshape(fshape)
        return gvis, gfill

    return _record(out, (visible, fill), vjp)


# -- normalization and attention ----------------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, ssf=None) -> Tensor:
    """y0 = xhat * gamma + beta, xhat normalizing the last axis (biased variance, eps 1e-5).

    `ssf = (scale, shift)` returns SSF's y0 * scale + shift from the same node.
    The node keeps xhat only when x or gamma trains. The scale's cotangent
    reads y0: when xhat is kept, the vjp rebuilds y0 as xhat * gamma, then
    += beta, the forward's two ops on the same operands, so its bits are the
    forward's; otherwise the node keeps y0 itself.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    vectors = (gamma, beta) + tuple(ssf or ())
    if any(t.shape != x.shape[-1:] for t in vectors):
        raise ShapeError(f"layer_norm: gamma, beta and the SSF terms must have shape "
                         f"[{x.shape[-1]}], got {[list(t.shape) for t in vectors]}")
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + _LN_EPS)  # biased variance
    xhat = (x.data - x.data.mean(axis=-1, keepdims=True)) * inv
    y = y0 = xhat * gamma.data + beta.data
    nx, ngamma, nbeta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    ny = nx or ngamma or nbeta  # needs the cotangent of y0
    has_ssf, sd, nscale, nshift = ssf is not None, None, False, False
    if has_ssf:
        y = y0 * ssf[0].data
        y += ssf[1].data
        sd = ssf[0].data if ny else None
        nscale, nshift = ssf[0].requires_grad, ssf[1].requires_grad
    out = Tensor(y)
    xhat = xhat if (nx or ngamma) else None  # beta's cotangent reads no saved array
    rebuild = nscale and xhat is not None  # y0 is one multiply-add away from xhat
    y0 = y0 if (nscale and not rebuild) else None
    gd = gamma.data if (nx or rebuild) else None
    bd = beta.data if rebuild else None
    inv = inv if nx else None

    def vjp(g):
        gssf = ()
        if has_ssf:
            y0r = y0
            if rebuild:
                y0r = xhat * gd
                y0r += bd
            g, *gssf = _scale_shift_vjp(g, y0r, sd, ny, nscale, nshift)
        dxhat, ggamma, gbeta = _scale_shift_vjp(g, xhat, gd, nx, ngamma, nbeta)
        gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) if nx else None
        return (gx, ggamma, gbeta, *gssf)

    return _record(out, (x,) + vectors, vjp)


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax of an array along the last axis (rows sum to 1); records nothing."""
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def attention(q, k, v, num_heads: int) -> Tensor:
    """softmax(q kᵀ / sqrt(hd)) v over `num_heads` heads of hd = d / num_heads, as one node.

    q is [B, Sq, d] and k, v [B, S, d]; the heads merge into a [B, Sq, d]
    result. The node keeps q's heads only when k trains, k's only when q
    trains, and v's only when q or k trains.

    When q and k both train, the node keeps their heads anyway, so it keeps
    only the softmax's row max and row sum in place of the attention weights
    p, and the vjp rebuilds p, as FlashAttention does (arXiv 2205.14135).
    Otherwise it keeps p. The vjp works in batch blocks of about
    `_ATTN_BLOCK` scores, so its score-sized temporaries stay in a per-core
    L2. A rebuilt block runs the forward's own ops on the same operands (the
    per-matrix GEMM, `*= scale`, `-= max`, `exp`, `/= sum`), so p and every
    cotangent keep their bits.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or v.shape != k.shape or q.shape[::2] != k.shape[::2] \
            or num_heads < 1 or q.shape[2] % num_heads:
        raise ShapeError(f"attention: need q [B,Sq,d] and k, v [B,S,d] with d divisible by "
                         f"{num_heads}; got {list(q.shape)}, {list(k.shape)}, {list(v.shape)}")
    bsz, sq, d = q.shape
    sk = k.shape[1]
    hd = d // num_heads
    scale = 1.0 / np.sqrt(hd)

    def heads(t):  # [B, S, d] -> a [B, h, S, hd] view
        return np.transpose(np.reshape(t, (bsz, t.shape[1], num_heads, hd)), (0, 2, 1, 3))

    def merge(t):  # [B, h, S, hd] -> [B, S, d]
        return np.reshape(np.transpose(t, (0, 2, 1, 3)), (bsz, t.shape[2], d))

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)

    def weights(b, pmax=None, psum=None):  # the softmax of batch rows b; in place on its scores
        p = np.matmul(qh[b], np.swapaxes(kh[b], -1, -2))
        p *= scale
        if pmax is None:
            pmax = p.max(axis=-1, keepdims=True)
        p -= pmax
        np.exp(p, out=p)
        if psum is None:
            psum = p.sum(axis=-1, keepdims=True)
        p /= psum
        return p, pmax, psum

    p, pmax, psum = weights(slice(None))
    out = Tensor(merge(np.matmul(p, vh)))
    nq, nk, nv = q.requires_grad, k.requires_grad, v.requires_grad
    rebuild = nq and nk  # q's and k's heads are kept either way
    rows = max(1, _ATTN_BLOCK // (num_heads * sq * sk))
    p, pmax, psum = (None, pmax, psum) if rebuild else (p, None, None)
    qh = qh if nk else None
    kh = kh if nq else None
    vh = vh if (nq or nk) else None
    qshape, kshape = q.shape, k.shape

    def vjp(g):
        g = heads(g)
        gq, gk, gv = (np.empty(shape) if need else None
                      for shape, need in ((qshape, nq), (kshape, nk), (kshape, nv)))
        for lo in range(0, bsz, rows):
            b = slice(lo, lo + rows)
            pb = weights(b, pmax[b], psum[b])[0] if rebuild else p[b]
            gb = g[b]
            if nv:
                heads(gv)[b] = np.matmul(np.swapaxes(pb, -1, -2), gb)
            if not (nq or nk):
                continue
            # d/dp becomes d/dscores in place: one score-sized array feeds both products
            gs = np.matmul(gb, np.swapaxes(vh[b], -1, -2))
            gs -= (gs * pb).sum(axis=-1, keepdims=True)
            gs *= pb
            gs *= scale
            if nq:
                heads(gq)[b] = np.matmul(gs, kh[b])
            if nk:
                heads(gk)[b] = np.swapaxes(np.matmul(np.swapaxes(qh[b], -1, -2), gs), -1, -2)
        return gq, gk, gv

    return _record(out, (q, k, v), vjp)


# -- losses ---------------------------------------------------------------


def mse_masked(pred: Tensor, target: Tensor, mask: np.ndarray) -> Tensor:
    """Mean squared error over masked positions only.

    pred/target are [..., N, D]; mask is a boolean [..., N] selecting which
    positions (patches) contribute. Values at unmasked positions never
    influence the result.
    """
    pred, target = _as_tensor(pred), _as_tensor(target)
    mask = np.asarray(mask, dtype=bool)
    if pred.shape != target.shape:
        raise ShapeError(
            f"mse_masked: pred {list(pred.shape)} and target {list(target.shape)} differ"
        )
    if mask.shape != pred.shape[:-1]:
        raise ShapeError(
            f"mse_masked: mask {list(mask.shape)} must match positions {list(pred.shape[:-1])}"
        )
    count = int(mask.sum())
    if count == 0:
        raise ArgumentError("mse_masked: empty mask, average is undefined")
    denom = count * pred.shape[-1]
    diff = (pred.data - target.data) * mask[..., None]
    out = Tensor(np.array((diff * diff).sum() / denom))
    npred, ntarget = pred.requires_grad, target.requires_grad

    def vjp(g):
        base = (2.0 / denom) * diff * g
        gp = base if npred else None
        gt = -base if ntarget else None
        return gp, gt

    return _record(out, (pred, target), vjp)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Stable log-softmax along the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _nll(z: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood of integer labels, classes on the last axis
    of z, and the function that maps its cotangent to d/dz."""
    flat_logp = _log_softmax(z).reshape(-1, z.shape[-1])
    flat_labels = labels.reshape(-1)
    n, shape = flat_labels.shape[0], z.shape

    def grad(g):
        p = np.exp(flat_logp)
        p[np.arange(n), flat_labels] -= 1.0
        return (g / n) * p.reshape(shape)

    return -flat_logp[np.arange(n), flat_labels].mean(), grad


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood; classes along the last axis.

    labels holds integer class indices with shape logits.shape[:-1].
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: labels {list(labels.shape)} must match {list(logits.shape[:-1])}"
        )
    value, grad = _nll(logits.data, labels)
    return _record(Tensor(np.array(value)), (logits,), lambda g: (grad(g),))


def soft_cross_entropy(teacher_probs, student_logits: Tensor, temperature: float = 1.0) -> Tensor:
    """-sum(p_teacher * log softmax(student / T)), averaged over leading dims.

    The teacher distribution is treated as a constant (no gradient flows
    to it); only the student logits are differentiated.
    """
    if not temperature > 0:  # nan included
        raise ArgumentError(f"soft_cross_entropy: temperature must be > 0, got {temperature}")
    student_logits = _as_tensor(student_logits)
    pt = np.asarray(teacher_probs, dtype=np.float64)
    if pt.shape != student_logits.shape:
        raise ShapeError(
            f"soft_cross_entropy: teacher {list(pt.shape)} and student {list(student_logits.shape)} differ"
        )
    logp = _log_softmax(student_logits.data / temperature)
    k = student_logits.shape[-1]
    n = student_logits.data.size // k
    out = Tensor(np.array(-(pt * logp).sum() / n))

    def vjp(g):
        ps = np.exp(logp)
        pt_sum = pt.sum(axis=-1, keepdims=True)
        return ((g / (n * temperature)) * (ps * pt_sum - pt),)

    return _record(out, (student_logits,), vjp)


_DICE_SMOOTH = 1e-5


def dice_ce(logits: Tensor, masks: np.ndarray) -> Tensor:
    """Mean pixel cross-entropy plus the foreground Dice loss (V-Net), as one node.

    logits is [B, C, H, W] with C >= 2; masks holds class indices [B, H, W].
    Dice is 1 - (2*sum(p*q) + s) / (sum(p) + sum(q) + s), with p the class-1
    softmax probability, q the mask as float and s = 1e-5.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(masks, dtype=np.intp)
    if logits.ndim != 4 or logits.shape[1] < 2 or \
            labels.shape != logits.shape[:1] + logits.shape[2:]:
        raise ShapeError(
            f"dice_ce: expected logits [B, C>=2, H, W] and masks [B, H, W], "
            f"got {list(logits.shape)} and {list(labels.shape)}"
        )
    bsz, _, h, w = logits.shape
    # the sums depend on array layout: CE reads the channels-last view,
    # Dice the class-1 slice of the channel softmax
    ce, ce_grad = _nll(np.transpose(logits.data, (0, 2, 3, 1)), labels)
    e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    fg = np.reshape(p[:, 1:2], (bsz, h, w))
    q = labels.astype(np.float64)
    num = np.sum(fg * q) * 2.0 + _DICE_SMOOTH
    den = np.sum(fg) + np.sum(q) + _DICE_SMOOTH
    out = Tensor(np.array(ce + (1.0 - num / den)))

    def vjp(g):
        d_num = -g / den
        d_den = g * num / (den * den)
        g_probs = np.zeros(p.shape)
        g_probs[:, 1:2] = np.reshape(d_den + (d_num * 2.0) * q, (bsz, 1, h, w))
        g_logits = p * (g_probs - (g_probs * p).sum(axis=1, keepdims=True))
        return (g_logits + np.transpose(ce_grad(g), (0, 3, 1, 2)),)

    return _record(out, (logits,), vjp)


# -- backward -----------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-accumulate d loss / d leaf into the grads of trainable leaves.

    Grads accumulate across calls until explicitly zeroed. The tape stays
    intact, so calling backward twice doubles the grads.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ArgumentError("backward: loss must be a scalar Tensor")
    node = loss.node
    if node is None:
        raise StateError("backward: loss is not attached to the tape")
    if not node.alive:
        raise StateError("backward: tape was cleared; cannot backpropagate")
    cot: dict[int, np.ndarray] = {node.idx: np.ones_like(loss.data)}
    for i in range(node.idx, -1, -1):
        g = cot.pop(i, None)
        if g is None:
            continue
        n = _TAPE[i]
        grads = n.vjp(g)
        for parent, pg in zip(n.parents, grads):
            if pg is None or parent is None:
                continue
            if type(parent) is Node:
                j = parent.idx
                prev = cot.get(j)
                cot[j] = pg if prev is None else prev + pg
            elif parent.requires_grad:
                if parent.grad is None:
                    parent.grad = np.array(pg, dtype=np.float64)
                else:
                    parent.grad = parent.grad + pg
