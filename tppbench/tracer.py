"""Outside-in tracer for the `tpp` package.

The tracer replaces public functions and methods of the `tpp` modules with
timing wrappers for the length of a `with Tracer(...)` block and puts every
original back on exit. The package source is never edited: all spans are
recorded at the boundaries of calls into each module.

A span is (name, parent span, start, end). Spans are kept in memory and
rolled up when the traced section ends (`Tracer.metrics`). A name's `_ms`
total includes the time of its child spans; `_self_ms` subtracts the part
of the span covered by direct children. Counts are exact.

Functions imported by value (`from .pretext import augment`) are wrapped at
every binding in every loaded `tpp` module, so `pipeline.augment`,
`cli.evaluate` and `pretext.gaussian_filter` are covered like the originals.
An entry point that no longer exists is skipped and listed in `missing`, so
a later change that removes a function leaves its metrics at 0 instead of
breaking the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Tape primitives traced one by one: forward time, backward time (the vjp of
# the node the primitive records) and call count for each.
TENSOR_OPS = ("matmul", "add", "mul", "scale", "gelu", "layer_norm", "softmax",
              "transpose", "reshape", "concat", "narrow", "take_tokens",
              "scatter_tokens", "mse_masked", "soft_cross_entropy", "cross_entropy")

# (module, attribute path, span name, kind). Kinds:
#   func   module-level function, wrapped at every binding in tpp modules
#   method function attribute of a class
#   cmeth  classmethod of a class
#   cm     function returning a context manager; enter and exit are timed
# Entries with special handling are listed with their own kind.
ENTRY_POINTS = (
    [("tpp.tensor", op, f"tensor.{op}.fwd", "op") for op in TENSOR_OPS]
    + [
        ("tpp.tensor", "backward", "tensor.backward", "func"),
        ("tpp.tensor", "clear_tape", "tensor.clear", "clear"),
        ("tpp.vit", "VisionTransformer.embed_patches", "vit.embed_patches", "method"),
        ("tpp.vit", "VisionTransformer.forward_features", "vit.forward_features", "method"),
        ("tpp.vit", "TransformerBlock.__call__", "vit.block_fwd", "method"),
        ("tpp.vit", "Linear.__call__", "vit.linear_fwd", "linear"),
        ("tpp.vit", "ClassificationHead.__call__", "vit.head_fwd", "method"),
        ("tpp.vit", "SegmentationHead.__call__", "vit.head_fwd", "method"),
        ("tpp.peft", "attach", "peft.attach", "func"),
        ("tpp.peft", "reinit_target_params", "peft.reinit", "func"),
        ("tpp.pretext", "sample_mask", "pretext.sample_mask", "func"),
        ("tpp.pretext", "MaskedReconstruction.forward", "pretext.mae_forward", "method"),
        ("tpp.pretext", "augment", "pretext.augment", "func"),
        ("tpp.pretext", "gaussian_filter", "pretext.blur", "func"),
        ("tpp.pretext", "SelfDistillation.teacher_forward", "pretext.teacher_forward", "method"),
        ("tpp.pretext", "SelfDistillation.student_forward", "pretext.student_forward", "student"),
        ("tpp.pretext", "dino_loss", "pretext.dino_loss", "func"),
        ("tpp.pretext", "teacher_update", "pretext.teacher_update", "func"),
        ("tpp.rng", "SeededRng.__init__", "rng.derive", "method"),
        ("tpp.data", "generate_synthetic", "data.generate", "func"),
        ("tpp.data", "bilinear_resize", "data.bilinear_resize", "func"),
        ("tpp.optim", "AdamW.step", "optim.step", "method"),
        ("tpp.optim", "AdamW.zero_grad", "optim.zero_grad", "method"),
        ("tpp.registry", "ParamRegistry.swap", "registry.swap", "cm"),
        ("tpp.checkpoint", "Checkpoint.from_registry", "checkpoint.snapshot", "cmeth"),
        ("tpp.checkpoint", "Checkpoint.save", "checkpoint.save", "method"),
        ("tpp.checkpoint", "Checkpoint.load", "checkpoint.load", "cmeth"),
        ("tpp.checkpoint", "Checkpoint.apply_to_registry", "checkpoint.apply", "method"),
        ("tpp.checkpoint", "audit_freeze", "checkpoint.audit", "func"),
        ("tpp.checkpoint", "fnv1a64", "checkpoint.hash", "hash"),
        ("tpp.metrics", "segmentation_report", "metrics.segmentation_report", "func"),
        ("tpp.metrics", "hd95", "metrics.hd95", "func"),
        ("tpp.pipeline", "build_bundle", "pipeline.build_bundle", "func"),
        ("tpp.pipeline", "run_stage", "pipeline.run_stage", "run_stage"),
        ("tpp.pipeline", "evaluate", "pipeline.evaluate", "func"),
        ("tpp.cli", "main", "cli.main", "cli"),
        ("tpp.config", "ExperimentConfig.load", "config.load", "cmeth"),
    ]
)

# cli verb -> metric prefix of its traced wall time
CLI_VERBS = {"pretrain-backbone": "cli.pretrain", "tpp": "cli.tpp",
             "finetune": "cli.finetune", "audit": "cli.audit"}


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for op in TENSOR_OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
        units[f"tensor.{op}.calls"] = "count"
    units.update({
        "tensor.backward_self_ms": "ms", "tensor.nodes_per_step": "count",
        "tensor.out_mb_per_step": "MB", "tensor.clear_ms": "ms",
        "vit.embed_patches_ms": "ms", "vit.forward_features_ms": "ms",
        "vit.block_fwd_ms": "ms", "vit.linear_fwd_ms": "ms", "vit.head_fwd_ms": "ms",
        "vit.forward_features_calls": "count",
        "peft.insert_fwd_ms": "ms", "peft.attach_ms": "ms", "peft.reinit_ms": "ms",
        "pretext.sample_mask_ms": "ms", "pretext.sample_mask_calls": "count",
        "pretext.mae_forward_ms": "ms", "pretext.augment_ms": "ms",
        "pretext.augment_calls": "count", "pretext.blur_ms": "ms",
        "pretext.teacher_forward_ms": "ms", "pretext.student_forward_ms": "ms",
        "pretext.dino_loss_ms": "ms", "pretext.teacher_update_ms": "ms",
        "rng.derive_calls": "count", "rng.derive_ms": "ms",
        "data.generate_ms": "ms", "data.bilinear_resize_ms": "ms",
        "data.bilinear_resize_calls": "count",
        "optim.step_ms": "ms", "optim.zero_grad_ms": "ms", "optim.steps": "count",
        "registry.swap_ms": "ms",
        "checkpoint.snapshot_ms": "ms", "checkpoint.save_ms": "ms",
        "checkpoint.load_ms": "ms", "checkpoint.apply_ms": "ms",
        "checkpoint.audit_ms": "ms", "checkpoint.hash_ms": "ms",
        "checkpoint.hash_calls": "count", "checkpoint.hashed_mb": "MB",
        "metrics.segmentation_report_ms": "ms", "metrics.hd95_ms": "ms",
        "metrics.hd95_calls": "count",
        "pipeline.build_bundle_ms": "ms", "pipeline.run_stage_self_ms": "ms",
        "pipeline.evaluate_ms": "ms", "pipeline.evaluate_calls": "count",
        "pipeline.steps": "count",
        "cli.main_self_ms": "ms", "config.load_ms": "ms",
    })
    for prefix in CLI_VERBS.values():
        units[f"{prefix}_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


class _TimedContext:
    """Context manager proxy that records a span around enter and exit."""

    __slots__ = ("_tracer", "_nid", "_cm")

    def __init__(self, tracer, nid, cm):
        self._tracer, self._nid, self._cm = tracer, nid, cm

    def __enter__(self):
        self._tracer._begin(self._nid)
        try:
            return self._cm.__enter__()
        finally:
            self._tracer._end()

    def __exit__(self, *exc):
        self._tracer._begin(self._nid)
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer._end()


class Tracer:
    """Install timing wrappers on enter, restore every original on exit."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name id, parent index, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.extra_s: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> None:
        stack = self._stack
        stack.append(len(self.spans))
        self.spans.append([nid, stack[-2] if len(stack) > 1 else -1,
                           time.perf_counter(), 0.0])

    def _end(self) -> float:
        span = self.spans[self._stack.pop()]
        span[3] = time.perf_counter()
        return span[3] - span[2]

    def _current(self) -> int:
        return self.spans[self._stack[-1]][0] if self._stack else -1

    def wrap(self, fn, name: str):
        """Return `fn` wrapped in a span named `name`."""
        nid = self._nid(name)

        def traced(*args, **kwargs):
            self._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()

        return traced

    # -- wrappers with extra bookkeeping -------------------------------------

    def _wrap_op(self, fn, name: str):
        fwd = self._nid(name)
        bwd_name = name[:-len(".fwd")] + ".bwd"
        self._nid(bwd_name)
        counts = self.counts

        def traced(*args, **kwargs):
            self._begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end()
            node = getattr(out, "node", None)
            if node is not None and node.vjp is not None:
                node.vjp = self.wrap(node.vjp, bwd_name)
                counts["tensor.out_bytes"] += out.data.nbytes
            return out

        return traced

    def _wrap_clear(self, fn, name: str):
        tensor = sys.modules["tpp.tensor"]
        traced_fn = self.wrap(fn, name)

        def traced(*args, **kwargs):
            self.counts["tensor.nodes"] += len(tensor.tape())
            return traced_fn(*args, **kwargs)

        return traced

    def _wrap_linear(self, fn, name: str):
        backbone, insert = self._nid(name), self._nid("peft.insert_fwd")
        target = sys.modules["tpp.registry"].ParamGroup.TARGET

        def traced(layer, *args, **kwargs):
            weight = layer.weight
            is_insert = weight.group is target and not weight.name.startswith("pretext.")
            self._begin(insert if is_insert else backbone)
            try:
                return fn(layer, *args, **kwargs)
            finally:
                self._end()

        return traced

    def _wrap_student(self, fn, name: str):
        # the teacher forward calls the student forward under swapped weights;
        # that call is counted as teacher time only
        traced_fn = self.wrap(fn, name)
        teacher = self._nid("pretext.teacher_forward")

        def traced(*args, **kwargs):
            if self._current() == teacher:
                return fn(*args, **kwargs)
            return traced_fn(*args, **kwargs)

        return traced

    def _wrap_hash(self, fn, name: str):
        traced_fn = self.wrap(fn, name)

        def traced(data, *args, **kwargs):
            self.counts["checkpoint.hashed_bytes"] += len(data)
            return traced_fn(data, *args, **kwargs)

        return traced

    def _wrap_run_stage(self, fn, name: str):
        traced_fn = self.wrap(fn, name)

        def traced(*args, **kwargs):
            result = traced_fn(*args, **kwargs)
            self.counts["pipeline.steps"] += len(result[1].losses())
            return result

        return traced

    def _wrap_cli(self, fn, name: str):
        nid = self._nid(name)

        def traced(argv=None):
            verb = CLI_VERBS.get(argv[0]) if argv else None
            self._begin(nid)
            try:
                return fn(argv)
            finally:
                elapsed = self._end()
                if verb:
                    self.extra_s[verb] += elapsed

        return traced

    def _wrap_cm(self, fn, name: str):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            return _TimedContext(self, nid, fn(*args, **kwargs))

        return traced

    # -- install / remove ----------------------------------------------------

    def _make(self, kind: str, fn, name: str):
        return {
            "func": self.wrap, "method": self.wrap, "op": self._wrap_op,
            "clear": self._wrap_clear, "linear": self._wrap_linear,
            "student": self._wrap_student, "hash": self._wrap_hash,
            "run_stage": self._wrap_run_stage, "cli": self._wrap_cli,
            "cm": self._wrap_cm,
        }[kind](fn, name)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        # a tracer can be entered again; its spans and counts accumulate
        self._patches, self.missing = [], []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tpp" or n.startswith("tpp.")) and m is not None]
        for module_name, path, name, kind in ENTRY_POINTS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            if kind == "cmeth":
                self._patch(owner, attr, classmethod(self.wrap(original.__func__, name)))
            elif owner is module:
                wrapped = self._make(kind, original, name)
                for m in modules:  # every binding, including imports by value
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, binding, wrapped)
            else:
                self._patch(owner, attr, self._make(kind, original, name))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        return False

    def leftover_wrappers(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if vars(owner).get(attr) is not original]

    def entry_points_without_spans(self) -> list[str]:
        """Wrapped names that recorded no span (fidelity check)."""
        seen = {span[0] for span in self.spans}
        hit_names = {self._names[nid] for nid in seen}
        expected = {f"tensor.{op}.bwd" for op in TENSOR_OPS}
        for _, path, name, kind in ENTRY_POINTS:
            expected.add(name)
            if kind == "linear":
                expected.add("peft.insert_fwd")
        return sorted(expected - hit_names)

    # -- roll-up --------------------------------------------------------------

    def metrics(self, iterations: int, overhead_pct: float) -> dict[str, float]:
        """Per-layer metrics: totals per traced iteration, counts exact."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for nid, parent, start, end in self.spans:
            duration = end - start
            total[nid] += duration
            calls[nid] += 1
            if parent >= 0:
                child[parent] += duration
        self_time = defaultdict(float)
        for index, (nid, _, start, end) in enumerate(self.spans):
            self_time[nid] += (end - start) - child[index]

        def ms(name, selfonly=False):
            nid = self._ids.get(name)
            if nid is None:
                return 0.0
            return 1e3 * (self_time if selfonly else total)[nid] / iterations

        def n(name):
            nid = self._ids.get(name)
            return (calls[nid] if nid is not None else 0) / iterations

        steps = n("optim.step")
        per_step = (lambda v: v / (steps * iterations)) if steps else (lambda v: 0.0)
        out = {}
        for op in TENSOR_OPS:
            out[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}.fwd")
            out[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
            out[f"tensor.{op}.calls"] = n(f"tensor.{op}.fwd")
        out["tensor.backward_self_ms"] = ms("tensor.backward", selfonly=True)
        out["tensor.nodes_per_step"] = per_step(self.counts["tensor.nodes"])
        out["tensor.out_mb_per_step"] = per_step(self.counts["tensor.out_bytes"]) / 1e6
        out["tensor.clear_ms"] = ms("tensor.clear")
        for key in ("embed_patches", "forward_features", "block_fwd", "linear_fwd",
                    "head_fwd"):
            out[f"vit.{key}_ms"] = ms(f"vit.{key}")
        out["vit.forward_features_calls"] = n("vit.forward_features")
        out["peft.insert_fwd_ms"] = ms("peft.insert_fwd")
        out["peft.attach_ms"] = ms("peft.attach")
        out["peft.reinit_ms"] = ms("peft.reinit")
        for key in ("sample_mask", "mae_forward", "augment", "blur", "teacher_forward",
                    "student_forward", "dino_loss", "teacher_update"):
            out[f"pretext.{key}_ms"] = ms(f"pretext.{key}")
        out["pretext.sample_mask_calls"] = n("pretext.sample_mask")
        out["pretext.augment_calls"] = n("pretext.augment")
        out["rng.derive_calls"] = n("rng.derive")
        out["rng.derive_ms"] = ms("rng.derive")
        out["data.generate_ms"] = ms("data.generate")
        out["data.bilinear_resize_ms"] = ms("data.bilinear_resize")
        out["data.bilinear_resize_calls"] = n("data.bilinear_resize")
        out["optim.step_ms"] = ms("optim.step")
        out["optim.zero_grad_ms"] = ms("optim.zero_grad")
        out["optim.steps"] = steps
        out["registry.swap_ms"] = ms("registry.swap")
        for key in ("snapshot", "save", "load", "apply", "audit", "hash"):
            out[f"checkpoint.{key}_ms"] = ms(f"checkpoint.{key}")
        out["checkpoint.hash_calls"] = n("checkpoint.hash")
        out["checkpoint.hashed_mb"] = self.counts["checkpoint.hashed_bytes"] / 1e6 / iterations
        out["metrics.segmentation_report_ms"] = ms("metrics.segmentation_report")
        out["metrics.hd95_ms"] = ms("metrics.hd95")
        out["metrics.hd95_calls"] = n("metrics.hd95")
        out["pipeline.build_bundle_ms"] = ms("pipeline.build_bundle")
        out["pipeline.run_stage_self_ms"] = ms("pipeline.run_stage", selfonly=True)
        out["pipeline.evaluate_ms"] = ms("pipeline.evaluate")
        out["pipeline.evaluate_calls"] = n("pipeline.evaluate")
        out["pipeline.steps"] = self.counts["pipeline.steps"] / iterations
        out["cli.main_self_ms"] = ms("cli.main", selfonly=True)
        out["config.load_ms"] = ms("config.load")
        for prefix in CLI_VERBS.values():
            out[f"{prefix}_ms"] = 1e3 * self.extra_s[prefix] / iterations
        out["trace.overhead_pct"] = overhead_pct
        return out
