"""The benchmark's canary: each `tppbench` workload's tiny pass on seed 0.

`run.Run.canary` runs a workload's tiny variant in a fresh directory and
checks it: no failures, and outputs within rel 1e-12 of the `<name>:tiny`
entry of `tppbench/references.json`. `run.py --smoke` runs the same passes,
but it also checks the tracer's entry points, so it fails whenever a traced
function is renamed; `test_no_other_traced_name_is_missing` checks the
entry points here too. Nothing under `tppbench/` is written.
"""

import importlib.util
import os
import sys

import pytest

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tppbench", "run.py")


def _load_run():
    """Import `tppbench/run.py` (which puts `tppbench/` on the path), `workloads` and `tracer`."""
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__
    try:
        spec = importlib.util.spec_from_file_location("tppbench_run", RUN_PY)
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
    return run, workloads, tracer


run, workloads, tracer = _load_run()

# the traced names that no longer exist; ROADMAP item 1 repoints or drops each
KNOWN_MISSING = {
    "tpp.tensor.matmul",       # deleted: each block's attention is one `T.attention` node
    "tpp.tensor.scale",        # deleted: its calls are `T.mul` calls
    "tpp.checkpoint.fnv1a64",  # renamed: `checkpoint.content_hash` (BLAKE2b-64)
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_matches_its_reference(name, tmp_path):
    assert run.CANARY_SEED == 0
    bench = run.Run(workloads.WORKLOADS[name](), str(tmp_path), run.load_references())
    bench.canary()
    assert bench.failures == []


def test_no_other_traced_name_is_missing():
    """A rename of a traced function or method fails here, not only in `--smoke`."""
    with tracer.Tracer() as traced:
        pass
    assert set(traced.missing) <= KNOWN_MISSING
    assert not traced.leftover_wrappers()
