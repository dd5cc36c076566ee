"""The pipeline, the worker pool and the daemon run without numpy.

Only the clustering ablations (``CachedBodyDistance.matrix()``) import
numpy.  Each run below is a fresh interpreter: once with numpy made
unimportable before ``repro`` is imported, once as normal.  The two
must print the same extractions and answer the same lookup, and the
normal run must not have loaded numpy either.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.graph.oem import dumps_oem
from repro.synth.datasets import make_dbg

SRC = Path(__file__).resolve().parents[2] / "src"

_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys

    if sys.argv[2] == "block":
        sys.modules["numpy"] = None

    from repro.cli import main
    from repro.graph.oem import load_oem
    from repro.service.session import DatasetSession

    path = sys.argv[1]
    out = {}
    for name, argv in (
        ("extract", ["extract", path]),
        ("extract_jobs2", ["extract", path, "-k", "4", "--jobs", "2"]),
    ):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0
        out[name] = buffer.getvalue()
    session = DatasetSession(load_oem(path), k=4, jobs=2)
    anchor = sorted(session.db.complex_objects())[0]
    session.note_changes(session.apply_batch(
        [("add-object", "probe"), ("add-link", "probe", anchor, "probe")]
    ))
    assert session.refresh()
    out["lookup"] = session.lookup("probe")
    out["numpy_loaded"] = sys.modules.get("numpy") is not None
    print(json.dumps(out, sort_keys=True))
    """
)


def _run(path, mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(path), mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_outputs_match_with_numpy_unimportable(tmp_path):
    path = tmp_path / "dbg.oem"
    path.write_text(dumps_oem(make_dbg(seed=5)), encoding="utf-8")
    blocked = _run(path, "block")
    normal = _run(path, "normal")
    assert blocked.pop("numpy_loaded") is False
    assert normal.pop("numpy_loaded") is False
    assert blocked == normal
    assert "optimal types: 4" in blocked["extract_jobs2"]
    assert blocked["lookup"]["types"]
