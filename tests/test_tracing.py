"""The benchmark's span tracer still finds every name it wraps on ``coss``.

``perfbench/tracing.py`` replaces functions by name in the modules that
call them (``compose_batch``, ``forward``, ``sgd_step`` ... on
``coss.distill``; ``build_index`` and the eval functions on ``coss.cli``),
so a refactor that renames or drops one breaks ``perfbench/run.py --trace 1``
without failing any other test.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib

import numpy as np
from tracing import Tracer

tracer = Tracer()
tracer.install(cli=importlib.import_module("coss.cli"))

from coss import Dataset, DistillConfig, MlpSpec, build_index, forward, init_model

D = importlib.import_module("coss.distill")  # coss.distill on the package is the function
X = np.random.default_rng(0).normal(size=(24, 6))
teacher = init_model(MlpSpec((6, 5)), seed=1)
index = build_index(forward(teacher, X)[0], pool=4)
cfg = DistillConfig(k=2, pool=4, batch_size=8, epochs=1, student_hidden=(7,), student_dim=3)
D.distill(cfg, Dataset(X), teacher, index)

inside = {name for name, in_distill, *_ in tracer.export()["spans"] if in_distill}
expected = {"data.compose_batch", "data.augment", "knn.sample_neighbors", "models.forward_teacher",
            "models.forward_student", "models.backward", "models.sgd_step"}
assert expected <= inside, sorted(expected - inside)
assert tracer.steps == 3, tracer.steps
"""


def test_tracer_installs_and_sees_every_step_phase():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
