import inspect
import re
from pathlib import Path

import numpy as np
import volterra_lq as vlq

from conftest import rel_l2

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "volterra_lq"

# exported names that no module outside their own and no README line
# refers to, each with the reason it stays in the public surface
UNREFERENCED_EXPORTS = {
    "FredholmSystem": "return type of assemble_fredholm",
    "ReducedSystem": "return type of build_cross_term_reduction",
    "ScenarioReport": "return type of run_scenario",
    "RestrictedOperator": "acceptance criterion 8 sweeps truncations with it",
    "lambda_sigma": "acceptance criterion 8 sweeps truncations with it",
    "solve_galerkin": "test oracle, ROADMAP settled",
    "solve_iterated_galerkin": "test oracle, ROADMAP settled",
    "solve_superconvergent": "test oracle, ROADMAP settled",
}


def test_library_sketch_runs_and_controls_agree():
    # the sketch is the public API's front page: run it as written, so a
    # signature change that forgets the README fails here
    text = README.read_text()
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], f"{README}:Library sketch", "exec"), ns)
    omega = ns["grid"].trapezoid_weights()
    assert rel_l2(omega, ns["u_causal"], ns["u"]) <= 1e-10
    assert rel_l2(omega, ns["u_fb"], ns["u"]) <= 1e-10
    assert np.max(np.abs(ns["g"])) <= 1e-12 * (1.0 + np.max(np.abs(ns["u"])))


def test_every_export_has_a_consumer_or_a_reason():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    readme = README.read_text()
    unreferenced = set()
    for name in vlq.__all__:
        obj = getattr(vlq, name)
        if inspect.ismodule(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[-1]
        texts = [text for stem, text in modules.items() if stem not in (home, "__init__")]
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for text in [*texts, readme]):
            unreferenced.add(name)
    assert unreferenced == set(UNREFERENCED_EXPORTS)
