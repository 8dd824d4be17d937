import re
from pathlib import Path

from conftest import rel_l2

README = Path(__file__).resolve().parents[1] / "README.md"


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
