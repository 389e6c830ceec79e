"""The README's library quick start runs as written, so the documented API
cannot drift from the real signatures."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "expected one python block under '## Library quick start'"
    return blocks[0]


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    verdict = namespace["verdict"]
    assert verdict.kind == "SEMIREGULAR_BIPARTITE" and verdict.params == (2, 1)
    assert verdict.predicted_equality
    assert namespace["report"] == namespace["a"].bounds
    assert abs(namespace["integral"] - namespace["spec"].energy) <= 1e-6 * max(1.0, namespace["spec"].energy)
