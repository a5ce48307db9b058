"""README's "Library tour" runs as written and its comments state its results."""

import ast
import re
from pathlib import Path

from kmeans_richness import target_partition

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def comment_after(code: str, statement: str) -> str:
    """The trailing comment of the tour line that starts with ``statement``."""
    line = next(line for line in code.splitlines() if line.startswith(statement))
    return line.split("#", 1)[1].strip()


def test_library_tour_runs_and_matches_its_comments(capsys):
    code = library_tour()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    printed = capsys.readouterr().out

    positions = ast.literal_eval(comment_after(code, "points = embed(cfg)"))
    assert namespace["points"].positions == positions

    label = comment_after(code, "print(classify(cfg))")
    assert label == "AA"
    assert printed == label + "\n"

    plan = namespace["plan"]
    assert comment_after(code, "plan = adversarial_plan(cfg)") == (
        f"{plan.semantics.value} [{', '.join(str(s) for s in plan.candidates)}]"
    )

    claim = comment_after(code, "trace.final_partition == target_partition(4)")
    assert claim.startswith("False")
    assert (namespace["trace"].final_partition == target_partition(4)) is False
