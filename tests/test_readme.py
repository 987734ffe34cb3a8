"""Every fenced ``python`` block of README.md runs, each in a fresh namespace,
and every value its comments state is the value the line computes."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
# a comment that opens with a literal states the value of its line
CLAIM = re.compile(r"#\s*(True|False|-?\d+)\b")


def test_readme_has_a_python_block():
    assert BLOCKS


def test_readme_python_blocks_run_and_state_true_values():
    for block in BLOCKS:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            claim = CLAIM.search(line)
            if claim:
                code = line[:claim.start()]
                assert eval(code, namespace) == ast.literal_eval(claim.group(1)), line
