"""The README's code blocks must actually run."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_readme_exists_with_code(self):
        blocks = python_blocks()
        assert len(blocks) >= 2

    @pytest.mark.parametrize("index", range(len(python_blocks())))
    def test_python_blocks_execute(self, index):
        """Every ``python`` block runs, so none can go stale unexecuted."""
        blocks = python_blocks()
        namespace = {}
        exec(compile(blocks[index], f"README.md[block {index}]", "exec"), namespace)

    def test_cli_commands_documented_exist(self):
        """Every experiment id the README mentions is registered."""
        from repro.experiments.runner import EXPERIMENTS

        text = README.read_text()
        for exp_id in re.findall(r"`((?:fig|sim-fig|ext-)[a-z0-9-]+)`", text):
            for piece in exp_id.split("`"):
                if piece and not piece.startswith("fig5 --log-y"):
                    # `fig1` … `fig9` appears as a range; expand endpoints.
                    if piece in ("fig1", "fig9") or piece in EXPERIMENTS:
                        continue
                    assert piece in EXPERIMENTS, piece
