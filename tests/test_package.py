"""The package surface: re-exported names and the README's Library example."""

import contextlib
import io
import re
from pathlib import Path

import centering

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert centering.__all__
    for name in centering.__all__:
        assert getattr(centering, name) is not None, name


def test_readme_library_snippet_runs():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "0",
        "{<GrammaticalRole.SUBJ: 0>: 'taroo', <GrammaticalRole.OBJ: 2>: 'ziroo'}",
        "taroo",
        "('taroo', 'ziroo')",
    ]
