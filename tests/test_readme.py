"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_the_architectures_its_comments_give():
    code = quick_start()
    expected = re.findall(r"^print\(.*\)\s+#\s*(\S+)$", code, re.M)
    assert expected == ["3(1)40(1)1'(1)", "2(1)4(1)6(1)1'(1)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().split() == expected
