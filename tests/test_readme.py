"""README.md's library quick start runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_a_deviation_triple():
    first = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(first, {"__name__": "readme_quick_start"})
    assert out.getvalue().startswith("DeviationTriple(d_min=")
