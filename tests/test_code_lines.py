"""tools/code_lines.py, the code-line count of `src/fedsim`."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_counts_code_but_not_docstrings_comments_or_blanks(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text('"""Module\n\ndocstring."""\nimport os  # kept: code before it\n\n'
                    '# a comment\n\ndef f():\n    """Doc."""\n    s = """a\n\nb"""\n'
                    '    return s\n\n\nclass C:\n    """Doc\n    string."""\n')
    # import, def, the three lines of s's string, return and the class line
    assert code_lines.code_lines(path) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("# none\n\ny = 2\nz = 3\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "1", "b.py", "2", "total", "3"]
