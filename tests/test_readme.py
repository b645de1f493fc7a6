"""The README's command-line examples and library block run and print what their comments say."""

import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# each commented CLI example: its comment, and a check of its stdout
CLI_COMMENTS = {
    "normcov bounds 11 sym": (
        "lower 5, upper 5, exact 5",
        lambda out: all(line in out for line in ("lower bound: 5 (", "upper bound: 5\n", "exact:       5\n")),
    ),
    "normcov gamma 9 sym": ("4, with a witness basic set", lambda out: out.startswith("gamma for S9: 4\nwitness basic set:\n  ")),
    'normcov membership 12 "imprimitive:3,4" "[1,2,9]"': ("yes", lambda out: out.startswith("[9,2,1] in imprimitive:3,4: yes (")),
    "normcov types 11 t": ("[9,1,1] [7,2,2] [5,3,3] [4,4,3]", lambda out: out == "[9,1,1] [7,2,2] [5,3,3] [4,4,3]\n"),
}

# each commented print of the library block: its comment, and a check of the line it prints
LIBRARY_COMMENTS = {
    "3": lambda line: line == "3",
    "True": lambda line: line == "True",
    "the power-of-two band [2, 5]": lambda line: "('[2, 5]', 'power-of-two band')" in line and "upper=5," in line,
}


def _block(heading: str, lang: str) -> list[str]:
    """The lines of the first fenced block in lang after heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"```{lang}\n", text.index(heading)) + len(lang) + 4
    return text[start : text.index("```", start)].splitlines()


def _split(line: str) -> tuple[str, str | None]:
    code, sep, comment = line.partition("  #")
    return code.strip(), comment.strip() if sep else None


def test_readme_cli_examples():
    commented = {}
    for line in filter(str.strip, _block("Examples:", "sh")):
        cmd, comment = _split(line)
        argv = shlex.split(cmd)
        assert argv[0] == "normcov", line
        proc = subprocess.run(
            [sys.executable, "-m", "normcov.cli", *argv[1:]], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0 and proc.stderr == "", (line, proc.stderr)
        if comment is not None:
            commented[cmd] = comment
            want, check = CLI_COMMENTS[cmd]
            assert comment == want and check(proc.stdout), (line, proc.stdout)
    assert commented.keys() == CLI_COMMENTS.keys()


def test_readme_library_block():
    lines = _block("## Library", "python")
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    printed = proc.stdout.splitlines()
    comments = [_split(line)[1] for line in lines if line.startswith("print(")]
    assert len(printed) == len(comments)
    checked = [c for c in comments if c is not None]
    assert checked == list(LIBRARY_COMMENTS)
    for comment, out in zip(comments, printed):
        assert comment is None or LIBRARY_COMMENTS[comment](out), (comment, out)
