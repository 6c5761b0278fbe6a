"""Golden CLI output: every subcommand, both formats, timings stripped.

The expected text lives in ``golden/cli.txt``.  After a deliberate change
of output, regenerate it with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from coxlat.cli import main
from coxlat.lattice import Lattice
from coxlat.star import build, catalog, lattices_from_minus
from coxlat.verify import verify_lattices

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
NAMES = ("A1", "D7", "E8", "E12")
ORDER = "24"


def _strip_timings(text: str) -> str:
    text = re.sub(r" +\d+\.\d ms  ", " <ms>  ", text)
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": "<ms>"', text)


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = f"$ coxlat {' '.join(argv)}\n{out.getvalue()}"
    if err.getvalue():
        text += f"[stderr] {err.getvalue()}"
    return _strip_timings(text + f"[exit {code}]\n")


E8 = build(catalog("E8"))


def _e8_gram_with(i: int, j: int, value: int) -> list:
    gram = E8.minus.gram_rows()
    gram[i][j] = gram[j][i] = value
    return gram


def _gram_files(tmp: Path) -> list:
    """A valid E8 star, the same star with one arm edge deleted, and a non-star."""
    files = []
    for name, gram in (("e8.json", E8.minus.gram_rows()), ("e8-edge.json", _e8_gram_with(4, 5, 0)),
                       ("e8-nonstar.json", _e8_gram_with(0, 2, 1))):
        path = tmp / name
        path.write_text(json.dumps({"labels": list(E8.minus.labels), "gram": gram}))
        files.append(str(path))
    return files


def _broken_theorem_rows() -> str:
    """The theorem witness, which no --gram input can reach: decoding rejects
    a deleted edge before any check runs."""
    minus = Lattice(E8.minus.labels, tuple(map(tuple, _e8_gram_with(4, 5, 0))))
    broken = lattices_from_minus(minus, E8.invariants, E8.kind, E8.arms, E8.center)
    reports = verify_lattices(broken, 40)
    lines = [r.row() for r in reports] + [json.dumps(r.to_json()) for r in reports]
    return _strip_timings("$ library: verify_lattices(E8 with edge 4-5 deleted, 40)\n"
                          + "\n".join(lines) + "\n")


def golden_text() -> str:
    parts = []
    for fmt in ("text", "json"):
        f = ("--format", fmt)
        parts.append(_run(("catalog",) + f))
        for name in NAMES:
            n = ("--name", name)
            parts.append(_run(("build",) + n + f))
            parts.append(_run(("charpoly",) + n + f))
            parts.append(_run(("poincare",) + n + ("--order", ORDER) + f))
            parts.append(_run(("hilbert",) + n + ("--order", ORDER) + f))
            parts.append(_run(("verify",) + n + ("--order", ORDER) + f))
        parts.append(_run(("verify", "--all", "--order", "12", "--random", "3",
                           "--seed", "5") + f))
        with tempfile.TemporaryDirectory() as tmp:
            good, edge, non_star = _gram_files(Path(tmp))
            parts.append(_run(("charpoly", "--gram", good) + f))
            parts.append(_run(("poincare", "--gram", good, "--order", ORDER) + f))
            parts.append(_run(("hilbert", "--gram", good, "--order", ORDER) + f))
            for path in (good, edge, non_star):
                parts.append(_run(("verify", "--gram", path, "--order", ORDER) + f))
        parts.append(_run(("poincare", "--name", "Z3") + f))
        parts.append(_run(("verify", "--fuchsian", "2,3,6") + f))
    parts.append(_broken_theorem_rows())
    return re.sub(r"--gram \S*/", "--gram ", "".join(parts))


def test_cli_output_matches_golden():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text(), encoding="utf-8")
