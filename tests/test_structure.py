"""The shape of the source tree: where it solves for roots and minima."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a line that defines or calls a root solver or a scalar minimiser
_SOLVER = re.compile(r"brentq\(|minimize_scalar\(|linprog\(|find_root\(|bracket_root\(")


def _solver_lines():
    src = os.path.join(ROOT, "src")
    found = []
    for folder, _, names in sorted(os.walk(src)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    found += ["%s:%d" % (os.path.relpath(path, src), i)
                              for i, line in enumerate(fh, 1) if _SOLVER.search(line)]
    return found


def test_src_has_five_solver_lines():
    """find_root's definition and its four calls: the ray exit, the cone
    tangency sweep, the tangent planes through a line and the restriction
    minimiser, which also minimises the gauge along lines. A second line
    minimiser, or any other solver site, makes a sixth line."""
    lines = _solver_lines()
    assert len(lines) == 5, lines
