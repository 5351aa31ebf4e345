"""Line map: the executable lines of `src/stegrouter` that the Tier-1 suite
never runs.

Runs the Tier-1 suite (the repository's pytest configuration, slow tests
deselected) in this interpreter, under a fixed hypothesis seed, with a
line tracer built on `sys.settrace` and `threading.settrace`.  The tracer
is installed again before each test, since a test may replace or clear
it.  Afterwards it prints each never-run line as `path:line: source`,
then a count per module and in total.  A line is executable when the
compiled module maps bytecode to it; a function's `def` line counts as
run when the function is called.

Processes the tests start (the CLI runs in a child interpreter, worker
pools) are not traced, so a line that runs only there is listed as never
run.  Hypothesis deadlines are turned off, since tracing slows every
example down.  The run takes several times as long as Tier-1 itself.

    python tools/linemap.py [--hypothesis-seed N] [pytest arguments...]

The exit status is pytest's when the suite could not run, and 0
otherwise, whether or not some tests failed.
"""

import argparse
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stegrouter"


def executable_lines(code: types.CodeType) -> set[int]:
    """The lines that `code` and the code objects nested in it map
    bytecode to."""
    lines = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineMap:
    """Records which executable lines of the given source files run.  A
    code object stops being traced once every line of its own has run."""

    def __init__(self, paths):
        # file name as the interpreter reports it -> lines not yet run
        self.missing = {
            os.fspath(path): executable_lines(compile(path.read_text(), os.fspath(path), "exec"))
            for path in paths
        }
        self.total = {name: len(lines) for name, lines in self.missing.items()}
        # code object -> its local trace function, or None once every line
        # of its own has run
        self._tracers: dict[types.CodeType, object] = {}

    def install(self) -> None:
        sys.settrace(self._call)
        threading.settrace(self._call)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def _call(self, frame, event, arg):
        code = frame.f_code
        missing = self.missing.get(code.co_filename)
        if missing is None:
            return None
        # a call runs the function's first line, which gets no line event
        missing.discard(code.co_firstlineno)
        try:
            return self._tracers[code]
        except KeyError:
            remaining = {line for _, _, line in code.co_lines() if line in missing}
            tracer = self._tracers[code] = self._line_tracer(remaining, missing)
            return tracer

    @staticmethod
    def _line_tracer(remaining: set[int], missing: set[int]):
        """The local trace function of one code object: it marks the lines
        that run, and stops tracing once all of them have."""
        def line(frame, event, arg):
            if event == "line" and frame.f_lineno in remaining:
                remaining.discard(frame.f_lineno)
                missing.discard(frame.f_lineno)
            if remaining:
                return line
            return None

        return line if remaining else None

    def report(self) -> None:
        """Print each never-run line, then the counts."""
        counts = []
        for name in sorted(self.missing):
            lines = sorted(self.missing[name])
            source = Path(name).read_text().splitlines()
            shown = os.path.relpath(name, ROOT)
            for line in lines:
                print(f"{shown}:{line}: {source[line - 1].strip()}")
            counts.append(f"{Path(name).name} {len(lines)} of {self.total[name]}")
        never = sum(map(len, self.missing.values()))
        print(f"never run: {never} of {sum(self.total.values())} executable lines "
              f"({', '.join(counts)})")


class _Plugin:
    """pytest plugin: turns hypothesis deadlines off before the test
    modules load, and installs the tracer again before each test."""

    def __init__(self, line_map: LineMap) -> None:
        self.line_map = line_map

    def pytest_configure(self, config) -> None:
        from hypothesis import settings

        settings.register_profile("linemap", deadline=None)
        settings.load_profile("linemap")

    def pytest_runtest_setup(self, item) -> None:
        self.line_map.install()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--hypothesis-seed", type=int, default=1)
    args, pytest_args = parser.parse_known_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, os.fspath(ROOT / "src"))
    line_map = LineMap(sorted(PACKAGE.glob("*.py")))
    line_map.install()
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             f"--hypothesis-seed={args.hypothesis_seed}", *pytest_args],
            plugins=[_Plugin(line_map)],
        )
    finally:
        line_map.uninstall()
    line_map.report()
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(code)


if __name__ == "__main__":
    sys.exit(main())
