"""Run the `veronese-kit` command line in-process, with stdin and stdout swapped for strings."""

import contextlib
import io
import sys
from dataclasses import dataclass

from veronese_kit import cli


@dataclass(frozen=True)
class Result:
    exit_code: int
    output: str  # everything the command wrote to stdout
    exception: Exception | None  # what escaped the command, when caught


def invoke(args, input=None, catch_exceptions=True) -> Result:
    """`veronese-kit *args` reading `input`; a caught exception exits 1, as an uncaught one would."""
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(input or "")
    code, exception = 0, None
    try:
        with contextlib.redirect_stdout(out):
            cli.main(list(args))
    except SystemExit as e:
        code = e.code
    except Exception as e:
        if not catch_exceptions:
            raise
        code, exception = 1, e
    finally:
        sys.stdin = saved
    return Result(code, out.getvalue(), exception)
