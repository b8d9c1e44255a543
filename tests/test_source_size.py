"""Every module of the package stays below the size at which compiling it
costs more memory.

Nothing keeps compiled bytecode when PYTHONDONTWRITEBYTECODE is set, so each
process compiles the package from source.  CPython's parser needs about
0.55 MiB more (tracemalloc peak of ``compile``) once a module passes 8,192
tokens, and a module that crossed it raised the peak RSS of every benchmark
workload by 0.3-0.5 MiB.  Tokens are counted as the parser sees them:
comments, non-logical newlines and tokenize's encoding marker are left out.
"""

import tokenize
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "mllrc"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


@pytest.mark.parametrize("module", sorted(p.name for p in _SRC.glob("*.py")))
def test_module_stays_below_8192_tokens(module):
    with open(_SRC / module, "rb") as source:
        tokens = sum(t.type not in _SKIPPED for t in tokenize.tokenize(source.readline))
    assert tokens < 8192
