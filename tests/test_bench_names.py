"""The palpsim names that the benchmark's tracer wraps all exist, and the
tracer puts every original back.

``perfbench/tracing.py`` looks these names up only when a traced run
(``perfbench/run.py --trace 1``) starts, so a renamed or deleted function
would otherwise go unnoticed until then.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import (  # noqa: E402
    HOT_FUNCTIONS,
    HOT_METHODS,
    SPAN_FUNCTIONS,
    SPAN_METHODS,
    Capture,
    Patches,
    Tracer,
)


def palpsim_attributes() -> dict:
    """Every attribute of every palpsim module and of every traced class."""
    owners = [mod for name, mod in sys.modules.items() if name.partition(".")[0] == "palpsim"]
    owners += [cls for cls, _, _ in SPAN_METHODS + HOT_METHODS]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_finds_every_name_and_restores_the_originals():
    before = palpsim_attributes()
    patches = Patches()
    try:
        Capture(patches)
        Tracer().install(patches)
        for owner, name in SPAN_FUNCTIONS + HOT_FUNCTIONS:
            assert vars(owner)[name] is not before[owner, name], name
        for owner, _, name in SPAN_METHODS + HOT_METHODS:
            assert vars(owner)[name] is not before[owner, name], name
    finally:
        patches.restore()
    after = palpsim_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
