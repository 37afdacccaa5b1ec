"""One JSON emitter for every ``--json`` CLI surface.

``metrics``, ``explain``, ``stats``, ``health``, ``update`` and ``lint``
all print machine-readable documents under ``--json``; routing them
through one helper keeps the dialect identical (two-space indent,
sorted keys, trailing newline) so downstream tooling can diff any two
outputs without caring which subcommand produced them.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional, TextIO


def dump_json(payload: Any) -> str:
    """The canonical serialisation: indented, key-sorted, no NaN."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def emit_json(payload: Any, stream: Optional[TextIO] = None) -> None:
    """Serialise ``payload`` to ``stream`` (default stdout), newline-terminated."""
    out = stream if stream is not None else sys.stdout
    out.write(dump_json(payload))
    out.write("\n")
