"""Shared helpers for the benchmark scripts.

Lives outside conftest so the scripts work both under pytest (where the
name ``conftest`` is already taken by the test suite's conftest) and as
standalone programs (``python benchmarks/bench_figure4_ordpath.py`` or
``python -m repro figure 4``).
"""

from __future__ import annotations

import argparse

from repro.data.sample import sample_document
from repro.updates.document import LabeledDocument
from repro.schemes.registry import make_scheme


def bench_args(doc: str, argv=None) -> argparse.Namespace:
    """The uniform bench-module argument surface.

    Every ``bench_*`` module's ``main(argv=None)`` parses through this,
    so ``run_all.py --quick`` can pass ``["--quick"]`` to any section.
    Modules whose workload has one fixed (tiny) size simply ignore
    ``args.quick``.
    """
    parser = argparse.ArgumentParser(
        description=(doc or "").splitlines()[0] if doc else None
    )
    parser.add_argument("--quick", action="store_true",
                        help="small smoke-test sizes (CI)")
    return parser.parse_args(argv)


def fresh(scheme_name: str, document=None, **kwargs) -> LabeledDocument:
    """A freshly labelled document for one benchmark round."""
    return LabeledDocument(
        document if document is not None else sample_document(),
        make_scheme(scheme_name, **kwargs),
        on_collision="record",
    )
