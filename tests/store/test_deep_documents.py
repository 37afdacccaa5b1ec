"""Documents nested far deeper than Python's recursion limit.

A chain of 5,000 elements, about ten times the default recursion limit,
is parsed, ingested, persisted, reopened and queried on every backend,
for schemes that label it without recursion.  The parser and the
serializer each walk an explicit stack; a recursive one raised
``RecursionError`` at about 500 levels.  Vector's recursive labelling
and the 8-bit depth field of Dewey's and ORDPATH's stream codecs
(``InvalidLabelError`` past depth 255) still bound those schemes.
"""

import pytest

from repro.store.repository import open_repository
from repro.xmlmodel.parser import parse

DEPTH = 5000
CHAIN_XML = "<a>" + "<b>" * DEPTH + "</b>" * DEPTH + "</a>"


@pytest.mark.parametrize("backend", ["memory", "sqlite", "pagefile"])
@pytest.mark.parametrize("scheme", ["qed", "cdqs", "prepost"])
def test_a_chain_deeper_than_the_recursion_limit_round_trips(
        tmp_path, backend, scheme):
    url = {
        "memory": "memory://",
        "sqlite": f"sqlite:///{tmp_path}/deep.db",
        "pagefile": f"pagefile:///{tmp_path}/deep.pages",
    }[backend]
    repo = open_repository(url)
    repo.add("deep", parse(CHAIN_XML), scheme=scheme)
    repo.persist("deep")
    if backend != "memory":
        repo.close()
        repo = open_repository(url)
    with repo:
        nodes = repo.get("deep").xpath("//b")
        assert len(nodes) == DEPTH
        assert [node.depth() for node in nodes[:3]] == [1, 2, 3]
        assert nodes[-1].depth() == DEPTH
