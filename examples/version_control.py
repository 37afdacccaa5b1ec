"""Use case from section 5.2: document history with persistent labels.

"A repository that may want to record document history and enable
version control would select a labelling scheme supporting persistent
labels."  This example builds exactly that: a tiny version store that
records annotations keyed by node *label*.  Because QED labels are
persistent, a label recorded at revision 1 still denotes the same node
after any amount of editing — so diffs and annotations survive.  The
same store over DeweyID breaks immediately: inserting a sibling shifts
following labels onto different nodes.

    python examples/version_control.py
"""

from repro import LabeledDocument, make_scheme, parse

DOCUMENT = "<report><intro/><body><p>one</p><p>two</p></body><end/></report>"


class VersionStore:
    """A label-keyed changelog over a labelled document."""

    def __init__(self, ldoc):
        self.ldoc = ldoc
        self.annotations = []  # (label string, annotated node_id)

    def annotate(self, node, note):
        """Record a note against the node's current label."""
        self.annotations.append(
            (self.ldoc.format_label(node), node.node_id, note)
        )

    def resolve(self):
        """Look every recorded label up in the *current* document."""
        current = {
            self.ldoc.format_label(node): node.node_id
            for node in self.ldoc.document.labeled_nodes()
        }
        report = []
        for label_string, original_id, note in self.annotations:
            found = current.get(label_string)
            if found is None:
                outcome = "label vanished"
            elif found == original_id:
                outcome = "still the same node"
            else:
                outcome = "NOW POINTS AT A DIFFERENT NODE"
            report.append((label_string, note, outcome))
        return report


def run(scheme_name):
    ldoc = LabeledDocument(parse(DOCUMENT), make_scheme(scheme_name))
    store = VersionStore(ldoc)
    body = ldoc.document.root.element_children()[1]

    # Revision 1: annotate the second paragraph.
    store.annotate(body.element_children()[1], "fact-check this")

    # Revisions 2..6: heavy editing *before* the annotated node.
    for index in range(5):
        ldoc.updates.insert_before(body.element_children()[0],
                                   f"draft{index}")

    return ldoc.log.relabeled_nodes, store.resolve()


def main():
    for scheme_name in ("qed", "dewey"):
        relabelled, report = run(scheme_name)
        print(f"=== {scheme_name} ===")
        print(f"nodes relabelled during editing: {relabelled}")
        label, note, outcome = report[0]
        print(f"annotation {note!r} was recorded on label {label}")
        print(f"after editing, that label ... {outcome}")
        if outcome == "still the same node":
            print("-> persistent labels: version history survives editing\n")
        else:
            print("-> non-persistent labels: recorded history is corrupted; "
                  "this is why the paper's section 5.2 prescribes "
                  "Persistent Labels = F for version control\n")


if __name__ == "__main__":
    main()
