"""REP009 fixture: mutators with and without a reachable publish."""


class LabeledDocument:
    def __init__(self):
        self.labels = {}
        self._label_index = {}

    def _publish_rebuild(self, reason):
        pass

    def _assign(self, node, label):
        self.labels[node] = label

    def relabel_all(self):  # clean: mutates and publishes directly
        self.labels.clear()
        self._publish_rebuild("relabel")

    def adopt(self, node, label):  # clean: publish via private helper
        self._assign(node, label)
        self._finish()

    def _finish(self):
        self._publish_rebuild("adopt")

    def graft(self, node, label):  # VIOLATION: mutates, never publishes
        self._assign(node, label)
        self._label_index[label] = node

    def peek(self, node):  # clean: read-only
        return self.labels.get(node)

    def set_text(self, node, value):  # clean: tree-only, no label writes
        node.value = value

    def _graft_core(self, node, label):
        self._assign(node, label)


class UpdateSurface:
    def __init__(self, document):
        self._document = document

    def relabel(self):  # clean: forwards to a publishing document method
        self._document.relabel_all()

    def graft(self, node, label):  # VIOLATION: the core never publishes
        self._document._graft_core(node, label)


class UpdateBatch:
    def __init__(self, document):
        self._document = document
        self._undo = UndoRecord(document)

    def apply(self):  # clean: publishes through the document
        self._document._publish_rebuild("batch-apply")

    def rollback(self):  # clean: publish via the UndoRecord chain
        self._undo.rewind()

    def compact(self):  # VIOLATION: mutation via helper, no publish
        self._scrub()

    def _scrub(self):
        del self._document.labels[0]


class UndoRecord:
    def __init__(self, document):
        self._document = document

    def rewind(self):
        self._document.labels.update({})
        self._document._publish_rebuild("rollback")
