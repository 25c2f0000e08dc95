"""R6 (deepcopy flavor): engine deep-copied inside a # repro-hot split.

``copy.deepcopy`` walks the *entire* object graph — immutable config,
topology, route memos and all — on every call. A hot path that needs a
copy of an engine should copy only the mutable fields.
"""

import copy


class ClassSplitter:
    def __init__(self, engine):
        self.engine = engine

    def split(self, members):  # repro-hot
        clone = copy.deepcopy(self.engine)
        clone.members = members
        return clone
