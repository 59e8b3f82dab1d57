"""Corpus: an optimizer writing stepped rows into a table.

``index_put_`` is the sanctioned in-place write; the raw subscript
store into ``.data`` outside ``Tensor`` is still flagged."""


def step_rows(param, rows, stepped):
    param.index_put_(rows, stepped)


def step_rows_raw(param, rows, stepped):
    param.data[rows] = stepped
