"""The per-row ``%``-formatting table renderer, kept as an independent oracle
for the vectorized ``%.17g`` kernel behind ``blochcurve._floattext.table_chunks``.

Every row goes through one ``%`` expression whose template holds ``%.17g``
per 1-D column and the already-formatted text of each 0-d column, so the
bytes are those of Python's own float formatting.
"""

import numpy as np


def reference_render(columns, names, fmt: str) -> str:
    """CSV or JSON text, one row per entry of the 1-D ``columns``, as ``%.17g``.

    A 0-d column holds the same value on every row: it is formatted once and
    written into the row template, so only the 1-D columns (at least one)
    are formatted per row. The bytes equal those of the broadcast column.
    """
    formats = ["%.17g" % c if np.ndim(c) == 0 else "%.17g" for c in columns]
    rows = (row.tolist() for row in np.column_stack([c for c in columns if np.ndim(c)]))
    if fmt == "csv":
        row_format = ",".join(formats)
        lines = [",".join(names)]
        lines.extend(row_format % tuple(row) for row in rows)
        lines.append("")
        return "\n".join(lines)
    row_format = "{" + ", ".join(f'"{c}": {f}' for c, f in zip(names, formats)) + "}"
    objects = (row_format % tuple(row) for row in rows)
    return "[\n  " + ",\n  ".join(objects) + "\n]\n"
