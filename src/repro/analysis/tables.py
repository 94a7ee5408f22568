"""Plain-text table rendering for experiment output.

Benches print their rows through :func:`render_table` so EXPERIMENTS.md
snippets and terminal output share one format.
"""


def render_table(rows, columns=None, title=None):
    """Render a list of dicts as an aligned ASCII table.

    Parameters
    ----------
    rows:
        List of dicts (all sharing keys).
    columns:
        Column order; defaults to the first row's key order.
    title:
        Optional heading line.
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: len(str(col)) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(_fmt(row.get(col))))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(
            " | ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)

