"""The CSV renderer built on ``csv.writer`` alone, as a reference for ``sqkd.cli._render``.

Every cell goes through ``csv.writer`` after ``cell``: str as it is, bool in
lower case, int in full, any other value (float, numpy float) at 12
significant digits. The header is the first row's keys. Its bytes are what
``_render`` must write, whether one ``%`` format covers the table or not.
"""
import csv
import io


def cell(value) -> str:
    if type(value) is float or not isinstance(value, (str, int)):
        return f"{value:.12g}"
    return str(value).lower() if isinstance(value, bool) else str(value)


def render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([cell(value) for value in row.values()] for row in rows)
    return buf.getvalue()
