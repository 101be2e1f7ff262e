"""Reference renderings of the tabular reports' rows, built from json.dumps alone,
and a text comparison that fails on the first differing line."""

import json


def rows_json(rows, pad: str = "") -> str:
    """A list of row dicts as check-condition and von-mangoldt write it at indent pad:
    [] when empty, else one json.dumps(row, sort_keys=True) a line at pad plus two spaces."""
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(f"{pad}  {json.dumps(row, sort_keys=True)}" for row in rows) + (
        f"\n{pad}]")


def envelope_json(envelope: dict, key: str) -> str:
    """The report file: json.dumps(envelope, sort_keys=True, indent=2) but for the list
    result[key], which rows_json writes at its indent, and a final newline."""
    marker = "\0rows"
    text = json.dumps({**envelope, "result": {**envelope["result"], key: marker}},
                      sort_keys=True, indent=2)
    return text.replace(json.dumps(marker), rows_json(envelope["result"][key], "    ")) + "\n"


def assert_same_text(text: str, ref: str) -> None:
    """text == ref, asserted on the first line where they differ: a diff of two
    multi-megabyte reports takes minutes."""
    got, want = text.splitlines(keepends=True), ref.splitlines(keepends=True)
    i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    assert got[i : i + 1] == want[i : i + 1], f"line {i + 1} of {len(got)} (want {len(want)})"
