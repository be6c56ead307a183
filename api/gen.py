#!/usr/bin/env python3
"""Write the public-API list of each library crate to api/<crate>.txt.

Usage: python3 api/gen.py [TOOLCHAIN]      (default TOOLCHAIN: nightly)

For each crate it runs `cargo +TOOLCHAIN rustdoc -p <crate> --lib --
-Zunstable-options --output-format json` and walks the JSON from the crate
root through public modules. One sorted `path<TAB>kind` line per item:

- counted: free functions, structs, enums, unions, traits and their items,
  constants, statics, type aliases, macros, and the `pub` methods and
  associated consts of inherent impls;
- not counted: modules, `use` re-exports, fields, variants, and the items
  of trait impls.

The number of lines over all files is the concept count. It prints it as
`concept count: N`. A crate whose rustdoc fails keeps its old file and
makes the script exit 1 after the other crates are written. CI regenerates
the files and fails on any diff, so a new or removed public item shows in
the change that makes it.
"""

import json
import os
import subprocess
import sys

CRATES = [
    "lg-core",
    "lg-metrics",
    "lg-net",
    "lg-runtime",
    "lg-sim",
    "lg-tuning",
    "lg-workloads",
]
# The rustdoc JSON schema this walk is written against (nightly-2026-05-19).
FORMAT_VERSION = 57

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def target_dir():
    meta = subprocess.run(
        ["cargo", "metadata", "--no-deps", "--format-version", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return json.loads(meta.stdout)["target_directory"]


def rustdoc_json(crate, toolchain, target):
    """The crate's rustdoc JSON, or None when rustdoc fails."""
    built = subprocess.run(
        ["cargo", "+" + toolchain, "rustdoc", "-q", "-p", crate, "--lib", "--",
         "-Zunstable-options", "--output-format", "json"],
        cwd=ROOT,
    )
    if built.returncode != 0:
        return None
    with open(os.path.join(target, "doc", crate.replace("-", "_") + ".json")) as f:
        doc = json.load(f)
    if doc["format_version"] != FORMAT_VERSION:
        sys.exit(f"{crate}: rustdoc JSON format_version {doc['format_version']}, "
                 f"this script reads {FORMAT_VERSION}")
    return doc


def kind_of(item):
    (kind,) = item["inner"].keys()
    return kind


def public_items(doc):
    index = doc["index"]
    lines = set()

    def add_impls(path, impl_ids):
        for impl_id in impl_ids:
            impl = index[str(impl_id)]["inner"]["impl"]
            if impl["trait"] is not None:
                continue
            for item_id in impl["items"]:
                item = index[str(item_id)]
                if item["visibility"] == "public":
                    lines.add(f"{path}::{item['name']}\t{kind_of(item)}")

    def walk(path, module):
        for item_id in module["items"]:
            item = index[str(item_id)]
            if item["visibility"] != "public":
                continue
            kind = kind_of(item)
            if kind == "use":
                continue
            item_path = f"{path}::{item['name']}"
            if kind == "module":
                walk(item_path, item["inner"]["module"])
                continue
            lines.add(f"{item_path}\t{kind}")
            inner = item["inner"][kind]
            if kind in ("struct", "enum", "union"):
                add_impls(item_path, inner["impls"])
            elif kind == "trait":
                for sub_id in inner["items"]:
                    sub = index[str(sub_id)]
                    lines.add(f"{item_path}::{sub['name']}\t{kind_of(sub)}")

    root = index[str(doc["root"])]
    walk(root["name"], root["inner"]["module"])
    return sorted(lines)


def main():
    toolchain = sys.argv[1] if len(sys.argv) > 1 else "nightly"
    target = target_dir()
    total = 0
    failed = []
    for crate in CRATES:
        doc = rustdoc_json(crate, toolchain, target)
        if doc is None:
            failed.append(crate)
            continue
        lines = public_items(doc)
        with open(os.path.join(ROOT, "api", crate + ".txt"), "w") as f:
            f.write("".join(line + "\n" for line in lines))
        print(f"{crate}: {len(lines)}")
        total += len(lines)
    if failed:
        sys.exit(f"rustdoc failed for {', '.join(failed)}; their lists are not regenerated")
    print(f"concept count: {total}")


if __name__ == "__main__":
    main()
