"""Lists the `pub` items of the library crates that no other code names.

For every `crates/*/src` (except `crates/bench`, whose public items serve
its own tests, and the vendored stand-ins under `crates/compat`), finds
each `pub` fn, struct, enum, trait, type alias, const, static and `pub
use` re-export outside the file's `#[cfg(test)] mod tests`, and lists it
when its name appears, as a whole word, in no `.rs` file outside that
crate's directory: the other crates, the root `src/`, `tests/` and
`examples/`, and `cqbench/src` and `cqbench/tests`. While such an item is
`pub`, rustc's `dead_code` lint cannot tell whether anything uses it.

A listed type may still have to be `pub`: when its name appears in the
declaration of a public item that stays (a signature, a `pub` field, an
enum's variants, a trait's body), narrowing it trips rustc's
`private_interfaces`. Those are counted apart. The search is by name, so
it under-reports (a method named `len` is named everywhere), never
over-reports.

Items on `.github/paper_constructions.txt` (`crate-dir name` per line,
`#` comments) are the paper's constructions: they stay public and each
must be named in README.md's "The paper's results, as tests" table.
Prints every listed item that is neither and the count; fails on such an
item, and on an allow-list entry that is stale or that the table does
not name.

`cqbench` is frozen between benchmark changes, so the library surface it
calls is listed too: `.github/cqbench_surface.txt` holds `crate-dir
name` for every `pub` item of the crates `cqbench/Cargo.toml` depends on
whose name `cqbench/src` mentions as a whole word. The script fails on a
missing or a stale entry; `--write` rewrites the file.

    python3 .github/check_public_surface.py [--write]
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SKIP = {"bench", "compat"}
OUTSIDE = ["src", "tests", "examples", "cqbench/src", "cqbench/tests"]
SURFACE = ROOT / ".github/cqbench_surface.txt"

ITEM = re.compile(
    r"^(\s*)pub\s+(?:(?:const|async|unsafe|extern\s+\"C\")\s+)*"
    r"(fn|struct|enum|trait|type|const|static)\s+(?:mut\s+)?(\w+)"
)
PUB_USE = re.compile(r"^\s*pub\s+use\s")


def production_lines(path):
    """The file's lines with its `#[cfg(test)] mod tests { ... }` removed."""
    lines, skipping = [], False
    for line in path.read_text().splitlines():
        if skipping:
            skipping = line != "}"
            lines.append("")
        elif line.startswith("#[cfg(test)]"):
            skipping = True
            lines.append("")
        else:
            lines.append(line)
    return lines


def reexported_names(stmt):
    """The names a `pub use` statement brings into scope (not globs)."""
    body = stmt.split("use", 1)[1].rstrip().rstrip(";")
    names = []
    for part in re.split(r"[{},]", body):
        part = part.strip()
        if not part or part.endswith("*"):
            continue
        name = part.split(" as ")[-1].strip().split("::")[-1]
        if name not in ("self", "super", "crate") and re.fullmatch(r"\w+", name):
            names.append(name)
    return names


def declaration(lines, i, indent, kind):
    """The public-facing text of the item declared at line `i`: a fn's
    signature, a struct's `pub` fields, an enum's or trait's body, the
    line of anything else."""
    line = lines[i]
    if kind == "fn":
        text = line
        while "{" not in text and not text.rstrip().endswith(";") and i + 1 < len(lines):
            i += 1
            text += " " + lines[i]
        return text.split("{", 1)[0]
    if kind in ("struct", "enum", "trait") and line.rstrip().endswith("{"):
        body, end = [], i + 1
        while end < len(lines) and lines[end].rstrip() != indent + "}":
            body.append(lines[end])
            end += 1
        if kind == "struct":
            body = [b for b in body if b.strip().startswith("pub ")]
        return line + " " + " ".join(body)
    return line


def public_items(crate):
    """`(path, line number, kind, name, declaration)` per `pub` item."""
    for path in sorted((crate / "src").rglob("*.rs")):
        lines = production_lines(path)
        for i, line in enumerate(lines):
            m = ITEM.match(line)
            if m:
                indent, kind, name = m.groups()
                yield path, i + 1, kind, name, declaration(lines, i, indent, kind)
            elif PUB_USE.match(line):
                stmt, j = line, i
                while ";" not in stmt and j + 1 < len(lines):
                    j += 1
                    stmt += " " + lines[j]
                for name in reexported_names(stmt):
                    yield path, i + 1, "use", name, ""


def words(text):
    return set(re.findall(r"\w+", text))


def results_table():
    """The words of README's "The paper's results, as tests" table."""
    text = (ROOT / "README.md").read_text().split("## The paper's results, as tests", 1)[-1]
    section = text.split("\n## ", 1)[0]
    return words("\n".join(l for l in section.splitlines() if l.startswith("|")))


def cqbench_surface(crates):
    """Problems with `SURFACE` against the items `cqbench/src` names,
    after rewriting it first when asked to."""
    named = words("".join(f.read_text() for f in (ROOT / "cqbench/src").rglob("*.rs")))
    deps = set(re.findall(r'path = "\.\./crates/(\w+)"', (ROOT / "cqbench/Cargo.toml").read_text()))
    want = sorted({
        f"{c.name} {it[3]}"
        for c in crates
        if c.name in deps
        for it in public_items(c)
        if it[3] in named
    })
    if "--write" in sys.argv[1:]:
        head = "# `crate-dir name` of every `crates/*/src` item `cqbench/src` names;\n"
        head += "# rewrite with `python3 .github/check_public_surface.py --write`.\n"
        SURFACE.write_text(head + "".join(f"{w}\n" for w in want))
    have = [l.strip() for l in SURFACE.read_text().splitlines()]
    have = {l for l in have if l and not l.startswith("#")}
    problems = [f"{SURFACE.name}: missing `{w}`" for w in want if w not in have]
    return problems + [f"{SURFACE.name}: stale `{h}`" for h in sorted(have - set(want))]


def main():
    crates = sorted(p for p in (ROOT / "crates").iterdir() if p.is_dir())
    rust = {c: list(c.rglob("*.rs")) for c in crates}
    outside = "".join(f.read_text() for d in OUTSIDE for f in (ROOT / d).rglob("*.rs"))
    allowed = set()
    for line in (ROOT / ".github/paper_constructions.txt").read_text().splitlines():
        line = line.split("#")[0].strip()
        if line:
            allowed.add(tuple(line.split()))
    table = results_table()

    paper, signature, unused = [], [], []
    for crate in crates:
        if crate.name in SKIP:
            continue
        others = words(outside + "".join(f.read_text() for c, fs in rust.items() if c != crate for f in fs))
        items = list(public_items(crate))
        listed = [it for it in items if it[3] not in others and (crate.name, it[3]) not in allowed]
        paper += [(crate.name, it) for it in items if it[3] not in others and (crate.name, it[3]) in allowed]
        # A listed name a staying item's declaration mentions must stay
        # `pub`; that makes its own declaration public-facing in turn.
        exposed = set()
        while True:
            public = " ".join(it[4] for it in items if it not in listed or it[3] in exposed)
            grown = {it[3] for it in listed if it[2] != "fn" and it[3] in words(public)}
            if grown <= exposed:
                break
            exposed |= grown
        for it in listed:
            (signature if it[3] in exposed else unused).append((crate.name, it))

    for _, (path, no, kind, name, _) in unused:
        print(f"{path.relative_to(ROOT)}:{no}: {kind} {name}")
    found = {(c, it[3]) for c, it in paper}
    problems = [f"allow-list entry `{c} {n}` names no public item" for c, n in sorted(allowed - found)]
    problems += [
        f"allow-list entry `{c} {n}` is not named in README's results table"
        for c, n in sorted(allowed)
        if n not in table
    ]
    problems += cqbench_surface(crates)
    print(
        f"{len(paper) + len(signature) + len(unused)} public items named nowhere outside "
        f"their crate: {len(paper)} of the paper's constructions, {len(signature)} in a "
        f"public declaration, {len(unused)} neither"
    )
    for problem in problems:
        print(problem)
    sys.exit(1 if unused or problems else 0)


if __name__ == "__main__":
    main()
