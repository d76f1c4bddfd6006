#!/usr/bin/env python3
"""Repo-invariant linter: structural rules the compiler cannot enforce.

Each rule pins a convention the runtime's correctness story depends on
(see DESIGN.md, "Correctness tooling"):

  seam-funnel      every collective entry point in the comm runtime calls
                   detail::seam_event — an op that bypasses the transport
                   seam is invisible to fault injection and to the
                   contract checker.
  naked-thread     no `std::thread` outside src/util/parallel.* — ad-hoc
                   threads escape the pool's budget accounting and the
                   TSan-annotated handoff paths. run_world's rank threads
                   are the one deliberate exception, marked
                   `lint:allow(naked-thread)`.
  hot-path-alloc   functions marked `// [[hot-path]]` must not allocate
                   (new/malloc/make_unique/..., or a local std::vector /
                   string / function / map / set declared in the body):
                   they run on every publish/await/charge or kernel call,
                   and an allocation there is both a perf cliff and a
                   lock-order hazard under TSan.
  knob-docs        every env knob (a quoted "CAGNET_*" string in src/)
                   has a row in README.md's knob table and a mention in
                   DESIGN.md — an undocumented knob is an untestable one.
  bench-schema     the JSON fields each bench emits equal the field set
                   pinned in tools/check_bench_schema.py — drift in
                   either direction makes the tracked trajectory files
                   lie by omission.

Run from the repo root (CI does):  python3 tools/lint_invariants.py
Self-test (seeded violations, one per rule):  ... --self-test
Exit status: 0 clean, 1 violations found (or a self-test rule failed to
fire), 2 usage/internal error.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BENCH = REPO / "bench"

# ---- rule: seam-funnel -------------------------------------------------

# The functions that publish or read channel slots: every post
# publishes in post_async, every completion reads in PendingOp::wait (the
# typed completers run only from there), and a per-source drain reads in
# await_source. Every collective, blocking or not, reaches the slots
# through these: the i-collectives call post_async, and each blocking
# collective calls Comm::run_blocking, which posts with post_async and
# completes with wait. Wrappers that only delegate are covered through
# their callee.
SEAM_ANCHORS = {
    "src/comm/comm.hpp": [
        "std::span<const T> await_source(",
    ],
    "src/comm/comm.cpp": [
        "PendingOp Comm::post_async(",
        "void PendingOp::wait(",
    ],
}


# Helpers that index channel slots but run only inside an anchor: the
# typed completers run from PendingOp::wait, await_chunk from await_source
# and the drain completer. Any other slot access is a violation, so a new
# path to the slots cannot bypass the seam.
SLOT_HELPERS = {
    "src/comm/comm.hpp": [
        "void PendingOp::complete_impl(",
        "std::span<const T> await_chunk(",
    ],
}
SLOT_RE = re.compile(r"\bch\.(?:ptr2?|len|kind|root)\[")


def function_body(text, anchor_index):
    """The brace-matched body of the function starting at anchor_index,
    or None if no opening brace follows."""
    open_brace = text.find("{", anchor_index)
    if open_brace < 0:
        return None
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace : i + 1]
    return None


def check_seam_funnel(root):
    violations = []
    for rel, anchors in SEAM_ANCHORS.items():
        path = root / rel
        if not path.is_file():
            violations.append(f"{rel}: file missing (seam-funnel anchors "
                              f"are stale; update SEAM_ANCHORS)")
            continue
        text = path.read_text()
        for anchor in anchors:
            at = text.find(anchor)
            if at < 0:
                violations.append(
                    f"{rel}: collective `{anchor.rstrip('(')}` not found "
                    f"(renamed? update SEAM_ANCHORS)")
                continue
            body = function_body(text, at)
            if body is None or "seam_event(" not in body:
                line = text.count("\n", 0, at) + 1
                violations.append(
                    f"{rel}:{line}: seam-funnel: collective "
                    f"`{anchor.rstrip('(')}` does not call "
                    f"detail::seam_event — it is invisible to fault "
                    f"injection and the contract checker")
    for rel in sorted(set(SEAM_ANCHORS) | set(SLOT_HELPERS)):
        path = root / rel
        if not path.is_file():
            continue
        text = path.read_text()
        spans = []
        for anchor in SEAM_ANCHORS.get(rel, []) + SLOT_HELPERS.get(rel, []):
            at = text.find(anchor)
            if at < 0:
                if anchor in SLOT_HELPERS.get(rel, []):
                    violations.append(
                        f"{rel}: slot helper `{anchor.rstrip('(')}` not "
                        f"found (renamed? update SLOT_HELPERS)")
                continue
            body = function_body(text, at)
            if body is not None:
                start = text.find("{", at)
                spans.append((start, start + len(body)))
        for hit in SLOT_RE.finditer(text):
            if not any(lo <= hit.start() < hi for lo, hi in spans):
                line = text.count("\n", 0, hit.start()) + 1
                violations.append(
                    f"{rel}:{line}: seam-funnel: channel slot "
                    f"`{hit.group(0)}` accessed outside the seam-anchored "
                    f"functions (post_async / wait / await_source)")
    return violations


# ---- rule: naked-thread ------------------------------------------------

THREAD_RE = re.compile(r"std::thread\b")
THREAD_ALLOW = "lint:allow(naked-thread)"
THREAD_EXEMPT = ("src/util/parallel.hpp", "src/util/parallel.cpp")


def check_naked_thread(root):
    violations = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel in THREAD_EXEMPT:
            continue
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if not THREAD_RE.search(line):
                continue
            if "std::thread::hardware_concurrency" in line:
                continue
            prev = lines[i - 1] if i > 0 else ""
            if THREAD_ALLOW in line or THREAD_ALLOW in prev:
                continue
            violations.append(
                f"{rel}:{i + 1}: naked-thread: raw std::thread outside "
                f"src/util/parallel.* (use the pool, or annotate a "
                f"deliberate exception with `{THREAD_ALLOW}`)")
    return violations


# ---- rule: hot-path-alloc ----------------------------------------------

HOT_MARK = "[[hot-path]]"
ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("
    r"|\bmake_unique\b|\bmake_shared\b"
    # A local container declared by value: the type (template arguments
    # optional) followed directly by a variable name. References,
    # pointers and nested names (`std::vector<T>& v`, `::iterator it`)
    # do not match.
    r"|\bstd::(?:vector|string|function|(?:unordered_)?(?:multi)?(?:map|set)"
    r"|deque|list)\b(?:\s*<[^;{}]*?>)?\s+[A-Za-z_]\w*\s*[;({=]")


def check_hot_path_alloc(root):
    violations = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        search_from = 0
        while True:
            mark = text.find(HOT_MARK, search_from)
            if mark < 0:
                break
            search_from = mark + len(HOT_MARK)
            body = function_body(text, mark)
            if body is None:
                line = text.count("\n", 0, mark) + 1
                violations.append(
                    f"{rel}:{line}: hot-path-alloc: {HOT_MARK} marker "
                    f"with no function body following it")
                continue
            hit = ALLOC_RE.search(body)
            if hit:
                line = (text.count("\n", 0, mark + text[mark:].find(hit.group(0)))
                        + 1)
                violations.append(
                    f"{rel}:{line}: hot-path-alloc: `{hit.group(0).strip()}`"
                    f" inside a {HOT_MARK} function (allocation on the "
                    f"publish/await/charge path)")
    return violations


# ---- rule: knob-docs ---------------------------------------------------

KNOB_RE = re.compile(r'"(CAGNET_[A-Z_]+)"')


def check_knob_docs(root):
    knobs = set()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        knobs.update(KNOB_RE.findall(path.read_text()))
    # CAGNET_CHECK is also the assertion macro's name; the quoted literal
    # in contract_check.cpp is the env knob, which is what we want here.
    violations = []
    readme = (root / "README.md").read_text() if (root / "README.md").is_file() else ""
    design = (root / "DESIGN.md").read_text() if (root / "DESIGN.md").is_file() else ""
    table_rows = [l for l in readme.splitlines() if l.lstrip().startswith("|")]
    for knob in sorted(knobs):
        exact = re.compile(re.escape(knob) + r"(?![A-Z_])")
        if not any(exact.search(row) for row in table_rows):
            violations.append(
                f"README.md: knob-docs: env knob {knob} (read in src/) has "
                f"no row in the README knob table")
        if not exact.search(design):
            violations.append(
                f"DESIGN.md: knob-docs: env knob {knob} (read in src/) is "
                f"never mentioned in DESIGN.md")
    return violations


# ---- rule: bench-schema ------------------------------------------------

BENCH_NAME_RE = re.compile(r'\\"bench\\":\\"([a-z0-9_]+)\\"')
FIELD_RE = re.compile(r'\\"([a-z0-9_]+)\\":')


def load_schemas(root):
    sys.path.insert(0, str(root / "tools"))
    try:
        import check_bench_schema
        return check_bench_schema.SCHEMAS
    finally:
        sys.path.pop(0)


def check_bench_schema_sync(root, schemas=None):
    if schemas is None:
        schemas = load_schemas(root)
    violations = []
    seen_benches = set()
    bench_dir = root / "bench"
    for path in sorted(bench_dir.glob("*.cpp")) if bench_dir.is_dir() else []:
        text = path.read_text()
        names = set(BENCH_NAME_RE.findall(text))
        if not names:
            continue
        rel = path.relative_to(root).as_posix()
        for name in sorted(names):
            seen_benches.add(name)
            if name not in schemas:
                violations.append(
                    f"{rel}: bench-schema: emits bench \"{name}\" which has "
                    f"no entry in tools/check_bench_schema.py SCHEMAS")
                continue
            emitted = set(FIELD_RE.findall(text))
            missing = emitted - schemas[name]
            stale = schemas[name] - emitted
            for f in sorted(missing):
                violations.append(
                    f"{rel}: bench-schema: field \"{f}\" is emitted but "
                    f"missing from SCHEMAS[\"{name}\"] in "
                    f"tools/check_bench_schema.py")
            for f in sorted(stale):
                violations.append(
                    f"{rel}: bench-schema: SCHEMAS[\"{name}\"] pins field "
                    f"\"{f}\" which the bench no longer emits")
    for name in schemas:
        if name not in seen_benches:
            violations.append(
                f"tools/check_bench_schema.py: bench-schema: SCHEMAS entry "
                f"\"{name}\" has no emitting bench under bench/")
    return violations


# ---- driver ------------------------------------------------------------

RULES = [
    ("seam-funnel", check_seam_funnel),
    ("naked-thread", check_naked_thread),
    ("hot-path-alloc", check_hot_path_alloc),
    ("knob-docs", check_knob_docs),
    ("bench-schema", check_bench_schema_sync),
]


def run(root):
    all_violations = []
    for name, rule in RULES:
        all_violations.extend(rule(root))
    for v in all_violations:
        print(v)
    if all_violations:
        print(f"lint_invariants: {len(all_violations)} violation(s)")
        return 1
    print(f"lint_invariants: OK ({len(RULES)} rules, 0 violations)")
    return 0


# ---- self-test ---------------------------------------------------------
#
# Seeds one violation per rule into a synthetic tree and asserts the rule
# fires. A rule that stops firing (regex rot, renamed anchor) fails CI
# here rather than silently passing everything forever.


def build_seeded_tree(tmp):
    (tmp / "src/comm").mkdir(parents=True)
    (tmp / "src/util").mkdir(parents=True)
    (tmp / "bench").mkdir()
    # seam-funnel: both anchor files exist but await_source never calls
    # seam_event; the rest of the anchors are present and clean.
    hpp_parts = []
    for anchor in SEAM_ANCHORS["src/comm/comm.hpp"]:
        body = ("{}" if anchor == "std::span<const T> await_source("
                else "{ seam_event(x); }")
        hpp_parts.append(f"template <typename T>\n{anchor}) {body}\n")
    for helper in SLOT_HELPERS["src/comm/comm.hpp"]:
        hpp_parts.append(f"template <typename T>\n{helper}) {{ ch.ptr[0]; }}\n")
    (tmp / "src/comm/comm.hpp").write_text("\n".join(hpp_parts))
    cpp_parts = []
    for anchor in SEAM_ANCHORS["src/comm/comm.cpp"]:
        cpp_parts.append(f"{anchor}) {{ seam_event(x); ch.len[0]; }}\n")
    # seam-funnel: a channel slot read outside every anchored function.
    cpp_parts.append("void rogue_reader() { auto* p = ch.ptr[1]; }\n")
    # naked-thread: a raw std::thread outside parallel.*, unannotated.
    cpp_parts.append("void rogue() { std::thread t([] {}); t.join(); }\n")
    # hot-path-alloc: marked functions that allocate, by `new` and by a
    # local container.
    cpp_parts.append(
        "// [[hot-path]]\nvoid hot() { auto* p = new int(1); (void)p; }\n")
    cpp_parts.append(
        "// [[hot-path]]\nvoid hot_vec(const std::vector<int>& in) {\n"
        "  std::vector<Index> bounds(4);\n  (void)in;\n}\n")
    # knob-docs: a knob read in src/ but absent from README/DESIGN.
    cpp_parts.append(
        'void knob() { (void)std::getenv("CAGNET_UNDOCUMENTED"); }\n')
    (tmp / "src/comm/comm.cpp").write_text("\n".join(cpp_parts))
    (tmp / "README.md").write_text("| `CAGNET_DOCUMENTED` | ... |\n")
    (tmp / "DESIGN.md").write_text("CAGNET_DOCUMENTED\n")
    # bench-schema: emits a field the schema does not pin.
    (tmp / "bench/bench_fake.cpp").write_text(
        'printf("{\\"schema_version\\":1,\\"bench\\":\\"fake\\","'
        '"\\"rogue_field\\":%d}\\n", 1);\n')
    return {"fake": {"schema_version", "bench"}}


def self_test():
    import shutil
    import tempfile
    tmp = Path(tempfile.mkdtemp(prefix="lint_selftest_"))
    try:
        schemas = build_seeded_tree(tmp)
        failures = []
        expectations = [
            ("seam-funnel", lambda: [
                v for v in check_seam_funnel(tmp) if "await_source" in v]),
            ("seam-funnel", lambda: [
                v for v in check_seam_funnel(tmp) if "channel slot" in v]),
            ("naked-thread", lambda: check_naked_thread(tmp)),
            ("hot-path-alloc", lambda: check_hot_path_alloc(tmp)),
            ("hot-path-alloc", lambda: [
                v for v in check_hot_path_alloc(tmp) if "std::vector" in v]),
            ("knob-docs", lambda: check_knob_docs(tmp)),
            ("bench-schema",
             lambda: check_bench_schema_sync(tmp, schemas)),
        ]
        for name, rule in expectations:
            found = [v for v in rule() if name in v]
            if not found:
                failures.append(name)
                print(f"self-test: rule {name} FAILED to flag its seeded "
                      f"violation")
            else:
                print(f"self-test: rule {name} fired: {found[0]}")
        if failures:
            print(f"lint_invariants --self-test: {len(failures)} rule(s) "
                  f"dead: {', '.join(failures)}")
            return 1
        print(f"lint_invariants --self-test: OK ({len(expectations)} "
              f"seeded violations flagged)")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv):
    if "--self-test" in argv:
        return self_test()
    if len(argv) > 1:
        print(f"usage: {argv[0]} [--self-test]", file=sys.stderr)
        return 2
    return run(REPO)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
