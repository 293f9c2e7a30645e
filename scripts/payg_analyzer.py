#!/usr/bin/env python3
"""payg-analyzer: the project's one static checker (DESIGN.md §9, §14).
Line rules match single source lines over src/**/*.{h,cc}; function rules
reason about whole function definitions in src/**/*.cc — lock scopes,
pointer lifetimes, and statement structure — so they catch the bugs that
need context.

Line rules:

  raw-sync         std::mutex / std::condition_variable / std::lock_guard /
                   std::unique_lock / std::scoped_lock / std::shared_mutex are
                   banned outside common/thread_annotations.h. The shim types
                   (payg::Mutex, MutexLock, UniqueLock, CondVar) carry the
                   thread-safety capability attributes; a raw std primitive is
                   invisible to the analysis.

  unguarded-mutex  Every declared payg::Mutex must be referenced by at least
                   one thread-safety annotation (GUARDED_BY / PT_GUARDED_BY /
                   REQUIRES / ACQUIRE / RELEASE / EXCLUDES) or a CondVar
                   Wait/WaitFor call in the same file. A mutex nothing is
                   annotated against protects nothing the analysis can check.

  raw-getenv       getenv is banned; every knob goes through the strict
                   EnvLong/EnvFlag/EnvRaw helpers of common/env.h, whose three
                   getenv calls carry the rule's allow marker.

  metric-name      String literals passed to counter("...") / gauge("...") /
                   histogram("...") must follow the DESIGN.md §6 scheme
                   "<layer>.<metric>" (a literal that is a prefix of a
                   concatenated name is checked as a prefix). The per-query
                   counter list, the PAYG_QUERY_COUNTERS X-macro, expands to
                   the "query.<name>" counters; no other site may register a
                   query.* name. The check is two-way against the fenced §6
                   metric inventory: every registered (name, kind) and every
                   list entry must appear there, and every inventory row must
                   still be registered or listed — so the table can neither
                   lag the code nor outlive it. Dynamic names use a <k>
                   placeholder in the table.

Function rules:

  lock-order       Simulates RAII lock scopes (MutexLock / UniqueLock /
                   ShardLock, plus UniqueLock::Lock/Unlock) through each
                   function and checks every acquisition against the
                   documented lock-order manifest: ResourceManager `mu_` →
                   stripe → nothing (DESIGN.md §8), at most one PageCache
                   shard lock (§12), server `queue_mu_` and `sessions_mu_`
                   never held together and each `Pending` mutex leaf-level
                   (§13). Also flags calls to the server execution entry
                   points while `queue_mu_` is held.

  pin-escape       A raw pointer derived from a function-local PageRef /
                   PinnedResource (via .page() / .payload() / .raw() /
                   .data()) dies with the pin at scope end. Returning such
                   a pointer, or storing it into a member / global /
                   static, lets it dangle after the page is unpinned and
                   possibly evicted. Pins that are themselves members are
                   exempt: their lifetime covers the stored pointer.

  wire-bounds      In the wire decode paths (src/server/wire.cc), every
                   raw read of the frame buffer — indexing or substr on
                   the payload string_view — must be dominated by a length
                   check (`.size()` comparison) on the same buffer in the
                   same function. The Cursor Get* helpers are the
                   sanctioned pattern; this rule catches a future reader
                   added without its guard.

  status-swallow   A statement whose effect is only a call to a function
                   returning Status / Result<T> drops the error on the
                   floor. [[nodiscard]] + -Werror=unused-result already
                   reject the direct form; this rule also sees the shapes
                   the compiler lets through — (void) casts, ternaries
                   (`c ? Foo() : Bar();`), and comma operators.

Any finding can be suppressed for one line with `// analyzer:allow(<rule>)`
on that line (or the line above); the suppression is expected to sit next
to a justifying comment.

Engines: by default the analyzer uses a built-in token engine (a C++
lexer + brace-scope tracker; zero dependencies, same results everywhere).
If the libclang python bindings are importable, `--engine=cindex` parses
each file through clang.cindex instead and feeds the same rule logic from
real AST token streams; `--engine=auto` (default) tries cindex and falls
back to the token engine. Both engines produce identical FunctionUnit
structures, so findings are engine-independent by construction.

Usage:
  scripts/payg_analyzer.py                analyze src/ (exit 1 on findings)
  scripts/payg_analyzer.py --self-test    run over scripts/analyzer_fixtures/
                                          and verify every seeded violation
                                          (and nothing else) is flagged
  scripts/payg_analyzer.py --engine=token|cindex|auto
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "analyzer_fixtures"

ALLOW_RE = re.compile(r"analyzer:allow\(([a-z\-]+)\)")

# ---------------------------------------------------------------------------
# Line-rule patterns.
# ---------------------------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"std::(mutex|condition_variable(_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_mutex|shared_lock)\b")
MUTEX_DECL_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;", re.M)
GETENV_RE = re.compile(r"\bgetenv\s*\(")

METRIC_LAYERS = ("storage", "cache", "rm", "exec", "query", "io", "buffer",
                 "obs", "codec", "profile", "server")
METRIC_NAME_RE = re.compile(r"(?:%s)\.[a-z0-9_.]+" % "|".join(METRIC_LAYERS))
# The trailing group tells a whole name (")"), a concatenated prefix ("+")
# and the per-query list's stringized expansion ("query." #name) apart.
METRIC_RE = re.compile(
    r"\b(counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"\s*([+)#]?)")
INVENTORY_ROW_RE = re.compile(
    r"^\|\s*`([^`]+)`\s*\|\s*(counter|gauge|histogram)\s*\|", re.M)
INVENTORY_BEGIN = "<!-- metric-inventory:begin -->"
INVENTORY_END = "<!-- metric-inventory:end -->"
QUERY_PREFIX = "query."
QUERY_LIST_DEFINE = "#define PAYG_QUERY_COUNTERS(X)"
QUERY_ENTRY_RE = re.compile(r"\bX\((\w+),")

# ---------------------------------------------------------------------------
# Lock-order manifest. Lock classes are keyed by (file basename, acquisition
# site); the rules below are the documented invariants, one entry per
# forbidden (held, acquired) pair. Fixture files are listed alongside the
# real ones so --self-test exercises the same classification code.
# ---------------------------------------------------------------------------

# basename -> list of (pattern over the guard's constructor argument,
#                      lock class). First match wins; None = unclassified.
LOCK_SITES = {
    "resource_manager.cc": [(r"\bstripe\b", "rm.stripe"), (r"^mu_$", "rm.mu")],
    "server.cc": [(r"^queue_mu_$", "server.queue"),
                  (r"^sessions_mu_$", "server.sessions"),
                  (r"(^|\.|->)mu$", "server.pending")],
    "fixture_lock_order.cc": [(r"\bstripe\b", "rm.stripe"),
                              (r"^mu_$", "rm.mu"),
                              (r"^queue_mu_$", "server.queue"),
                              (r"^sessions_mu_$", "server.sessions"),
                              (r"(^|\.|->)mu$", "server.pending")],
}

# Files where the ShardLock guard type means the PageCache shard mutex.
SHARD_LOCK_FILES = {"page_cache.cc", "fixture_lock_order.cc"}

# (held class, acquired class) -> violation message.
LOCK_ORDER_FORBIDDEN = {
    ("rm.stripe", "rm.mu"):
        "ResourceManager stripe held while acquiring mu_ — the documented "
        "order is mu_ -> stripe -> nothing (DESIGN.md §8)",
    ("rm.stripe", "rm.stripe"):
        "two ResourceManager stripes held at once — stripes are terminal "
        "in the lock order (DESIGN.md §8)",
    ("cache.shard", "cache.shard"):
        "two PageCache shard locks held at once (DESIGN.md §12)",
    ("server.queue", "server.sessions"):
        "sessions_mu_ acquired under queue_mu_ — the two are never held "
        "together (DESIGN.md §13)",
    ("server.sessions", "server.queue"):
        "queue_mu_ acquired under sessions_mu_ — the two are never held "
        "together (DESIGN.md §13)",
    ("server.pending", "server.queue"):
        "a Pending mutex is leaf-level; nothing is acquired under it "
        "(DESIGN.md §13)",
    ("server.pending", "server.sessions"):
        "a Pending mutex is leaf-level; nothing is acquired under it "
        "(DESIGN.md §13)",
    ("server.pending", "server.pending"):
        "a Pending mutex is leaf-level; nothing is acquired under it "
        "(DESIGN.md §13)",
}

# Calls forbidden while a given lock class is held: a worker never holds
# queue_mu_ while executing a query (DESIGN.md §13).
LOCKED_CALL_FORBIDDEN = {
    "server.queue": ({"Dispatch", "ExecuteSingle", "ExecuteBatch"},
                     "query execution entered while holding queue_mu_ "
                     "(DESIGN.md §13: workers drop the queue lock before "
                     "executing)"),
}

# Guards whose constructor takes the mutex as an argument.
GUARD_TYPES = {"MutexLock", "UniqueLock"}

PIN_TYPES = {"PageRef", "PinnedResource"}
# Methods that step from a pin (or a value derived from one) toward the
# underlying storage bytes.
PIN_DERIVE_METHODS = {"page", "payload", "raw", "data", "header"}

WIRE_BOUNDS_FILES = {"wire.cc", "fixture_wire_bounds.cc"}

# ---------------------------------------------------------------------------
# Tokenizer (token engine). Comments and string literals are consumed as
# single tokens; preprocessor lines are skipped.
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<string>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<number>\.?\d(?:[\w.']|[eEpP][+-])*)
  | (?P<punct>->\*?|\+\+|--|<<=?|>>=?|<=|>=|==|!=|&&|\|\||[+\-*/%&|^!=<>]=
              |::|\.\.\.|[()\[\]{};,.?:~+\-*/%&|^!=<>#])
""", re.VERBOSE | re.DOTALL)


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


def tokenize(text):
    """C++ tokens (comments/strings collapsed, preprocessor dropped)."""
    # Strip preprocessor lines first (keep newlines for line numbers),
    # honoring continuations.
    out_lines = []
    skipping = False
    for line in text.split("\n"):
        stripped = line.lstrip()
        if skipping or stripped.startswith("#"):
            skipping = line.rstrip().endswith("\\")
            out_lines.append("")
        else:
            out_lines.append(line)
    text = "\n".join(out_lines)

    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup
        if kind != "comment":
            toks.append(Tok(kind, m.group(), line))
    return toks


class FunctionUnit:
    """One function definition: its name, extent, and body tokens. Both
    engines produce exactly this, so every rule is engine-independent."""

    __slots__ = ("path", "name", "line", "ret_tokens", "tokens")

    def __init__(self, path, name, line, ret_tokens, tokens):
        self.path = path            # Path
        self.name = name            # possibly qualified ("Class::Method")
        self.line = line            # line of the opening brace
        self.ret_tokens = ret_tokens  # tokens between prev ';'/'}' and name
        self.tokens = tokens        # body tokens, including the outer braces


_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                     "sizeof", "alignof", "decltype", "new", "delete"}
_SIG_NOISE = {"const", "noexcept", "override", "final", "mutable", "->",
              "&", "&&", "*", "try"}
_ANNOTATIONS = {"REQUIRES", "EXCLUDES", "ACQUIRE", "RELEASE",
                "ACQUIRED_AFTER", "ACQUIRED_BEFORE", "NO_THREAD_SAFETY_ANALYSIS",
                "SCOPED_CAPABILITY", "ASSERT_CAPABILITY"}


def _match_paren_back(toks, close_idx):
    """Index of the '(' matching toks[close_idx] == ')'."""
    depth = 0
    i = close_idx
    while i >= 0:
        t = toks[i].text
        if t == ")":
            depth += 1
        elif t == "(":
            depth -= 1
            if depth == 0:
                return i
        i -= 1
    return -1


def split_functions(path, toks):
    """Token-engine function splitter: find every body-opening '{' whose
    backward context looks like `name ( params ) [qualifiers] {`, walking
    back over trailing annotations and constructor member-init lists."""
    units = []
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].text != "{":
            i += 1
            continue
        j = i - 1
        # Walk back over signature qualifiers and annotation groups.
        while j >= 0:
            t = toks[j]
            if t.text in _SIG_NOISE:
                j -= 1
            elif t.text == ")":
                open_idx = _match_paren_back(toks, j)
                if open_idx <= 0:
                    break
                prev = toks[open_idx - 1]
                if prev.kind == "ident" and prev.text in _ANNOTATIONS:
                    j = open_idx - 2  # annotation group: keep walking
                else:
                    break  # this is the parameter list (or an init-list entry)
            elif t.kind == "ident" and t.text not in _CONTROL_KEYWORDS:
                # could be a trailing return type / init-list: give up here
                break
            else:
                break
        if j < 0 or toks[j].text != ")":
            i += 1
            continue
        open_idx = _match_paren_back(toks, j)
        if open_idx <= 0:
            i += 1
            continue
        # Constructor member-init list: `) : a_(x), b_(y) {` — hop back over
        # `ident ( ... )` groups joined by ':' or ',' to the parameter list.
        while True:
            name_idx = open_idx - 1
            if name_idx < 0 or toks[name_idx].kind != "ident":
                break
            sep_idx = name_idx - 1
            # init-list braces like `a_{x}` are not matched here (rare in
            # this codebase); ':' also introduces bitfields, which never
            # precede '{', so the hop is safe.
            if sep_idx >= 0 and toks[sep_idx].text in (":", ","):
                if toks[sep_idx].text == ":" and sep_idx >= 1 and \
                        toks[sep_idx - 1].text == ":":
                    break  # '::' — qualified name, not an init list
                prev_close = sep_idx - 1
                while prev_close >= 0 and toks[prev_close].text != ")":
                    prev_close -= 1
                nxt = _match_paren_back(toks, prev_close)
                if nxt <= 0:
                    break
                open_idx = nxt
                continue
            break
        name_idx = open_idx - 1
        if name_idx < 0 or toks[name_idx].kind != "ident" or \
                toks[name_idx].text in _CONTROL_KEYWORDS:
            i += 1
            continue
        # Qualified name: A::B::name.
        name_parts = [toks[name_idx].text]
        k = name_idx - 1
        while k >= 1 and toks[k].text == "::" and toks[k - 1].kind == "ident":
            name_parts.insert(0, toks[k - 1].text)
            k -= 2
        # Return-type tokens: from the previous statement boundary.
        r = k
        ret = []
        while r >= 0 and toks[r].text not in (";", "}", "{"):
            ret.insert(0, toks[r].text)
            r -= 1
        # Find the matching close brace.
        depth = 0
        end = i
        while end < n:
            if toks[end].text == "{":
                depth += 1
            elif toks[end].text == "}":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        units.append(FunctionUnit(path, "::".join(name_parts), toks[i].line,
                                  ret, toks[i:end + 1]))
        i = end + 1
    return units


# ---------------------------------------------------------------------------
# Engines.
# ---------------------------------------------------------------------------

class TokenEngine:
    name = "token"

    def functions(self, path, text):
        return split_functions(path, tokenize(text))


class CindexEngine:
    """libclang-backed engine: walks FUNCTION_DECL / CXX_METHOD cursors in
    each TU (compile flags from build/compile_commands.json when present)
    and re-emits their token streams as FunctionUnits. Rule logic is
    shared with the token engine; only the splitting differs."""

    name = "cindex"

    def __init__(self):
        import clang.cindex as cindex  # raises if bindings are absent
        self._cindex = cindex
        self._index = cindex.Index.create()
        self._args = self._compile_args()

    def _compile_args(self):
        db = REPO / "build" / "compile_commands.json"
        args = ["-std=c++20", f"-I{SRC}"]
        if db.exists():
            try:
                cdb = self._cindex.CompilationDatabase.fromDirectory(
                    str(db.parent))
                cmds = cdb.getAllCompileCommands()
                if cmds:
                    first = list(cmds[0].arguments)
                    args = [a for a in first[1:]
                            if a.startswith(("-I", "-D", "-std"))]
            except self._cindex.CompilationDatabaseError:
                pass
        return args

    def functions(self, path, text):
        cindex = self._cindex
        tu = self._index.parse(str(path), args=self._args,
                               unsaved_files=[(str(path), text)])
        units = []
        kinds = (cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
                 cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR)

        def visit(cursor):
            for child in cursor.get_children():
                if child.kind in kinds and child.is_definition() and \
                        child.location.file and \
                        Path(str(child.location.file)) == path:
                    toks = [Tok("ident" if t.kind.name == "IDENTIFIER"
                                else t.kind.name.lower(), t.spelling,
                                t.location.line)
                            for t in child.get_tokens()]
                    # Trim to the body (from the first '{').
                    try:
                        start = next(idx for idx, t in enumerate(toks)
                                     if t.text == "{")
                    except StopIteration:
                        continue
                    ret = [t.text for t in toks[:start]]
                    units.append(FunctionUnit(
                        path, child.spelling, toks[start].line, ret,
                        toks[start:]))
                else:
                    visit(child)

        visit(tu.cursor)
        return units


def make_engine(choice):
    if choice in ("auto", "cindex"):
        try:
            return CindexEngine()
        except Exception as e:  # bindings missing or libclang unloadable
            if choice == "cindex":
                print(f"payg_analyzer: cindex engine unavailable ({e}); "
                      "falling back to token engine", file=sys.stderr)
    return TokenEngine()


# ---------------------------------------------------------------------------
# Rule helpers.
# ---------------------------------------------------------------------------

def harvest_status_functions(root):
    """Names only ever declared to return Status / Result<T> under root.
    Every function-shaped declaration is classified by its return type; a
    name that also appears with any other return type is ambiguous and
    dropped — the swallow rule must never fire on a void overload."""
    decl_re = re.compile(
        r"^\s*(?:static\s+|virtual\s+|inline\s+|constexpr\s+|explicit\s+|"
        r"\[\[nodiscard\]\]\s+)*"
        r"(?:const\s+)?(?P<ret>[\w:]+(?:<[^;{}()]*>)?)\s*[&*]?\s+"
        r"(?P<name>\w+)\s*\(", re.M)
    status, other = set(), set()
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        for m in decl_re.finditer(path.read_text()):
            ret, name = m.group("ret"), m.group("name")
            if ret in ("return", "new", "case", "delete", "else", "typename",
                       "using", "template", "typedef", "co_return", "throw"):
                continue
            base = ret.split("::")[-1]
            if base == "Status" or base.startswith("Result<") or \
                    base == "Result":
                status.add(name)
            else:
                other.add(name)
    return status - other


def collect_allows(text):
    """line -> set of allowed rules (a marker also covers the next line)."""
    allows = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        for rule in ALLOW_RE.findall(line):
            allows.setdefault(lineno, set()).add(rule)
            allows.setdefault(lineno + 1, set()).add(rule)
    return allows


def is_allowed(allows, line, rule):
    return rule in allows.get(line, ())


# ---------------------------------------------------------------------------
# Line rules: raw-sync, raw-getenv, unguarded-mutex, and the collection half
# of metric-name (judged over the whole tree by check_metrics).
# ---------------------------------------------------------------------------

def check_lines(path, text, allows, findings, registrations, query_list):
    lines = text.split("\n")
    is_shim = path.name == "thread_annotations.h"
    for lineno, line in enumerate(lines, 1):
        if not is_shim and RAW_SYNC_RE.search(line):
            findings.append((path, lineno, "raw-sync",
                             "raw std synchronization primitive; use the "
                             "payg shims from common/thread_annotations.h"))
        if GETENV_RE.search(line):
            findings.append((path, lineno, "raw-getenv",
                             "raw getenv; use EnvLong/EnvFlag/EnvRaw from "
                             "common/env.h"))
        if is_allowed(allows, lineno, "metric-name"):
            continue
        for kind, name, trail in METRIC_RE.findall(line):
            registrations.append((path, lineno, kind, name, trail))
        if line.lstrip().startswith(QUERY_LIST_DEFINE):
            # The list's entries sit on the macro's continuation lines.
            i = lineno - 1
            while lines[i].rstrip().endswith("\\"):
                i += 1
                query_list.extend((path, i + 1, name)
                                  for name in QUERY_ENTRY_RE.findall(lines[i]))

    if is_shim:
        return
    for m in MUTEX_DECL_RE.finditer(text):
        name = m.group(1)
        evidence = re.compile(
            r"(GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
            r"EXCLUDES)\s*\(\s*[\w.\->]*\b%s\b|Wait(For)?\s*\(\s*%s\b"
            % (re.escape(name), re.escape(name)))
        if not evidence.search(text):
            findings.append((path, text.count("\n", 0, m.start(1)) + 1,
                             "unguarded-mutex",
                             f"Mutex {name} has no GUARDED_BY/REQUIRES/"
                             "ACQUIRE annotation (or CondVar wait) anywhere "
                             "in this file"))


def parse_metric_inventory(path):
    """name -> (kind, lineno) from the fenced metric inventory table."""
    text = path.read_text()
    begin = text.index(INVENTORY_BEGIN)
    end = text.index(INVENTORY_END)
    inventory = {}
    for m in INVENTORY_ROW_RE.finditer(text, begin, end):
        lineno = text.count("\n", 0, m.start()) + 1
        inventory[m.group(1)] = (m.group(2), lineno)
    return inventory


def check_metrics(registrations, query_list, inventory_path, findings):
    """metric-name: the scheme at each registration, then both directions
    against the inventory. The per-query list stands in for the
    "query." #name registrations it expands to."""
    inventory = parse_metric_inventory(inventory_path)
    used = []  # (name, is_prefix)
    for path, line, kind, name, trail in registrations:
        if trail == "#" and name == QUERY_PREFIX:
            continue  # the list's fold: its entries stand in, below
        if not METRIC_NAME_RE.fullmatch(name):
            findings.append((path, line, "metric-name",
                             f'metric name "{name}" does not follow the '
                             "DESIGN.md §6 <layer>.<metric> scheme"))
            continue
        if name.startswith(QUERY_PREFIX):
            findings.append((path, line, "metric-name",
                             f'{kind} "{name}" registered outside the '
                             "per-query counter list; add a "
                             "PAYG_QUERY_COUNTERS entry instead"))
            continue
        # A concatenated name ("cache.shard" + ...) covers the rows it
        # prefixes (e.g. `cache.shard<k>.pages`).
        is_prefix = trail == "+"
        used.append((name, is_prefix))
        if is_prefix:
            listed = any(iname.startswith(name) and ikind == kind
                         for iname, (ikind, _) in inventory.items())
        else:
            listed = inventory.get(name, (None,))[0] == kind
        if not listed:
            findings.append((path, line, "metric-name",
                             f'{kind} "{name}" is missing from the metric '
                             "inventory (or is listed with a different "
                             "kind)"))
    for path, line, name in query_list:
        used.append((QUERY_PREFIX + name, False))
        if inventory.get(QUERY_PREFIX + name, (None,))[0] != "counter":
            findings.append((path, line, "metric-name",
                             f'per-query counter "{name}" has no '
                             f"`{QUERY_PREFIX}{name}` counter row in the "
                             "metric inventory"))
    for iname, (ikind, line) in sorted(inventory.items()):
        if not any(iname == u or (dyn and iname.startswith(u))
                   for u, dyn in used):
            findings.append((inventory_path, line, "metric-name",
                             f'inventory row "{iname}" ({ikind}) is neither '
                             "registered nor in the per-query list under "
                             "the scanned tree — remove the row or restore "
                             "the metric"))


# ---------------------------------------------------------------------------
# Rule: lock-order.
# ---------------------------------------------------------------------------

def classify_lock(basename, arg_text):
    for pattern, cls in LOCK_SITES.get(basename, ()):
        if re.search(pattern, arg_text):
            return cls
    return None


def check_lock_order(unit, findings):
    basename = unit.path.name
    sites = basename in LOCK_SITES
    shard = basename in SHARD_LOCK_FILES
    if not sites and not shard:
        return
    toks = unit.tokens
    held = []  # [cls, guard_name, brace_depth, active]
    depth = 0
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth -= 1
            held = [h for h in held if h[2] <= depth]
        elif t.kind == "ident":
            cls = None
            guard_name = None
            if t.text in GUARD_TYPES and i + 2 < n and \
                    toks[i + 1].kind == "ident" and toks[i + 2].text == "(":
                close = _match_paren_fwd(toks, i + 2)
                arg = "".join(x.text for x in toks[i + 3:close])
                cls = classify_lock(basename, arg) if sites else None
                guard_name = toks[i + 1].text
                i = close
            elif shard and t.text == "ShardLock" and i + 2 < n and \
                    toks[i + 1].kind == "ident" and toks[i + 2].text == "(":
                close = _match_paren_fwd(toks, i + 2)
                cls = "cache.shard"
                guard_name = toks[i + 1].text
                i = close
            elif i + 2 < n and toks[i + 1].text == "." and \
                    toks[i + 2].text in ("Lock", "Unlock"):
                for h in held:
                    if h[1] == t.text:
                        if toks[i + 2].text == "Unlock":
                            h[3] = False
                        else:
                            h[3] = True
                            _check_acquire(
                                unit, h[0], t.line,
                                [x for x in held if x is not h and x[3]],
                                findings)
                i += 2
            elif t.kind == "ident" and i + 1 < n and toks[i + 1].text == "(":
                for h in held:
                    if not h[3]:
                        continue
                    forb = LOCKED_CALL_FORBIDDEN.get(h[0])
                    if forb and t.text in forb[0]:
                        findings.append((unit.path, t.line, "lock-order",
                                         f"{t.text}() called in "
                                         f"{unit.name}: {forb[1]}"))
            if cls is not None:
                _check_acquire(unit, cls, t.line,
                               [h for h in held if h[3]], findings)
                held.append([cls, guard_name, depth, True])
        i += 1


def _check_acquire(unit, cls, line, held, findings):
    for h in held:
        msg = LOCK_ORDER_FORBIDDEN.get((h[0], cls))
        if msg:
            findings.append((unit.path, line, "lock-order",
                             f"in {unit.name}: {msg}"))


def _match_paren_fwd(toks, open_idx):
    depth = 0
    i = open_idx
    while i < len(toks):
        if toks[i].text == "(":
            depth += 1
        elif toks[i].text == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


# ---------------------------------------------------------------------------
# Rule: pin-escape.
# ---------------------------------------------------------------------------

def check_pin_escape(unit, findings):
    toks = unit.tokens
    n = len(toks)
    # Pass 1: function-local pins (member pins — trailing underscore or
    # declared elsewhere — are exempt: their lifetime covers the pointer).
    pins = set()
    for i, t in enumerate(toks):
        if t.kind == "ident" and t.text in PIN_TYPES and i + 1 < n and \
                toks[i + 1].kind == "ident":
            pins.add(toks[i + 1].text)
    if not pins:
        return

    def derives_from_pin(expr_toks, tainted):
        for k, e in enumerate(expr_toks):
            if e.kind != "ident":
                continue
            if e.text in tainted:
                return True
            if e.text in pins and k + 2 < len(expr_toks) and \
                    expr_toks[k + 1].text in (".", "->") and \
                    expr_toks[k + 2].text in PIN_DERIVE_METHODS:
                return True
        return False

    # Pass 2: statement scan — taint locals initialized from a pin, then
    # flag returns and member/global stores of tainted values.
    tainted = set()
    stmt_start = 0
    returns_ptr = any(x in ("*", "&") for x in unit.ret_tokens)
    for i, t in enumerate(toks):
        if t.text != ";":
            continue
        stmt = toks[stmt_start:i]
        stmt_start = i + 1
        if not stmt:
            continue
        eq = next((k for k, e in enumerate(stmt)
                   if e.text == "=" and e.kind == "punct"), None)
        if eq is not None:
            lhs, rhs = stmt[:eq], stmt[eq + 1:]
            if derives_from_pin(rhs, tainted):
                # Pointer-typed declaration: `T* p = ...` taints p.
                if len(lhs) >= 2 and lhs[-1].kind == "ident" and \
                        any(x.text in ("*", "&") for x in lhs[:-1]):
                    name = lhs[-1].text
                    if name.endswith("_") or \
                            any(x.text in ("this", "->") for x in lhs):
                        findings.append(
                            (unit.path, stmt[0].line, "pin-escape",
                             f"in {unit.name}: pointer derived from a "
                             "function-local pin stored into a member — it "
                             "dangles once the pin is released"))
                    else:
                        tainted.add(name)
                elif lhs and (lhs[-1].text.endswith("_") or
                              any(x.text == "this" for x in lhs) or
                              (len(lhs) >= 3 and lhs[-2].text in (".", "->")
                               and lhs[-1].kind == "ident" and
                               lhs[0].text.endswith("_"))):
                    findings.append(
                        (unit.path, stmt[0].line, "pin-escape",
                         f"in {unit.name}: value derived from a "
                         "function-local pin stored into a member — it "
                         "dangles once the pin is released"))
        elif stmt[0].text == "return" and returns_ptr and \
                derives_from_pin(stmt[1:], tainted):
            findings.append(
                (unit.path, stmt[0].line, "pin-escape",
                 f"in {unit.name}: pointer derived from a function-local "
                 "pin returned — the pin is released when this function "
                 "exits"))


# ---------------------------------------------------------------------------
# Rule: wire-bounds.
# ---------------------------------------------------------------------------

def check_wire_bounds(unit, findings):
    if unit.path.name not in WIRE_BOUNDS_FILES:
        return
    toks = unit.tokens
    n = len(toks)
    # Buffers: string_view-ish names raw-read in this function.
    checked = set()   # buffers with a .size() comparison seen so far
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        # `buf . size ( )` in a comparison context marks buf as checked
        # from here on (straight-line dominance approximation).
        if i + 2 < n and toks[i + 1].text == "." and \
                toks[i + 2].text == "size":
            checked.add(t.text)
            continue
        # Raw reads: `buf [ ... ]` or `buf . substr (` or memcpy from
        # `buf . data ( ) + off`.
        is_index = i + 1 < n and toks[i + 1].text == "[" and \
            t.text not in ("out",)
        is_substr = i + 2 < n and toks[i + 1].text == "." and \
            toks[i + 2].text == "substr"
        is_data = i + 2 < n and toks[i + 1].text == "." and \
            toks[i + 2].text == "data"
        if not (is_index or is_substr or is_data):
            continue
        # Only frame buffers matter: the payload view or the Cursor's view.
        if t.text not in ("data", "payload", "buf", "frame"):
            continue
        if t.text not in checked:
            findings.append(
                (unit.path, t.line, "wire-bounds",
                 f"in {unit.name}: raw read of '{t.text}' not dominated by "
                 f"a {t.text}.size() check in this function"))


# ---------------------------------------------------------------------------
# Rule: status-swallow.
# ---------------------------------------------------------------------------

_STMT_STOPPERS = {"if", "while", "for", "switch", "return", "case",
                  "goto", "do", "else", "co_return", "co_await", "throw"}


def check_status_swallow(unit, status_fns, findings):
    toks = unit.tokens
    stmt_start = 1  # skip the opening brace
    depth = 0
    for i, t in enumerate(toks):
        if t.text in ("{", "}"):
            depth += 1 if t.text == "{" else -1
            stmt_start = i + 1
            continue
        if t.text != ";":
            continue
        stmt = toks[stmt_start:i]
        stmt_start = i + 1
        if not stmt:
            continue
        texts = [s.text for s in stmt]
        # Paren-balanced check: a ';' inside `for (...)` splits mid-header;
        # skip those fragments.
        if texts.count("(") != texts.count(")"):
            continue
        if any(x in _STMT_STOPPERS for x in texts):
            continue
        if any(x.startswith("PAYG_") for x in texts):
            continue  # the status macros consume the value
        if "=" in texts and "(void)" not in "".join(texts[:3]):
            # Assignment captures the value — except a leading (void) cast,
            # which is exactly the dropped form.
            if not (len(texts) >= 3 and texts[0] == "(" and
                    texts[1] == "void" and texts[2] == ")"):
                continue
        pdepth = 0
        for k, s in enumerate(stmt):
            if s.text == "(":
                pdepth += 1
            elif s.text == ")":
                pdepth -= 1
            # Only a call at statement top level is a drop: nested inside
            # another call's argument list the value is consumed. A leading
            # `(void)` cast closes before the call, so it stays top-level.
            if s.kind == "ident" and s.text in status_fns and \
                    k + 1 < len(stmt) and stmt[k + 1].text == "(" and \
                    pdepth == 0:
                prev = stmt[k - 1].text if k > 0 else ""
                if prev == "&":  # taking the address, not calling
                    continue
                findings.append(
                    (unit.path, s.line, "status-swallow",
                     f"in {unit.name}: result of {s.text}() "
                     "(Status/Result) is dropped in statement position — "
                     "propagate it or justify with "
                     "analyzer:allow(status-swallow)"))
                break


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def analyze(root, engine, status_fns, inventory_path):
    findings = []
    registrations, query_list = [], []
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        text = path.read_text()
        allows = collect_allows(text)
        raw = []
        check_lines(path, text, allows, raw, registrations, query_list)
        units = []
        if path.suffix == ".cc":
            try:
                units = engine.functions(path, text)
            except Exception as e:
                if engine.name != "cindex":
                    raise
                units = TokenEngine().functions(path, text)
                print(f"payg_analyzer: cindex failed on {path.name} ({e}); "
                      "token engine used for this file", file=sys.stderr)
        for unit in units:
            check_lock_order(unit, raw)
            check_pin_escape(unit, raw)
            check_wire_bounds(unit, raw)
            check_status_swallow(unit, status_fns, raw)
        findings.extend((path_.relative_to(REPO), line, rule, msg)
                        for path_, line, rule, msg in raw
                        if not is_allowed(allows, line, rule))
    raw = []
    check_metrics(registrations, query_list, inventory_path, raw)
    findings.extend((path_.relative_to(REPO), line, rule, msg)
                    for path_, line, rule, msg in raw)
    return findings


# Seeded violations per (fixture, rule). The self-test demands exactly these
# counts, so a rule that stops firing, fires twice, or fires on a clean shape
# (clean.cc, or a fixture seeded for another rule) fails it.
SELF_TEST_EXPECTED = {
    ("fixture_lock_order.cc", "lock-order"): 6,
    ("fixture_pin_escape.cc", "pin-escape"): 2,
    ("fixture_wire_bounds.cc", "wire-bounds"): 2,
    ("fixture_status_swallow.cc", "status-swallow"): 4,
    ("fixture_sync.h", "raw-sync"): 1,
    ("fixture_sync.h", "unguarded-mutex"): 1,
    ("fixture_getenv.cc", "raw-getenv"): 1,
    ("fixture_metric_name.cc", "metric-name"): 2,
    # The list/inventory mismatch both ways: a list entry without a row
    # here, a query.* row without a list entry (plus a stale row) below.
    ("fixture_query_counters.h", "metric-name"): 1,
    ("fixture_inventory.md", "metric-name"): 2,
}


def self_test(engine):
    findings = analyze(FIXTURES, engine, harvest_status_functions(FIXTURES),
                       FIXTURES / "fixture_inventory.md")
    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    got = {}
    for rel, _, rule, _ in findings:
        got[(rel.name, rule)] = got.get((rel.name, rule), 0) + 1
    for key in sorted(set(got) | set(SELF_TEST_EXPECTED)):
        if got.get(key, 0) != SELF_TEST_EXPECTED.get(key, 0):
            print(f"self-test FAILED: {key[0]} [{key[1]}]: expected "
                  f"{SELF_TEST_EXPECTED.get(key, 0)} finding(s), got "
                  f"{got.get(key, 0)}")
    ok = got == SELF_TEST_EXPECTED
    print(f"self-test ({engine.name} engine) " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    engine_choice = "auto"
    for arg in sys.argv[1:]:
        if arg.startswith("--engine="):
            engine_choice = arg.split("=", 1)[1]
    engine = make_engine(engine_choice)

    if "--self-test" in sys.argv:
        return self_test(engine)

    findings = analyze(SRC, engine, harvest_status_functions(SRC),
                       REPO / "DESIGN.md")
    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"payg_analyzer.py: {len(findings)} finding(s) "
              f"({engine.name} engine)")
        return 1
    print(f"payg_analyzer.py: clean ({engine.name} engine)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
