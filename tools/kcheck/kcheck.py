#!/usr/bin/env python3
"""kcheck: context-discipline and buffer-ownership static analysis.

Checks the ikdp source tree against the execution-context contract declared
with the IKDP_CTX_* annotations (src/kern/ctx.h) and the 4.2BSD buffer flag
discipline enforced at runtime by BufStateChecker (src/buf/buf_check.h).

Rule classes
------------
  interrupt-sleep      A blocking primitive (CpuSystem::Sleep / CpuSystem::Use
                       or any IKDP_CTX_PROCESS-annotated function) is reachable
                       through the call graph from a function annotated
                       IKDP_CTX_INTERRUPT, IKDP_CTX_SOFTCLOCK, or IKDP_CTX_ANY.
  undominated-charge   CpuSystem::ChargeInterrupt is called from a function
                       that is neither annotated IKDP_CTX_INTERRUPT nor
                       lexically dominated by an InInterrupt() check.
  buf-double-release   The same buffer variable is released (Brelse /
                       FreeTransientHeader) twice in straight-line code with
                       no re-acquisition in between.
  buf-release-unowned  A locally declared Buf is released or written
                       (Brelse / Bwrite / Bawrite / BawriteAsync / Bdwrite /
                       FreeTransientHeader) without a visible acquisition
                       (bread / getblk / transient alloc / Set(kBufBusy)).
  annotation-conflict  A function carries two different IKDP_CTX_* annotations
                       across its declarations/definition.
  annotation-mismatch  A function's out-of-line definition carries an
                       IKDP_CTX_* annotation but its declaration does not:
                       the contract is invisible to callers reading the
                       header.  (Both-annotated-differently is reported as
                       annotation-conflict.)
  guard-violation      A member annotated IKDP_GUARDED_BY(ctx, ...) is
                       accessed from a function whose IKDP_CTX_* annotation
                       resolves outside the member's guard set (`any` on a
                       function means it must be safe in every context, so
                       it may only touch members guarded by all three).
                       Members annotated IKDP_ORDERED_BY are exempt here:
                       their cross-context serialization is checked
                       dynamically by src/sim/krace.h channel edges.
  unknown-order-channel  An IKDP_ORDERED_BY names a channel outside the
                       known set (callout, biodone, reaper, diskq), or an
                       IKDP_GUARDED_BY lists an unknown context.
  stale-waiver         A `kcheck: allow(<rule>)` comment no longer matches
                       any finding (or names an unknown rule); delete it so
                       dead waivers cannot hide future regressions.
  mutable-global       A namespace-scope variable, function-static
                       variable or static data member that is neither const
                       nor constexpr: process-wide mutable state that two
                       simulations (or two host threads) would share.  Such
                       state belongs in the kernel context
                       (src/kern/kernel_context.h), whose one per-thread
                       definition carries the only waiver.

Lock rules (the static half of klock, docs/klock.md)
----------------------------------------------------
Locks are SpinLock / SleepLock members carrying an IKDP_LOCK_RANK(name, n)
trailer; members guarded by one are annotated IKDP_GUARDED_BY(lock:<name>).
kcheck tracks the lexically-held lock set through each function body
(Acquire / AcquireUncontended / Release / SpinGuard, with blocks that end in
return/break/continue restoring the pre-block set, and lambda bodies —
deferred callbacks — starting from an empty set).  Helpers that are only
ever called with a lock held inherit it through a caller-intersection
fixpoint, so `// lock-held` helpers need no annotation.

  lock-order-cycle     An acquisition order contradiction: a lock acquired
                       while holding one of equal or higher rank, two sites
                       acquiring a pair of locks in opposite orders (a cycle
                       in the observed order graph), or one lock name
                       declared with two different ranks.
  sleep-under-spinlock A blocking operation — CpuSystem::Sleep / Use
                       (directly or through the call graph), a SleepLock
                       Acquire, or a co_await — reached while a SpinLock is
                       held.  A spinning CPU cannot yield the processor.
  lock-guard-violation A member annotated IKDP_GUARDED_BY(lock:<name>) is
                       accessed at a point where <name> is not held.
  unreleased-lock      A path (early return, lambda end, or fall-off-end)
                       leaves a locally-acquired lock held, and the function
                       is not annotated IKDP_ACQUIRES(<name>).
  double-acquire       A held lock is acquired again — directly, through a
                       callee that (transitively) acquires it, or by calling
                       a function annotated IKDP_EXCLUDES(<name>) while
                       holding <name>.  On a uniprocessor this is a
                       self-deadlock, not contention.

Frontends
---------
The default frontend is a built-in lightweight C++ parser (comment/string
stripping, brace-scope tracking, qualified-name call graph).  It needs no
third-party packages and is what CI runs.  `--frontend=libclang` uses the
clang python bindings when they are installed; it is optional and gated —
kcheck exits with a clear message if the bindings are missing.

Known approximations of the builtin frontend (see docs/kcheck.md):
  * calls through an unresolvable receiver whose bare name matches more than
    one known function are skipped (no false positives, possible misses);
  * ChargeInterrupt domination is lexical: any earlier InInterrupt token in
    the same function body counts;
  * buf ownership is intraprocedural; function parameters and members are
    exempt (ownership transfer across calls is the runtime checker's job);
  * double-release is only flagged in straight-line code (no intervening
    closing brace or `else`), so branch-exclusive releases stay quiet.
  * mutable-global reads a namespace-scope declaration with a parenthesised
    list before any `=` as a function declaration, so a direct-initialised
    global (`Foo g(1);`) and variable templates are not seen.

A finding can be waived in place with a trailing `// kcheck: allow(<rule>)`
comment on the offending line; use sparingly and justify next to it.

Usage
-----
  kcheck.py [--compile-commands build/compile_commands.json] [--root src]
            [--frontend builtin|libclang] [--json] [--list-functions] [files...]

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import bisect
import hashlib
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import kpath  # noqa: E402  (the CFG/dataflow substrate, same directory)

ANNOTATION_MACROS = {
    "IKDP_CTX_PROCESS": "process",
    "IKDP_CTX_INTERRUPT": "interrupt",
    "IKDP_CTX_SOFTCLOCK": "softclock",
    "IKDP_CTX_ANY": "any",
}
NONBLOCKING_CTX = {"interrupt", "softclock", "any"}
ALL_CONTEXTS = frozenset({"process", "interrupt", "softclock"})

# Ordering channels the dynamic checker (src/sim/krace.h) knows how to
# carry; IKDP_ORDERED_BY must name one of these.
KNOWN_ORDER_CHANNELS = {"callout", "biodone", "reaper", "diskq"}

# Every rule kcheck can emit; waiver comments naming anything else are stale
# by construction.
KNOWN_RULES = {
    "interrupt-sleep", "undominated-charge", "buf-double-release",
    "buf-release-unowned", "annotation-conflict", "annotation-mismatch",
    "guard-violation", "unknown-order-channel", "stale-waiver",
    "lock-order-cycle", "sleep-under-spinlock", "lock-guard-violation",
    "unreleased-lock", "double-acquire", "mutable-global",
    # kpath error-path families (CFG + interprocedural summaries).
    "errno-clobber", "discarded-failure", "resource-leak-on-error-path",
    "charge-context-mismatch",
}

# Functions whose resolved call (transitively, outside lambda bodies) means
# "this may give up the processor" for sleep-under-spinlock.
MAY_BLOCK_SEEDS = {"CpuSystem::Sleep", "CpuSystem::Use", "SleepLock::Acquire"}

# The lock primitives' own classes: their method bodies implement the
# discipline rather than follow it, so the lock rules skip them.
LOCK_IMPL_CLASSES = {"SpinLock", "SleepLock", "SpinGuard", "LockdepValidator"}

# Blocking primitives recognized even without (in addition to) annotations.
BLOCKING_PRIMITIVES = {"CpuSystem::Sleep", "CpuSystem::Use"}

# Buffer-ownership vocabulary (rule class "busy-flag misuse").
BUF_ACQUIRE_NAMES = {
    "Bread", "Breada", "GetBlk", "TryGetBlk", "TryGrabFree",
    "AllocTransientHeader", "FreelistPop",
}
BUF_RELEASE_NAMES = {"Brelse", "FreeTransientHeader"}
# name -> index of the buffer argument (0-based).
BUF_WRITE_NAMES = {"Bwrite": 1, "Bawrite": 1, "Bdwrite": 1, "BawriteAsync": 0}

CPP_KEYWORDS = {
    "alignas", "alignof", "asm", "auto", "bool", "break", "case", "catch",
    "char", "class", "co_await", "co_return", "co_yield", "const",
    "constexpr", "const_cast", "continue", "decltype", "default", "delete",
    "do", "double", "dynamic_cast", "else", "enum", "explicit", "export",
    "extern", "false", "float", "for", "friend", "goto", "if", "inline",
    "int", "long", "mutable", "namespace", "new", "noexcept", "nullptr",
    "operator", "private", "protected", "public", "register",
    "reinterpret_cast", "return", "short", "signed", "sizeof", "static",
    "static_assert", "static_cast", "struct", "switch", "template", "this",
    "throw", "true", "try", "typedef", "typeid", "typename", "union",
    "unsigned", "using", "virtual", "void", "volatile", "while", "assert",
    "defined",
}


def blank_preprocessor_lines(text):
    """Blanks preprocessor directive lines (with their backslash
    continuations), preserving newlines so offsets keep mapping.

    Directives are not statements: without this, a function-like macro
    definition (`#define CHECK(x) ...`) merges into the NEXT declaration
    head, the balanced-paren scan takes the macro's parameter list, and the
    function that follows — its return type now stranded on its own line
    relative to the matched name — silently drops out of the database.
    Run AFTER strip_comments_and_strings so a '#' inside a comment or
    string cannot blank a real code line.
    """
    out = []
    continued = False
    for line in text.split("\n"):
        if continued or line.lstrip().startswith("#"):
            continued = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            continued = False
            out.append(line)
    return "\n".join(out)


def strip_comments_and_strings(text):
    """Replaces comments and string/char literal contents with spaces.

    Newlines are preserved so offsets keep mapping to the original lines.
    """
    out = list(text)
    i, n = 0, len(text)
    CODE, LINE, BLOCK, STR, CHR = range(5)
    state = CODE
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = STR
                out[i] = " "
            elif c == "'":
                state = CHR
                out[i] = " "
            i += 1
        elif state == LINE:
            if c == "\n":
                state = CODE
            else:
                out[i] = " "
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = CODE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        else:  # STR / CHR
            quote = '"' if state == STR else "'"
            if c == "\\":
                out[i] = " "
                if nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = CODE
            if c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


class Function:
    def __init__(self, qname):
        self.qname = qname          # "Class::Name" or "Name" (free function)
        self.annotation = None      # process / interrupt / softclock / any
        self.annotation_site = None  # (file, line) that set it
        self.conflict = None        # (file, line, other_annotation)
        self.body = None            # stripped body text (definition)
        self.body_file = None
        self.body_line = None       # 1-based line of the opening brace
        self.calls = []             # (receiver or None, name, file, line)
        # Lock contract (IKDP_ACQUIRES / IKDP_RELEASES / IKDP_EXCLUDES /
        # IKDP_REQUIRES).
        self.acquires = set()
        self.releases = set()
        self.excludes = set()
        self.requires = set()       # held at entry AND exit (may drop inside)
        self.params = {}            # parameter name -> base type (best effort)
        self.entry_held = frozenset()  # locks held on entry (fixpoint result)
        self.lambda_regions = []    # [(start, end)] lambda bodies within body
        self.locals = None          # lazily-built {local ptr/ref -> class}
        self.cfgs = None            # lazily-built (main_cfg, [lambda_cfg])
        # Per-site annotation tracking for the annotation-mismatch rule.
        self.decl_annotation = None  # annotation seen on a declaration
        self.declared_at = None      # (file, line) of first declaration seen
        self.def_annotation = None   # annotation seen on the definition head
        self.def_out_of_line = False  # definition had an explicit Class:: head

    @property
    def cls(self):
        return self.qname.rsplit("::", 1)[0] if "::" in self.qname else None

    @property
    def name(self):
        return self.qname.rsplit("::", 1)[-1]


class Model:
    """Everything kcheck knows about the tree."""

    def __init__(self):
        self.functions = {}   # qname -> Function
        self.by_name = {}     # bare name -> [Function]
        self.members = {}     # class -> {member: type-class}
        self.raw_lines = {}   # file -> original text lines (for waivers)
        # Data-side annotations (IKDP_GUARDED_BY / IKDP_ORDERED_BY):
        # class -> {member: ("guard", frozenset(ctx), file, line) |
        #                   ("order", channel, file, line) |
        #                   ("lockguard", lockname, file, line)}
        self.guards = {}
        # Sticky-errno registry (IKDP_STICKY_ERRNO member trailers):
        # class -> {member: (file, line)}
        self.sticky = {}
        # Lock registry from IKDP_LOCK_RANK member trailers:
        # lock name -> (class, member, rank, spin, file, line)
        self.locks = {}
        self.lock_members = {}      # (class, member) -> lock name
        self.lock_rank_conflicts = []  # (name, rank, file, line) duplicates
        # IKDP_ACQUIRED_AFTER declarations, checked against the rank table:
        # (class, member, other member, file, line)
        self.lock_acq_after = []
        # Waivers that actually suppressed a finding this run, so the
        # stale-waiver lint can flag the rest.
        self.used_waivers = set()
        # file -> comment/string/preprocessor-stripped text (mutable-global).
        self.code = {}

    def function(self, qname):
        fn = self.functions.get(qname)
        if fn is None:
            fn = Function(qname)
            self.functions[qname] = fn
            self.by_name.setdefault(fn.name, []).append(fn)
        return fn

    def waived(self, file, line, rule):
        lines = self.raw_lines.get(file)
        if not lines or not 1 <= line <= len(lines):
            return False
        if "kcheck: allow(%s)" % rule in lines[line - 1]:
            self.used_waivers.add((file, line, rule))
            return True
        return False


# Head of a function declaration/definition: tolerant of return types,
# templates in types, cv-qualifiers, trailing specifiers and ctor init lists.
CALL_RE = re.compile(r"(?:(\w+)\s*(?:\.|->)\s*)?(~?\w+)\s*\(")
QUAL_CALL_RE = re.compile(r"(\w+)\s*::\s*(\w+)\s*\(")
MEMBER_RE = re.compile(
    r"^\s*(?:(?:const|mutable|static|constexpr)\s+)*([A-Za-z_]\w*)\s*"
    r"(?:<[^;<>]*>)?\s*([*&]\s*)?([A-Za-z_]\w*_)\s*"
    r"(?:IKDP_\w+\s*(?:\([^)]*\))?\s*)*(?:=[^;]*)?;",
    re.M)
# A member declarator trailed by a data-side annotation.  The member name is
# whatever identifier immediately precedes the macro (guards trail the
# declarator, per src/kern/ctx.h).
GUARD_RE = re.compile(r"\b([A-Za-z_]\w*)\s+IKDP_GUARDED_BY\s*\(([^)]*)\)")
# A sticky-first-errno member: written once on the first failure, then
# preserved (`if (x == 0) x = e;`).  Trails the declarator, after any other
# member annotation (src/kern/ctx.h).
STICKY_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s+(?:IKDP_\w+\s*\([^)]*\)\s*)*IKDP_STICKY_ERRNO\b")
ORDER_RE = re.compile(r"\b([A-Za-z_]\w*)\s+IKDP_ORDERED_BY\s*\(\s*([A-Za-z_]\w*)\s*\)")
WAIVER_RE = re.compile(r"kcheck:\s*allow\(([A-Za-z][\w-]*)\)")
# A lock member declarator: `SpinLock lock_ IKDP_LOCK_RANK(cache, 40) = ...`.
LOCK_RANK_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s+IKDP_LOCK_RANK\s*\(\s*([A-Za-z_]\w*)\s*,\s*(\d+)\s*\)")
# Function-head lock contract macros (lead the declaration, like IKDP_CTX_*).
FUNC_LOCK_ANN_RE = re.compile(
    r"\bIKDP_(ACQUIRES|RELEASES|EXCLUDES|REQUIRES)\s*\(\s*([A-Za-z_]\w*)\s*\)")
# A lock member declaring its place in the order relative to a sibling lock
# MEMBER (the payload is a member name so the Clang TSA bridge gets a valid
# capability expression): `SpinLock b_ IKDP_LOCK_RANK(beta, 20)
# IKDP_ACQUIRED_AFTER(a_)`.  kcheck cross-checks the claim against the ranks.
ACQ_AFTER_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s+(?:IKDP_\w+\s*\([^)]*\)\s*)*"
    r"IKDP_ACQUIRED_AFTER\s*\(\s*([A-Za-z_]\w*)\s*\)")
# Lock operations on a (possibly receiver-qualified) lock member.  `->` on
# the lock itself is not used (locks are held by value); `source_->Release`
# style endpoint calls therefore do not match.
LOCK_OP_RE = re.compile(
    r"(?:\b([A-Za-z_]\w*)\s*(?:\.|->)\s*)?\b([A-Za-z_]\w*)\s*\.\s*"
    r"(Acquire|AcquireUncontended|Release)\s*\(")
SPINGUARD_RE = re.compile(
    r"\bSpinGuard\s+\w+\s*\(\s*(?:\b([A-Za-z_]\w*)\s*(?:\.|->)\s*)?"
    r"([A-Za-z_]\w*)\s*\)")
# The tail of a statement head that introduces a lambda body: capture list,
# optional parameter list / specifiers / trailing return type.
LAMBDA_TAIL_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\b\s*)?(?:noexcept\b\s*)?"
    r"(?:->\s*[\w:<>,&*\s]+?)?\s*$")


def parse_head(head):
    """Extracts (qualifier, name, annotation, lock_ann) from a declaration
    head.

    Returns None if the head does not look like a function.  `qualifier` is
    the explicit `Class::` prefix of an out-of-line definition, or None.
    `lock_ann` maps ACQUIRES/RELEASES/EXCLUDES to the named locks.  The lock
    macros carry parentheses, so they are recorded and stripped BEFORE the
    balanced-paren scan that finds the parameter list.
    """
    lock_ann = {}
    for m in FUNC_LOCK_ANN_RE.finditer(head):
        lock_ann.setdefault(m.group(1), set()).add(m.group(2))
    head = FUNC_LOCK_ANN_RE.sub(" ", head)
    annotation = None
    for macro, ctx in ANNOTATION_MACROS.items():
        if re.search(r"\b%s\b" % macro, head):
            annotation = ctx
            break
    # Cut a constructor initializer list: "...) : member_(x)" -> keep up to ')'.
    # Find the parameter list: the last top-level "(...)" group.
    depth = 0
    open_idx = close_idx = -1
    for idx, ch in enumerate(head):
        if ch == "(":
            if depth == 0:
                open_idx = idx
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                close_idx = idx
                break  # first balanced group: the parameter list
    if open_idx < 0 or close_idx < 0:
        return None
    before = head[:open_idx].rstrip()
    m = re.search(r"(?:(\w+)\s*::\s*)?(~?\w+|operator\s*[^\s]+)$", before)
    if not m:
        return None
    qualifier, name = m.group(1), m.group(2)
    if name.startswith("operator"):
        return None
    bare = name.lstrip("~")
    if bare in CPP_KEYWORDS:
        return None
    # Heads like "return foo(" or "x = foo(" are statements, not declarations.
    prefix = before[: m.start()].strip()
    if prefix.endswith(("=", "return", ",", "(", "&&", "||", "!")):
        return None
    return qualifier, name, annotation, lock_ann


def parse_params(head):
    """Best-effort parameter name -> base type map from a definition head."""
    head = FUNC_LOCK_ANN_RE.sub(" ", head)
    depth = 0
    open_idx = close_idx = -1
    for idx, ch in enumerate(head):
        if ch == "(":
            if depth == 0:
                open_idx = idx
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                close_idx = idx
                break
    if open_idx < 0 or close_idx < 0:
        return {}
    params = {}
    for arg in _split_args(head[open_idx + 1:close_idx]):
        arg = arg.split("=")[0].strip()
        m = re.search(r"([A-Za-z_]\w*)\s*(?:<[^<>]*>)?[\s*&]+([A-Za-z_]\w*)$",
                      arg)
        if m and m.group(1) not in CPP_KEYWORDS:
            params[m.group(2)] = m.group(1)
    return params


def find_matching_brace(code, open_idx):
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def line_of(code, idx, _cache={}):
    return code.count("\n", 0, idx) + 1


class FileParser:
    """Scope-tracking scan of one preprocessed (stripped) file."""

    def __init__(self, model, path, code):
        self.model = model
        self.path = path
        self.code = code

    def parse(self):
        self._scan_members()
        self._scan_scopes()

    def _scan_members(self):
        # Member variable types per class, for receiver resolution
        # (cpu_ -> CpuSystem).  Scans class bodies found by a simple pass.
        for m in re.finditer(r"\b(?:class|struct)\s+([A-Za-z_]\w*)[^;{(]*\{", self.code):
            cls = m.group(1)
            end = find_matching_brace(self.code, m.end() - 1)
            body = self.code[m.end():end]
            table = self.model.members.setdefault(cls, {})
            for mem in MEMBER_RE.finditer(body):
                table.setdefault(mem.group(3), mem.group(1))
            guards = self.model.guards.setdefault(cls, {})
            for mem in GUARD_RE.finditer(body):
                entries = [c.strip() for c in mem.group(2).split(",")
                           if c.strip()]
                line = line_of(self.code, m.end() + mem.start())
                locknames = [e[len("lock:"):].strip() for e in entries
                             if e.startswith("lock:")]
                if locknames:
                    guards.setdefault(mem.group(1),
                                      ("lockguard", locknames[0],
                                       self.path, line))
                    continue
                guards.setdefault(mem.group(1),
                                  ("guard", frozenset(entries),
                                   self.path, line))
            for mem in LOCK_RANK_RE.finditer(body):
                member, lockname, rank = (mem.group(1), mem.group(2),
                                          int(mem.group(3)))
                line = line_of(self.code, m.end() + mem.start())
                mtype = table.get(member)
                spin = mtype != "SleepLock"
                prev = self.model.locks.get(lockname)
                if prev is not None and prev[2] != rank:
                    self.model.lock_rank_conflicts.append(
                        (lockname, rank, self.path, line))
                    continue
                self.model.locks.setdefault(
                    lockname, (cls, member, rank, spin, self.path, line))
                self.model.lock_members[(cls, member)] = lockname
            for mem in ACQ_AFTER_RE.finditer(body):
                line = line_of(self.code, m.end() + mem.start())
                self.model.lock_acq_after.append(
                    (cls, mem.group(1), mem.group(2), self.path, line))
            for mem in ORDER_RE.finditer(body):
                line = line_of(self.code, m.end() + mem.start())
                guards.setdefault(mem.group(1),
                                  ("order", mem.group(2), self.path, line))
            for mem in STICKY_RE.finditer(body):
                line = line_of(self.code, m.end() + mem.start())
                self.model.sticky.setdefault(cls, {}).setdefault(
                    mem.group(1), (self.path, line))

    def _scan_scopes(self):
        code = self.code
        # Scope stack entries: (kind, name) where kind in
        # {ns, class, enum, func, block}.
        stack = []
        head_start = 0
        i = 0
        n = len(code)
        while i < n:
            c = code[i]
            if c == "{":
                head = code[head_start:i]
                kind, name = self._classify_head(head, stack)
                if kind == "func":
                    end = find_matching_brace(code, i)
                    self._record_definition(name, head, i, end)
                    i = end + 1
                    head_start = i
                    # Function bodies are consumed wholesale; nothing pushed.
                    continue
                stack.append((kind, name))
                i += 1
                head_start = i
            elif c == "}":
                if stack:
                    stack.pop()
                i += 1
                head_start = i
            elif c == ";":
                head = code[head_start:i]
                self._record_declaration(head, stack, head_start)
                i += 1
                head_start = i
            else:
                i += 1

    def _classify_head(self, head, stack):
        h = head.strip()
        m = re.search(r"\bnamespace\s+([A-Za-z_]\w*)?\s*$", h)
        if m:
            return "ns", m.group(1) or "<anon>"
        if re.search(r"\benum\b", h):
            return "enum", None
        m = re.search(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{]*)?$", h)
        if m:
            return "class", m.group(1)
        # Inside a function or plain block, any further brace is a block.
        kinds = [k for k, _ in stack]
        if "func" in kinds:
            return "block", None
        # Initializers like `int x = {...}` or array/aggregate init.
        if h.endswith("=") or re.search(r"=\s*$", h):
            return "block", None
        parsed = parse_head(h)
        if parsed and self._in_decl_scope(stack):
            return "func", parsed
        return "block", None

    @staticmethod
    def _in_decl_scope(stack):
        return all(k in ("ns", "class") for k, _ in stack)

    def _enclosing_class(self, stack):
        for kind, name in reversed(stack):
            if kind == "class":
                return name
        return None

    def _record_declaration(self, head, stack, head_pos):
        if not self._in_decl_scope(stack):
            return
        parsed = parse_head(head.strip())
        if not parsed:
            return
        qualifier, name, annotation, lock_ann = parsed
        if name.startswith("IKDP_"):
            return  # a data-member annotation macro, not a function
        line = line_of(self.code, head_pos + len(head) - len(head.lstrip()))
        cls = qualifier or self._enclosing_class(stack)
        qname = "%s::%s" % (cls, name) if cls else name
        fn = self.model.function(qname)
        self._apply_lock_ann(fn, lock_ann)
        if annotation is None:
            # Track that a declaration exists: annotation-mismatch needs to
            # distinguish "unannotated declaration" from "no declaration".
            if fn.declared_at is None:
                fn.declared_at = (self.path, line)
            return
        if fn.declared_at is None:
            fn.declared_at = (self.path, line)
        if fn.decl_annotation is None:
            fn.decl_annotation = annotation
        self._annotate(fn, annotation, line)

    @staticmethod
    def _apply_lock_ann(fn, lock_ann):
        fn.acquires |= lock_ann.get("ACQUIRES", set())
        fn.releases |= lock_ann.get("RELEASES", set())
        fn.excludes |= lock_ann.get("EXCLUDES", set())
        fn.requires |= lock_ann.get("REQUIRES", set())

    def _record_definition(self, parsed, head, brace_idx, end_idx):
        qualifier, name, annotation, lock_ann = parsed
        # The enclosing class comes from the scope stack captured at classify
        # time; re-derive it from the explicit qualifier or the stack head.
        cls = qualifier or self._pending_class
        qname = "%s::%s" % (cls, name) if cls else name
        fn = self.model.function(qname)
        self._apply_lock_ann(fn, lock_ann)
        fn.params.update(parse_params(head))
        line = line_of(self.code, brace_idx)
        if annotation is not None:
            fn.def_annotation = annotation
            fn.def_out_of_line = qualifier is not None
            self._annotate(fn, annotation, line)
        body = self.code[brace_idx + 1:end_idx]
        fn.body = body
        fn.body_file = self.path
        fn.body_line = line
        base = brace_idx + 1
        for m in QUAL_CALL_RE.finditer(body):
            fn.calls.append((("::", m.group(1)), m.group(2), self.path,
                             line_of(self.code, base + m.start())))
        for m in CALL_RE.finditer(body):
            callee = m.group(2)
            if callee.lstrip("~") in CPP_KEYWORDS:
                continue
            # Skip the qualified ones already captured (receiver "::").
            pre = body[max(0, m.start() - 2):m.start()]
            if pre.rstrip().endswith("::"):
                continue
            fn.calls.append((m.group(1), callee, self.path,
                             line_of(self.code, base + m.start())))

    def _annotate(self, fn, annotation, line):
        if fn.annotation is None:
            fn.annotation = annotation
            fn.annotation_site = (self.path, line)
        elif fn.annotation != annotation and fn.conflict is None:
            fn.conflict = (self.path, line, annotation)

    # Patched in during _scan_scopes via classify: the class enclosing a
    # definition found inline in a class body.
    _pending_class = None


# FileParser._classify_head cannot easily pass the enclosing class through to
# _record_definition, so wrap the two calls.
_orig_classify = FileParser._classify_head


def _classify_with_class(self, head, stack):
    kind, name = _orig_classify(self, head, stack)
    if kind == "func":
        self._pending_class = self._enclosing_class(stack)
    return kind, name


FileParser._classify_head = _classify_with_class


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class Finding:
    def __init__(self, rule, file, line, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message

    def as_dict(self):
        return {"rule": self.rule, "file": self.file, "line": self.line,
                "message": self.message}

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.file, self.line, self.rule, self.message)


def resolve_call(model, caller, receiver, name):
    """Returns the unique Function a call site can refer to, or None."""
    if isinstance(receiver, tuple):  # explicit Class::name qualification
        return model.functions.get("%s::%s" % (receiver[1], name))
    if receiver:
        # Receiver is a member variable of the caller's class with known type.
        table = model.members.get(caller.cls or "", {})
        rcls = table.get(receiver)
        if rcls:
            fn = model.functions.get("%s::%s" % (rcls, name))
            if fn:
                return fn
        # fall through: receiver of unknown type
    else:
        # Unqualified: prefer a method of the caller's own class.
        if caller.cls:
            own = model.functions.get("%s::%s" % (caller.cls, name))
            if own:
                return own
    cands = model.by_name.get(name, [])
    if len(cands) == 1:
        return cands[0]
    return None  # unknown or ambiguous: skipped (documented approximation)


def is_blocking(fn):
    return fn.qname in BLOCKING_PRIMITIVES or fn.annotation == "process"


def check_context_reachability(model, findings):
    roots = [f for f in model.functions.values()
             if f.annotation in NONBLOCKING_CTX and f.body is not None]
    for root in roots:
        # BFS with path reconstruction; each function visited once per root.
        seen = {root.qname}
        queue = [(root, [])]
        while queue:
            fn, path = queue.pop(0)
            for receiver, name, file, line in fn.calls:
                callee = resolve_call(model, fn, receiver, name)
                if callee is None or callee.qname in seen:
                    continue
                step = path + [(fn, callee, file, line)]
                if is_blocking(callee):
                    if model.waived(file, line, "interrupt-sleep"):
                        continue
                    chain = " -> ".join([root.qname] +
                                        [c.qname for _, c, _, _ in step])
                    findings.append(Finding(
                        "interrupt-sleep", file, line,
                        "%s (%s) reaches blocking %s: %s"
                        % (root.qname, root.annotation, callee.qname, chain)))
                    continue
                seen.add(callee.qname)
                if callee.body is not None:
                    queue.append((callee, step))


def check_charge_domination(model, findings):
    for fn in model.functions.values():
        if fn.body is None or fn.name == "ChargeInterrupt":
            continue
        for m in re.finditer(r"\bChargeInterrupt\s*\(", fn.body):
            if fn.annotation == "interrupt":
                continue
            if "InInterrupt" in fn.body[:m.start()]:
                continue
            line = fn.body_line + fn.body.count("\n", 0, m.start())
            if model.waived(fn.body_file, line, "undominated-charge"):
                continue
            findings.append(Finding(
                "undominated-charge", fn.body_file, line,
                "%s calls ChargeInterrupt without IKDP_CTX_INTERRUPT and "
                "without a dominating InInterrupt() check" % fn.qname))


def _last_ident(expr):
    ids = re.findall(r"[A-Za-z_]\w*", expr)
    return ids[-1] if ids else None


def check_buf_discipline(model, findings):
    for fn in model.functions.values():
        body = fn.body
        if body is None:
            continue
        local_bufs = set(re.findall(r"\bBuf\s*\*?\s*(\w+)\s*(?:=|;)", body))
        params = set(re.findall(r"[A-Za-z_]\w*", body[:0]))  # placeholder
        events = []  # (pos, kind, var, argtext)
        for m in re.finditer(r"\b(\w+)\s*=\s*[^;]*?\b(%s)\s*\(" %
                             "|".join(BUF_ACQUIRE_NAMES), body):
            events.append((m.start(), "acquire", m.group(1)))
        for m in re.finditer(r"\b(\w+)\s*(?:\.|->)\s*Set\s*\(\s*kBufBusy", body):
            events.append((m.start(), "acquire", m.group(1)))
        for m in re.finditer(r"\b(\w+)\s*(?:\.|->)\s*flags\s*\|?=\s*[^;]*kBufBusy", body):
            events.append((m.start(), "acquire", m.group(1)))
        for m in re.finditer(r"\b(%s)\s*\(([^;]*?)\)" %
                             "|".join(BUF_RELEASE_NAMES), body):
            var = _last_ident(m.group(2))
            if var:
                events.append((m.start(), "release", var))
        for name, argidx in BUF_WRITE_NAMES.items():
            for m in re.finditer(r"\b%s\s*\(([^;]*?)\)" % name, body):
                args = _split_args(m.group(1))
                if len(args) > argidx:
                    var = _last_ident(args[argidx])
                    if var:
                        events.append((m.start(), "write", var))
        events.sort()
        owned, released = set(), {}
        for pos, kind, var in events:
            line = fn.body_line + body.count("\n", 0, pos)
            if kind == "acquire":
                owned.add(var)
                released.pop(var, None)
                continue
            if var in released:
                prev = released[var]
                between = body[prev:pos]
                # Straight-line only: a closing brace or else between the two
                # releases means branch-exclusive paths; stay quiet.
                if "}" not in between and not re.search(r"\belse\b", between):
                    if not model.waived(fn.body_file, line, "buf-double-release"):
                        findings.append(Finding(
                            "buf-double-release", fn.body_file, line,
                            "%s releases '%s' twice without re-acquisition"
                            % (fn.qname, var)))
                continue
            if var in local_bufs and var not in owned:
                if not model.waived(fn.body_file, line, "buf-release-unowned"):
                    findings.append(Finding(
                        "buf-release-unowned", fn.body_file, line,
                        "%s %ss local Buf '%s' with no visible acquisition "
                        "(bread/getblk/transient alloc/Set(kBufBusy))"
                        % (fn.qname, kind, var)))
            owned.discard(var)
            released[var] = pos


def _split_args(argtext):
    args, depth, cur = [], 0, []
    for ch in argtext:
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    args.append("".join(cur))
    return args


def check_annotation_conflicts(model, findings):
    for fn in model.functions.values():
        if fn.conflict:
            file, line, other = fn.conflict
            findings.append(Finding(
                "annotation-conflict", file, line,
                "%s annotated both %s (%s:%d) and %s"
                % (fn.qname, fn.annotation, fn.annotation_site[0],
                   fn.annotation_site[1], other)))


def check_annotation_mismatch(model, findings):
    """Out-of-line definition annotated, declaration silent.

    The declaration is what callers (and kcheck's own call-graph rules, which
    see the header first) read; an annotation living only on the definition
    is a contract nobody can rely on.  Both-sites-annotated-differently is
    annotation-conflict, not this rule.
    """
    for fn in model.functions.values():
        if (fn.def_annotation is None or not fn.def_out_of_line
                or fn.declared_at is None):
            continue
        if fn.decl_annotation is not None:
            continue
        file, line = fn.body_file, fn.body_line
        if model.waived(file, line, "annotation-mismatch"):
            continue
        findings.append(Finding(
            "annotation-mismatch", file, line,
            "%s: out-of-line definition is annotated IKDP_CTX_%s but the "
            "declaration at %s:%d carries no annotation; annotate the "
            "declaration"
            % (fn.qname, fn.def_annotation.upper(),
               fn.declared_at[0], fn.declared_at[1])))


def check_data_annotations(model, findings):
    """Vocabulary validation for IKDP_GUARDED_BY / IKDP_ORDERED_BY."""
    for cls, members in sorted(model.guards.items()):
        for member, (kind, payload, file, line) in sorted(members.items()):
            if kind == "order":
                if payload in KNOWN_ORDER_CHANNELS:
                    continue
                if model.waived(file, line, "unknown-order-channel"):
                    continue
                findings.append(Finding(
                    "unknown-order-channel", file, line,
                    "%s::%s is IKDP_ORDERED_BY(%s); known channels: %s"
                    % (cls, member, payload,
                       ", ".join(sorted(KNOWN_ORDER_CHANNELS)))))
            elif kind == "lockguard":
                if payload in model.locks:
                    continue
                if model.waived(file, line, "lock-guard-violation"):
                    continue
                findings.append(Finding(
                    "lock-guard-violation", file, line,
                    "%s::%s is IKDP_GUARDED_BY(lock:%s), but no lock named "
                    "'%s' is declared with IKDP_LOCK_RANK; known locks: %s"
                    % (cls, member, payload, payload,
                       ", ".join(sorted(model.locks)) or "(none)")))
            else:
                bad = payload - ALL_CONTEXTS - {"any"}
                if not bad:
                    continue
                if model.waived(file, line, "unknown-order-channel"):
                    continue
                findings.append(Finding(
                    "unknown-order-channel", file, line,
                    "%s::%s: IKDP_GUARDED_BY lists unknown context(s): %s"
                    % (cls, member, ", ".join(sorted(bad)))))


def _guard_set(payload):
    return ALL_CONTEXTS if "any" in payload else payload & ALL_CONTEXTS


def check_guard_violations(model, findings):
    """IKDP_GUARDED_BY member accessed outside its guard set.

    A function annotated IKDP_CTX_ANY must be safe in every context, so it
    may only touch members whose guard covers all three contexts.  Member
    occurrences resolve like calls do: bare names bind to the enclosing
    class, receiver-qualified accesses through the member-type table, and a
    tree-unique member name binds to its only owner.  Ambiguous receivers
    are skipped (no false positives, documented approximation).  ORDERED_BY
    members are exempt: the dynamic checker owns their serialization.
    """
    index = {}  # member name -> [(class, info)]
    for cls, members in model.guards.items():
        for member, info in members.items():
            index.setdefault(member, []).append((cls, info))
    seen = set()
    for fn in model.functions.values():
        if fn.body is None or fn.annotation is None:
            continue
        required = ALL_CONTEXTS if fn.annotation == "any" else {fn.annotation}
        for member, owners in index.items():
            if member not in fn.body:  # cheap pre-filter
                continue
            for m in re.finditer(
                    r"(?:\b(\w+)\s*(?:\.|->)\s*)?\b%s\b" % re.escape(member),
                    fn.body):
                recv = m.group(1)
                if recv is None or recv == "this":
                    cls = fn.cls
                    if cls is None or member not in model.guards.get(cls, {}):
                        continue
                else:
                    cls = model.members.get(fn.cls or "", {}).get(recv)
                    if cls is not None:
                        if member not in model.guards.get(cls, {}):
                            continue
                    elif len(owners) == 1:
                        cls = owners[0][0]
                    else:
                        continue  # ambiguous receiver: skipped
                kind, payload, gfile, gline = model.guards[cls][member]
                if kind != "guard":
                    continue
                allowed = _guard_set(payload)
                if required <= allowed:
                    continue
                line = fn.body_line + fn.body.count("\n", 0, m.start())
                key = (fn.body_file, line, cls, member)
                if key in seen:
                    continue
                seen.add(key)
                if model.waived(fn.body_file, line, "guard-violation"):
                    continue
                findings.append(Finding(
                    "guard-violation", fn.body_file, line,
                    "%s (IKDP_CTX_%s) accesses %s::%s, guarded by {%s} "
                    "(declared at %s:%d)"
                    % (fn.qname, fn.annotation.upper(), cls, member,
                       ", ".join(sorted(allowed)), gfile, gline)))


# ---------------------------------------------------------------------------
# Lock discipline (the static half of klock, docs/klock.md)
# ---------------------------------------------------------------------------


LOCAL_DECL_RE = re.compile(r"\b([A-Z]\w*)\s*[*&]+\s*([a-z_]\w*)\s*[=;,)]")


def fn_locals(fn):
    """Pointer/reference locals (and lambda params) with class-typed
    declarators, for receiver resolution inside bodies."""
    if fn.locals is None:
        fn.locals = {}
        for m in LOCAL_DECL_RE.finditer(fn.body):
            fn.locals.setdefault(m.group(2), m.group(1))
    return fn.locals


def resolve_lock_name(model, fn, receiver, member):
    """Maps a (receiver, member) lock mention to a registered lock name."""
    if receiver is None or receiver == "this":
        cls = fn.cls
    elif receiver in fn.params:
        cls = fn.params[receiver]
    else:
        cls = (model.members.get(fn.cls or "", {}).get(receiver)
               or fn_locals(fn).get(receiver))
    if cls is not None:
        name = model.lock_members.get((cls, member))
        if name:
            return name
    cands = {n for (c, m), n in model.lock_members.items() if m == member}
    if len(cands) == 1:
        return next(iter(cands))
    return None  # unknown or ambiguous: skipped (documented approximation)


def resolve_call_lock(model, fn, receiver, name):
    """resolve_call, but parameter and local-pointer types count too (the
    splice engine passes descriptors by pointer, so `d->InFlight()` must
    resolve)."""
    if receiver and not isinstance(receiver, tuple):
        rcls = fn.params.get(receiver) or fn_locals(fn).get(receiver)
        if rcls:
            cand = model.functions.get("%s::%s" % (rcls, name))
            if cand:
                return cand
    return resolve_call(model, fn, receiver, name)


def find_lambda_regions(body):
    """[(open_brace, close_brace)] of every lambda body, nested included.

    Lambdas are deferred callbacks here (callouts, completion handlers), so
    the tracker treats their bodies as separate execution: they start with
    an empty held set and must end balanced.
    """
    regions = []
    for i, c in enumerate(body):
        if c != "{":
            continue
        b = max(body.rfind(";", 0, i), body.rfind("{", 0, i),
                body.rfind("}", 0, i))
        if LAMBDA_TAIL_RE.search(body[b + 1:i]):
            regions.append((i, find_matching_brace(body, i)))
    return regions


def _in_region(regions, pos):
    return any(s < pos < e for s, e in regions)


def _trackable(model):
    for qname in sorted(model.functions):
        fn = model.functions[qname]
        if fn.body is not None and fn.cls not in LOCK_IMPL_CLASSES:
            yield fn


def scan_lock_events(model, fn):
    """{pos: [event]} for one body: lock ops, guards, awaits, resolved calls."""
    body = fn.body
    events = {}

    def add(pos, item):
        events.setdefault(pos, []).append(item)

    for m in LOCK_OP_RE.finditer(body):
        name = resolve_lock_name(model, fn, m.group(1), m.group(2))
        if name is not None:
            add(m.start(), ("op", m.group(3), name))
    for m in SPINGUARD_RE.finditer(body):
        name = resolve_lock_name(model, fn, m.group(1), m.group(2))
        if name is not None:
            add(m.start(), ("guard", name))
    for m in re.finditer(r"\bco_await\b", body):
        add(m.start(), ("await",))
    for m in QUAL_CALL_RE.finditer(body):
        callee = model.functions.get("%s::%s" % (m.group(1), m.group(2)))
        if callee is not None:
            add(m.start(), ("call", callee))
    for m in CALL_RE.finditer(body):
        callee_name = m.group(2)
        if callee_name.lstrip("~") in CPP_KEYWORDS:
            continue
        pre = body[max(0, m.start() - 2):m.start()]
        if pre.rstrip().endswith("::"):
            continue
        callee = resolve_call_lock(model, fn, m.group(1), callee_name)
        if callee is not None:
            add(m.start(), ("call", callee))
    return events


def get_cfgs(fn):
    """(main_cfg, [lambda_cfg...]) for fn.body, built once and cached."""
    if fn.cfgs is None:
        if not fn.lambda_regions:
            fn.lambda_regions = find_lambda_regions(fn.body)
        fn.cfgs = kpath.build_function_cfgs(fn.body, fn.lambda_regions)
    return fn.cfgs


def walk_held(model, fn, events, queries, sink):
    """Walks every CFG path of fn.body tracking the path-held lock set.

    Held entries are (lock name, origin) with origin in {"entry", "local",
    "guard"}.  The walk runs over the kpath CFG, so each branch arm, early
    return, and loop iteration is its own path (memoized to a fixpoint);
    SpinGuard entries release on every exit from their scope via the CFG's
    unwind pseudo-items — exactly the destructor semantics.  Lambda bodies
    run deferred, so each lambda CFG is walked separately from an empty held
    set and checked for balance at its exits.  sink(kind, pos, *info)
    receives every derived event; the rule layer turns them into findings
    (deduplicated by site, so revisits along other paths are cheap).
    """
    main, lams = get_cfgs(fn)
    entry = tuple((l, "entry") for l in sorted(fn.entry_held | fn.releases)
                  if l in model.locks)
    _walk_lock_cfg(model, fn, main, entry, events, queries, sink, "fn-exit")
    for cfg in lams:
        _walk_lock_cfg(model, fn, cfg, (), events, queries, sink,
                       "lambda-end")


def _walk_lock_cfg(model, fn, cfg, entry_held, events, queries, sink,
                   exit_kind):
    poss = sorted(set(events) | set(queries))

    def transfer(block, state):
        held = list(state[0])
        scopes = [list(s) for s in state[1]]

        def names():
            return [h[0] for h in held]

        def spin_held():
            for h, _ in held:
                if model.locks[h][3]:
                    return h
            return None

        def release(name):
            for j in range(len(held) - 1, -1, -1):
                if held[j][0] == name:
                    del held[j]
                    return

        def release_guard(name):
            for j in range(len(held) - 1, -1, -1):
                if held[j] == (name, "guard"):
                    del held[j]
                    return

        def acquire(pos, name, method, origin):
            if name in names():
                sink("double", pos, name, method)
                return
            spin = model.locks[name][3]
            sh = spin_held()
            if not spin and method == "Acquire" and sh is not None:
                sink("may-block", pos, "SleepLock '%s' Acquire" % name, sh)
            for h in names():
                sink("edge", pos, h, name)
            # Drop-and-reacquire: re-taking a lock the function held at
            # entry restores the entry obligation (the caller still holds
            # it conceptually), it does not create a local one — otherwise
            # every "release around blocking I/O, reacquire, continue" loop
            # would read as a leak on the post-reacquire exit paths.
            if origin == "local" and name in fn.entry_held:
                origin = "entry"
            held.append((name, origin))
            if origin == "guard" and scopes:
                scopes[-1].append(name)

        for item in block.items:
            tag = item[0]
            if tag == "seg":
                lo = bisect.bisect_left(poss, item[1])
                hi = bisect.bisect_left(poss, item[2])
                for pos in poss[lo:hi]:
                    for ev in events.get(pos, ()):
                        kind = ev[0]
                        if kind == "op":
                            _, method, name = ev
                            if method == "Release":
                                release(name)
                            else:
                                acquire(pos, name, method, "local")
                        elif kind == "guard":
                            acquire(pos, ev[1], "SpinGuard", "guard")
                        elif kind == "await":
                            sh = spin_held()
                            if sh is not None:
                                sink("may-block", pos, "co_await", sh)
                        elif kind == "call":
                            callee = ev[1]
                            sink("call", pos, callee, tuple(names()))
                            for l in sorted(callee.excludes):
                                if l in names():
                                    sink("exclude", pos, callee, l)
                            for l in sorted(callee.acquires):
                                if l in model.locks:
                                    acquire(pos, l, "callee", "local")
                            for l in sorted(callee.releases):
                                release(l)
                    for q in queries.get(pos, ()):
                        sink("query", pos, q, tuple(names()))
            elif tag == "push":
                scopes.append([])
            elif tag == "pop":
                if scopes:
                    for g in scopes.pop():
                        release_guard(g)
            elif tag == "unwind":
                for _ in range(min(item[1], len(scopes))):
                    for g in scopes.pop():
                        release_guard(g)
            elif tag == "exit":
                sink(exit_kind, item[1], list(held))
        return (tuple(held), tuple(tuple(s) for s in scopes))

    kpath.walk_paths(cfg, (entry_held, ()), transfer)


def compute_lock_closures(model):
    """(acq_closure, may_block) over the non-lambda call graph.

    acq_closure[qname]: every lock the function (or a callee, transitively)
    acquires during its own execution — lambda bodies excluded, they run
    later.  may_block: functions that can reach a blocking primitive the
    same way.
    """
    direct_acq, calls_out = {}, {}
    for fn in _trackable(model):
        regions = find_lambda_regions(fn.body)
        fn.lambda_regions = regions
        acq, outs = set(), set()
        for m in LOCK_OP_RE.finditer(fn.body):
            if m.group(3) == "Release" or _in_region(regions, m.start()):
                continue
            name = resolve_lock_name(model, fn, m.group(1), m.group(2))
            if name is not None:
                acq.add(name)
        for m in SPINGUARD_RE.finditer(fn.body):
            if not _in_region(regions, m.start()):
                name = resolve_lock_name(model, fn, m.group(1), m.group(2))
                if name is not None:
                    acq.add(name)
        for m in QUAL_CALL_RE.finditer(fn.body):
            if _in_region(regions, m.start()):
                continue
            callee = model.functions.get("%s::%s" % (m.group(1), m.group(2)))
            if callee is not None:
                outs.add(callee.qname)
        for m in CALL_RE.finditer(fn.body):
            if _in_region(regions, m.start()):
                continue
            if m.group(2).lstrip("~") in CPP_KEYWORDS:
                continue
            pre = fn.body[max(0, m.start() - 2):m.start()]
            if pre.rstrip().endswith("::"):
                continue
            callee = resolve_call_lock(model, fn, m.group(1), m.group(2))
            if callee is not None:
                outs.add(callee.qname)
        direct_acq[fn.qname] = acq
        calls_out[fn.qname] = outs

    acq_closure = {q: set(a) for q, a in direct_acq.items()}
    changed = True
    while changed:
        changed = False
        for q, outs in calls_out.items():
            mine = acq_closure[q]
            for callee in outs:
                extra = acq_closure.get(callee, set()) - mine
                if extra:
                    mine |= extra
                    changed = True

    may_block = set(MAY_BLOCK_SEEDS)
    changed = True
    while changed:
        changed = False
        for q, outs in calls_out.items():
            if q not in may_block and outs & may_block:
                may_block.add(q)
                changed = True
    return acq_closure, may_block


def compute_entry_held(model, rounds=4):
    """Caller-intersection fixpoint: a helper only ever called with lock L
    held gets entry_held = {L}, so `// lock-held` helpers (FreelistPush,
    InFlight, ...) need no annotation for lock-guard-violation.

    IKDP_REQUIRES(l) seeds the fixpoint directly: the annotated lock is held
    at entry no matter what the caller intersection would conclude (callers
    that do NOT hold it are flagged separately in check_lock_discipline)."""
    for fn in model.functions.values():
        declared = frozenset(l for l in fn.requires if l in model.locks)
        if declared - fn.entry_held:
            fn.entry_held |= declared
    cached = {fn.qname: scan_lock_events(model, fn) for fn in _trackable(model)}
    for _ in range(rounds):
        call_held = {}

        def sink(kind, pos, *a):
            if kind == "call":
                callee, heldnames = a
                call_held.setdefault(callee.qname, []).append(set(heldnames))

        for fn in _trackable(model):
            walk_held(model, fn, cached[fn.qname], {}, sink)
        changed = False
        for q, sets in call_held.items():
            fn = model.functions.get(q)
            if fn is None or fn.body is None:
                continue
            inter = frozenset(frozenset.intersection(*map(frozenset, sets)))
            inter |= frozenset(l for l in fn.requires if l in model.locks)
            if inter != fn.entry_held:
                fn.entry_held = inter
                changed = True
        if not changed:
            break
    return cached


def _lockguard_queries(model, fn, index):
    """{pos: [(cls, member, lockname, gfile, gline)]} member-access sites of
    IKDP_GUARDED_BY(lock:...) members in this body."""
    queries = {}
    for member, owners in index.items():
        if member not in fn.body:
            continue
        for m in re.finditer(
                r"(?:\b(\w+)\s*(?:\.|->)\s*)?\b%s\b" % re.escape(member),
                fn.body):
            # `&member` is the wait-channel / krace-channel idiom (an address
            # used as a token for Sleep/Wakeup), not a data access.
            before = fn.body[:m.start()].rstrip()
            if before.endswith("&") and not before.endswith("&&"):
                continue
            recv = m.group(1)
            if recv is None or recv == "this":
                cls = fn.cls
                if cls is None or member not in model.guards.get(cls, {}):
                    continue
            else:
                cls = (fn.params.get(recv)
                       or model.members.get(fn.cls or "", {}).get(recv)
                       or fn_locals(fn).get(recv))
                if cls is not None:
                    if member not in model.guards.get(cls, {}):
                        continue
                elif len(owners) == 1:
                    cls = owners[0][0]
                else:
                    continue  # ambiguous receiver: skipped
            kind, lockname, gfile, gline = model.guards[cls][member]
            if kind != "lockguard" or lockname not in model.locks:
                continue
            queries.setdefault(m.start(), []).append(
                (cls, member, lockname, gfile, gline))
    return queries


def check_lock_discipline(model, findings):
    for name, rank, file, line in model.lock_rank_conflicts:
        orig = model.locks.get(name)
        if model.waived(file, line, "lock-order-cycle"):
            continue
        findings.append(Finding(
            "lock-order-cycle", file, line,
            "lock '%s' redeclared with rank %d; first declared rank %d at "
            "%s:%d" % (name, rank, orig[2], orig[4], orig[5])))
    # IKDP_ACQUIRED_AFTER(m) claims this lock is acquired while the sibling
    # lock member `m` is held, i.e. `m` is the outer lock — so this lock's
    # rank must be strictly greater.  A contradiction with the rank table is
    # a declared ordering cycle.
    for cls, member, other, file, line in model.lock_acq_after:
        name = model.lock_members.get((cls, member))
        if name is None:
            continue  # not a ranked lock member; LOCK_RANK rules handle it
        oname = model.lock_members.get((cls, other))
        if oname is None:
            if not model.waived(file, line, "lock-order-cycle"):
                findings.append(Finding(
                    "lock-order-cycle", file, line,
                    "lock '%s': IKDP_ACQUIRED_AFTER(%s) names a member of "
                    "%s that is not a declared lock" % (name, other, cls)))
            continue
        rank, orank = model.locks[name][2], model.locks[oname][2]
        if rank <= orank:
            if not model.waived(file, line, "lock-order-cycle"):
                findings.append(Finding(
                    "lock-order-cycle", file, line,
                    "lock '%s' (rank %d) declared IKDP_ACQUIRED_AFTER '%s' "
                    "(rank %d), but inner locks must rank strictly higher"
                    % (name, rank, oname, orank)))
    if not model.locks:
        return
    acq_closure, may_block = compute_lock_closures(model)
    cached = compute_entry_held(model)
    index = {}
    for cls, members in model.guards.items():
        for member, info in members.items():
            if info[0] == "lockguard":
                index.setdefault(member, []).append((cls, info))

    edges = {}      # (outer, inner) -> (file, line, fn qname)
    reported = set()

    def emit(rule, file, line, key, message):
        if key in reported:
            return
        reported.add(key)
        if not model.waived(file, line, rule):
            findings.append(Finding(rule, file, line, message))

    for fn in _trackable(model):
        file = fn.body_file

        def line_at(pos, fn=fn):
            return fn.body_line + fn.body.count("\n", 0, pos)

        def sink(kind, pos, *a, fn=fn, file=file, line_at=line_at):
            if kind == "double":
                name, method = a
                emit("double-acquire", file, line_at(pos),
                     ("double", fn.qname, name, line_at(pos)),
                     "%s re-acquires '%s' (rank %d) already held — "
                     "uniprocessor self-deadlock"
                     % (fn.qname, name, model.locks[name][2]))
            elif kind == "edge":
                outer, inner = a
                edges.setdefault((outer, inner),
                                 (file, line_at(pos), fn.qname))
            elif kind == "may-block":
                what, spin = a
                emit("sleep-under-spinlock", file, line_at(pos),
                     ("mayblock", fn.qname, line_at(pos), what),
                     "%s: %s while holding SpinLock '%s'"
                     % (fn.qname, what, spin))
            elif kind == "exclude":
                callee, lock = a
                emit("double-acquire", file, line_at(pos),
                     ("exclude", fn.qname, callee.qname, lock, line_at(pos)),
                     "%s calls %s (IKDP_EXCLUDES(%s)) while holding '%s'"
                     % (fn.qname, callee.qname, lock, lock))
            elif kind == "call":
                callee, heldnames = a
                for l in sorted(callee.requires):
                    if l in model.locks and l not in heldnames:
                        emit("lock-guard-violation", file, line_at(pos),
                             ("requires", fn.qname, callee.qname, l,
                              line_at(pos)),
                             "%s calls %s (IKDP_REQUIRES(%s)) without "
                             "holding '%s'"
                             % (fn.qname, callee.qname, l, l))
                if not heldnames:
                    return
                spins = [h for h in heldnames if model.locks[h][3]]
                if spins and callee.qname in may_block:
                    emit("sleep-under-spinlock", file, line_at(pos),
                         ("sleepcall", fn.qname, callee.qname, line_at(pos)),
                         "%s calls %s, which may block, while holding "
                         "SpinLock '%s'" % (fn.qname, callee.qname, spins[0]))
                for l in sorted(acq_closure.get(callee.qname, ())):
                    if l in heldnames:
                        # A callee whose every caller holds l (entry_held)
                        # only re-locks after releasing; that is the drop-
                        # and-reacquire idiom, not a self-deadlock.
                        if l in callee.entry_held:
                            continue
                        emit("double-acquire", file, line_at(pos),
                             ("closure", fn.qname, callee.qname, l,
                              line_at(pos)),
                             "%s calls %s, which acquires '%s', while "
                             "already holding it"
                             % (fn.qname, callee.qname, l))
                    else:
                        for h in heldnames:
                            edges.setdefault((h, l),
                                             (file, line_at(pos), fn.qname))
            elif kind == "query":
                (cls, member, lockname, gfile, gline), heldnames = a
                if lockname in heldnames:
                    return
                emit("lock-guard-violation", file, line_at(pos),
                     ("guard", fn.qname, cls, member, line_at(pos)),
                     "%s accesses %s::%s without holding '%s' "
                     "(IKDP_GUARDED_BY(lock:%s) at %s:%d)"
                     % (fn.qname, cls, member, lockname, lockname,
                        gfile, gline))
            elif kind in ("fn-exit", "lambda-end"):
                held = a[0]
                for name, origin in held:
                    leak = (origin == "local" and name not in fn.acquires) or \
                           (origin == "entry" and name in fn.releases)
                    if not leak:
                        continue
                    where = ("lambda body ends" if kind == "lambda-end"
                             else "can return")
                    why = ("declared IKDP_RELEASES(%s) but did not release"
                           % name if origin == "entry" else
                           "not annotated IKDP_ACQUIRES(%s)" % name)
                    emit("unreleased-lock", file, line_at(pos),
                         ("leak", fn.qname, name, kind),
                         "%s %s with '%s' held (%s)"
                         % (fn.qname, where, name, why))

        queries = _lockguard_queries(model, fn, index)
        walk_held(model, fn, cached[fn.qname], queries, sink)

    # Rank monotonicity per observed edge, then cycles over the order graph.
    for (outer, inner), (file, line, via) in sorted(edges.items()):
        ro, ri = model.locks[outer][2], model.locks[inner][2]
        if ri <= ro:
            emit("lock-order-cycle", file, line,
                 ("rank", outer, inner),
                 "%s acquires '%s' (rank %d) while holding '%s' (rank %d); "
                 "ranks must strictly increase" % (via, inner, ri, outer, ro))
    graph = {}
    for (outer, inner) in edges:
        graph.setdefault(outer, set()).add(inner)

    def reachable(src, dst):
        seen, queue = {src}, [src]
        while queue:
            cur = queue.pop()
            for nxt in graph.get(cur, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    for (outer, inner), (file, line, via) in sorted(edges.items()):
        if outer != inner and reachable(inner, outer):
            emit("lock-order-cycle", file, line,
                 ("cycle", frozenset((outer, inner))),
                 "acquisition-order cycle between '%s' and '%s' (this site, "
                 "in %s, orders %s -> %s; another site orders the reverse)"
                 % (outer, inner, via, outer, inner))


# ---------------------------------------------------------------------------
# kpath error-path rules (docs/kcheck.md): errno-clobber, discarded-failure,
# resource-leak-on-error-path, charge-context-mismatch.  All four are
# path-sensitive walks over the kpath CFG; the first two also consume the
# interprocedural may-fail summary, the third the acquires-resource summary.
# ---------------------------------------------------------------------------

# Classes allowed to manipulate charge buckets directly (the ledger itself).
CHARGE_IMPL_CLASSES = {"CpuSystem"}
# Charge entry points that are only legal at interrupt/softclock level.
INTERRUPT_CHARGE_NAMES = {"ChargeInterrupt", "ChargeKop"}
INTR_BUCKET_LITERALS = {"kInterrupt", "kKopInterrupt", "kSoftclock",
                        "kKopSoftclock"}
PROC_BUCKET_LITERALS = {"kProcess", "kKopProcess"}
BUCKET_LITERAL_RE = re.compile(r"\bChargeBucket\s*::\s*(k\w+)")
ININTR_NEG_RE = re.compile(
    r"!\s*(?:[\w:]+\s*(?:\.|->)\s*)?InInterrupt\s*\(")
# Any assignment; filtered against the sticky-member registry per use.
ASSIGN_SITE_RE = re.compile(
    r"(?:\b(\w+)\s*(?:->|\.)\s*)?\b([A-Za-z_]\w*)\s*=(?!=)\s*([^;]*)")
# A statement that is nothing but one call (possibly qualified/member).
BARE_CALL_RE = re.compile(r"\s*(?:(\w+)\s*(->|\.|::)\s*)?(~?\w+)\s*\(")
# `var = [recv->]Acquirer(...)` with a plain (non-member) lvalue.
ACQ_ASSIGN_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*=(?!=)\s*"
    r"(?:[\w:]+\s*(?:->|\.)\s*)?([A-Za-z_]\w*)\s*\(")


def _line_at(fn, pos):
    return fn.body_line + fn.body.count("\n", 0, pos)


def _emit_path(model, findings, rule, fn, pos, message):
    line = _line_at(fn, pos)
    if not model.waived(fn.body_file, line, rule):
        findings.append(Finding(rule, fn.body_file, line, message))


def _match_paren_at(code, open_idx):
    depth = 0
    for i in range(open_idx, len(code)):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def _seg_events(block, evpos):
    """Yields (pos, *payload) for sorted event list entries inside the
    block's seg items, in program order."""
    for item in block.items:
        if item[0] != "seg":
            continue
        lo = bisect.bisect_left(evpos, (item[1],))
        while lo < len(evpos) and evpos[lo][0] < item[2]:
            yield evpos[lo]
            lo += 1


def _member_class(model, fn, receiver):
    """Class a member access `receiver->member` resolves through."""
    if receiver is None or receiver == "this":
        return fn.cls
    return (fn.params.get(receiver)
            or model.members.get(fn.cls or "", {}).get(receiver)
            or fn_locals(fn).get(receiver))


def _check_errno_clobber(model, fn, sticky_names, findings):
    """IKDP_STICKY_ERRNO member overwritten while it may already hold the
    first error.  Lattice per (receiver, member): unknown / known-zero /
    known-set; `= 0` lowers, a guarded branch (`if (err == 0)`) lowers on
    the proving edge, any nonzero store from known-set is a clobber."""
    body = fn.body
    if not any(n in body for n in sticky_names):
        return
    writes = {}  # (recv, member) -> [(pos, iszero)]
    for m in ASSIGN_SITE_RE.finditer(body):
        recv, member, rhs = m.group(1), m.group(2), m.group(3)
        if member not in sticky_names:
            continue
        cls = _member_class(model, fn, recv)
        ok = cls in model.sticky and member in model.sticky[cls]
        if not ok and cls is None:
            owners = [c for c, d in model.sticky.items() if member in d]
            ok = len(owners) == 1
        if not ok:
            continue
        iszero = rhs.strip() in ("0", "nullptr")
        writes.setdefault((recv, member), []).append((m.start(), iszero))
    if not writes:
        return
    order = sorted(writes, key=lambda k: (k[0] or "", k[1]))
    idx = {k: i for i, k in enumerate(order)}
    mention = {}
    for recv, member in order:
        if recv:
            mention[(recv, member)] = re.compile(
                r"\b%s\s*(?:->|\.)\s*%s\b" % (re.escape(recv),
                                              re.escape(member)))
        else:
            mention[(recv, member)] = re.compile(
                r"(?<![\w.>])%s\b" % re.escape(member))
    evpos = sorted((p, k, iszero)
                   for k, lst in writes.items() for p, iszero in lst)
    hits = set()

    def transfer(block, state):
        st = list(state)
        for p, key, iszero in _seg_events(block, evpos):
            i = idx[key]
            if iszero:
                st[i] = "z"
            else:
                if st[i] == "s":
                    hits.add((p, key))
                st[i] = "s"
        return tuple(st)

    def refine(edge, state):
        label, cs, ce = edge
        cond = body[cs:ce]
        st = None
        for key, rx in mention.items():
            pol = kpath.cond_checks_zero(cond, rx)
            if pol is None:
                continue
            if st is None:
                st = list(state)
            # The edge matching the polarity proves the member is zero; the
            # opposite edge proves it already holds an error.
            st[idx[key]] = "z" if pol == label else "s"
        return state if st is None else tuple(st)

    init = tuple("u" for _ in order)
    main, lams = get_cfgs(fn)
    for cfg in [main] + lams:  # a lambda runs deferred: sticky state unknown
        kpath.walk_paths(cfg, init, transfer, refine)
    reported = set()
    for p, (recv, member) in sorted(hits):
        line = _line_at(fn, p)
        if (member, line) in reported:
            continue
        reported.add((member, line))
        access = "%s->%s" % (recv, member) if recv else member
        _emit_path(model, findings, "errno-clobber", fn, p,
                   "%s overwrites sticky errno member '%s' on a path where "
                   "it may already hold the first error; guard the store "
                   "with `if (%s == 0)`" % (fn.qname, access, access))


def _check_discarded_failure(model, fn, may_fail, findings):
    """A statement that is nothing but a call to a may-fail function: the
    error return is silently dropped.  `(void)f(...)` and uses inside
    larger expressions are naturally exempt (the statement is then not a
    bare call)."""
    body = fn.body
    for st in kpath.iter_stmts(body, fn.lambda_regions, kinds={"simple"}):
        if st.seg is None:
            continue
        s, e = st.seg
        text = body[s:e]
        m = BARE_CALL_RE.match(text)
        if m is None:
            continue
        recv, sep, name = m.group(1), m.group(2), m.group(3)
        if name.lstrip("~") in CPP_KEYWORDS:
            continue
        close = _match_paren_at(text, m.end() - 1)
        if text[close + 1:].strip(" \t\n;") != "":
            continue  # call is a subexpression, not the whole statement
        if sep == "::":
            callee = model.functions.get("%s::%s" % (recv, name))
        else:
            callee = resolve_call_lock(model, fn, recv, name)
        if callee is None or callee.qname not in may_fail:
            continue
        _emit_path(model, findings, "discarded-failure", fn, s + m.start(3),
                   "%s discards the error return of %s; check it, propagate "
                   "it, or cast to (void) to document the drop"
                   % (fn.qname, callee.qname))


def _check_resource_leak(model, fn, acquirers, findings):
    """A local acquired from an acquires-resource function must reach a
    release/write on every path to an exit.  Mentions that escape the
    value (call argument, return, reassignment target) end tracking
    conservatively; a null-check edge proves the failed-acquisition arm
    unowned."""
    body = fn.body
    acq = {}  # var -> [acquire pos]
    lhs_spans = []
    for m in ACQ_ASSIGN_RE.finditer(body):
        var, name = m.group(1), m.group(2)
        ok = name in acquirers
        if not ok:
            callee = resolve_call_lock(model, fn, None, name)
            ok = callee is not None and callee.qname in acquirers
        if ok:
            acq.setdefault(var, []).append(m.start())
            lhs_spans.append((m.start(1), m.end(1)))
    if not acq:
        return
    rel_names = set(BUF_RELEASE_NAMES) | set(BUF_WRITE_NAMES)
    rel_spans = []
    for m in re.finditer(r"\b(?:%s)\s*\(" % "|".join(rel_names), body):
        rel_spans.append((m.end() - 1, _match_paren_at(body, m.end() - 1)))
    conds = kpath.cond_intervals(body, fn.lambda_regions)

    def is_call_arg(code, pos):
        i = pos - 1
        while i >= 0 and code[i] in " \t\n":
            i -= 1
        if i < 0:
            return False
        if code[i] == ",":
            return True
        if code[i] == "(":
            j = i - 1
            while j >= 0 and code[j] in " \t\n":
                j -= 1
            return j >= 0 and (code[j].isalnum() or code[j] == "_")
        return False

    events = []  # (pos, kind, var) with kind acq|rel|kill
    for var, poss in acq.items():
        events.extend((p, "acq", var) for p in poss)
        for m in re.finditer(r"\b%s\b" % re.escape(var), body):
            p = m.start()
            if any(s <= p < e for s, e in lhs_spans):
                continue  # the acquiring assignment's own lvalue
            rest = body[m.end():m.end() + 3].lstrip()
            if rest.startswith(".") or rest.startswith("->"):
                continue  # receiver use keeps ownership
            if any(s < p < e for s, e in rel_spans):
                events.append((p, "rel", var))
                continue
            if any(s <= p < e for s, e in conds) and \
                    not is_call_arg(body, p):
                continue  # bare null test: handled by edge refinement
            events.append((p, "kill", var))
    order = sorted(acq)
    idx = {v: i for i, v in enumerate(order)}
    evpos = sorted(events)
    hits = {}  # var -> (exit pos, acquire pos)

    def transfer(block, state):
        st = list(state)
        for item in block.items:
            if item[0] == "seg":
                lo = bisect.bisect_left(evpos, (item[1],))
                while lo < len(evpos) and evpos[lo][0] < item[2]:
                    p, kind, var = evpos[lo]
                    lo += 1
                    i = idx[var]
                    if kind == "acq":
                        st[i] = "o"
                    elif st[i] == "o":
                        st[i] = "d"
            elif item[0] == "exit":
                for var, i in idx.items():
                    if st[i] == "o" and var not in hits:
                        hits[var] = (item[1], acq[var][0])
        return tuple(st)

    def refine(edge, state):
        label, cs, ce = edge
        cond = body[cs:ce]
        st = None
        for var, i in idx.items():
            if state[i] != "o":
                continue
            rx = re.compile(r"\b%s\b" % re.escape(var))
            mm = rx.search(cond)
            if mm is None or is_call_arg(cond, mm.start()):
                continue
            if cond[mm.end():].lstrip().startswith((".", "->")):
                continue  # member access, not a null test of the handle
            if kpath.cond_checks_zero(cond, rx) == label:
                if st is None:
                    st = list(state)
                st[i] = "u"  # this edge proves the acquisition failed
        return state if st is None else tuple(st)

    init = tuple("u" for _ in order)
    main, lams = get_cfgs(fn)
    for cfg in [main] + lams:
        kpath.walk_paths(cfg, init, transfer, refine)
    for var in sorted(hits):
        exit_pos, acq_pos = hits[var]
        _emit_path(model, findings, "resource-leak-on-error-path", fn,
                   exit_pos,
                   "%s exits here with '%s' (acquired at line %d) still "
                   "owned: no release/write on this path"
                   % (fn.qname, var, _line_at(fn, acq_pos)))


def _check_charge_context(model, fn, findings):
    """Charge calls and bucket literals must agree with the execution
    context: interrupt-side charges from process/any context need a
    dominating InInterrupt() check on every path; process-side buckets are
    never legal from interrupt/softclock context."""
    if fn.cls in CHARGE_IMPL_CLASSES:
        return
    ctx = fn.annotation
    if ctx is None:
        # No declared context to disagree with; un-annotated interrupt
        # charges stay the lexical undominated-charge rule's business.
        return
    body = fn.body
    events = []
    for m in CALL_RE.finditer(body):
        if m.group(2) in INTERRUPT_CHARGE_NAMES and \
                not _in_region(fn.lambda_regions, m.start()):
            events.append((m.start(), "charge", m.group(2)))
    for m in re.finditer(r"\b\w*(?:Charge|Attribute)\w*\s*\(", body):
        close = _match_paren_at(body, m.end() - 1)
        for bm in BUCKET_LITERAL_RE.finditer(body, m.end(), close):
            if not _in_region(fn.lambda_regions, bm.start()):
                events.append((bm.start(), "bucket", bm.group(1)))
    if not events:
        return
    if ctx in ("interrupt", "softclock"):
        for pos, kind, payload in sorted(set(events)):
            if kind == "bucket" and payload in PROC_BUCKET_LITERALS:
                _emit_path(model, findings, "charge-context-mismatch", fn,
                           pos,
                           "%s (IKDP_CTX_%s) charges process-side bucket "
                           "ChargeBucket::%s" % (fn.qname, ctx.upper(),
                                                 payload))
        return
    evpos = sorted(set(events))
    hits = set()

    def transfer(block, state):
        in_intr = state[0]
        for p, kind, payload in _seg_events(block, evpos):
            if in_intr:
                continue
            if kind == "charge" or payload in INTR_BUCKET_LITERALS:
                hits.add((p, kind, payload))
        return state

    def refine(edge, state):
        label, cs, ce = edge
        cond = body[cs:ce]
        if "InInterrupt" not in cond:
            return state
        pol = "false" if ININTR_NEG_RE.search(cond) else "true"
        return (1,) if label == pol else state

    main, _ = get_cfgs(fn)  # lambdas excluded: deferred, context unknown
    kpath.walk_paths(main, (0,), transfer, refine)
    for pos, kind, payload in sorted(hits):
        if kind == "charge":
            msg = ("%s (IKDP_CTX_%s) calls %s on a path where InInterrupt() "
                   "is not proven; charge under an InInterrupt() check or "
                   "annotate IKDP_CTX_INTERRUPT"
                   % (fn.qname, ctx.upper(), payload))
        else:
            msg = ("%s (IKDP_CTX_%s) charges interrupt-side bucket "
                   "ChargeBucket::%s without a dominating InInterrupt() "
                   "check" % (fn.qname, ctx.upper(), payload))
        _emit_path(model, findings, "charge-context-mismatch", fn, pos, msg)


def check_error_paths(model, findings):
    """Drives the four kpath rule families over every trackable body."""
    def resolve(fn, name):
        return resolve_call_lock(model, fn, None, name)
    may_fail = kpath.compute_may_fail(model, resolve)
    acquirers = kpath.compute_acquirers(model, resolve, BUF_ACQUIRE_NAMES)
    sticky_names = {mem for d in model.sticky.values() for mem in d}
    for fn in _trackable(model):
        get_cfgs(fn)  # ensures fn.lambda_regions and the CFG cache
        if sticky_names:
            _check_errno_clobber(model, fn, sticky_names, findings)
        _check_discarded_failure(model, fn, may_fail, findings)
        _check_resource_leak(model, fn, acquirers, findings)
        _check_charge_context(model, fn, findings)


# ---------------------------------------------------------------------------
# mutable-global: process-wide mutable state outside the kernel context
# ---------------------------------------------------------------------------

# Heads at namespace or class scope that never declare a variable.
_NON_VARIABLE_HEADS = {
    "using", "typedef", "namespace", "static_assert", "friend", "extern",
    "class", "struct", "union", "enum", "template", "public", "private",
    "protected",
}
_ANNOTATION_CALL_RE = re.compile(r"\b(?:IKDP_\w+|__attribute__|alignas)\s*\(")


def _strip_annotations(head):
    """Removes `IKDP_*(...)` / `__attribute__((...))` / `alignas(...)` and
    access specifiers so a data member's trailing annotation is not read as
    a parameter list."""
    while True:
        m = _ANNOTATION_CALL_RE.search(head)
        if not m:
            break
        close = _match_paren_at(head, m.end() - 1)
        head = head[:m.start()] + " " + head[close + 1:]
    head = re.sub(r"\bIKDP_\w+", " ", head)
    return re.sub(r"\b(?:public|private|protected)\s*:(?!:)", " ", head)


def _declared_variable(decl):
    """(name, is_const) for a variable declaration head without its
    initializer, or None when `decl` declares no variable."""
    flat = decl
    while True:  # drop template arguments: `*` inside them is no pointer
        nxt = re.sub(r"<[^<>]*>", " ", flat)
        if nxt == flat:
            break
        flat = nxt
    flat = re.sub(r"\[[^\]]*\]", " ", flat)  # array bounds
    toks = re.findall(r"[A-Za-z_]\w*|\*|&", flat)
    idents = [t for t in toks if t not in ("*", "&")]
    if len(idents) < 2 and not (idents and "*" in toks):
        return None  # a bare expression or a lone type name
    name = idents[-1]
    if "constexpr" in toks:
        return name, True
    if "*" in toks:  # the pointer itself must be const: `T* const p`
        last = len(toks) - 1 - toks[::-1].index("*")
        return name, "const" in toks[last:]
    return name, "const" in toks


def _check_mutable_decl(model, findings, path, code, head, head_pos, what):
    stripped = head.strip()
    if not stripped:
        return
    decl = re.split(r"[=({]", stripped, maxsplit=1)[0]
    var = _declared_variable(decl)
    if var is None:
        return
    name, is_const = var
    if is_const:
        return
    line = line_of(code, head_pos + len(head) - len(head.lstrip()))
    if model.waived(path, line, "mutable-global"):
        return
    findings.append(Finding(
        "mutable-global", path, line,
        "%s '%s' is mutable process-wide state: make it const/constexpr or "
        "move it into the per-thread KernelContext (src/kern/kernel_context.h)"
        % (what, name)))


def _scan_mutable_globals(model, findings, path, code, start, end, scope):
    """Walks one brace scope (`ns`, `class` or `func`) of stripped code."""
    i = head_start = start
    while i < end:
        c = code[i]
        if c == "{":
            close = find_matching_brace(code, i)
            head = _strip_annotations(code[head_start:i]).strip()
            first = (re.findall(r"[A-Za-z_]\w*", head) or [""])[0]
            if scope == "func":
                if first in ("static", "thread_local"):
                    i = close + 1  # a brace initializer: keep the head
                    continue
                sub = "func"  # a nested block or lambda body
            elif re.search(r"\bnamespace\b|^extern$", head):
                sub = "ns"
            elif re.search(r"\b(?:class|struct|union)\b[^(]*$", head) and \
                    not re.search(r"\benum\b", head):
                sub = "class"
            elif "(" in head and not head.endswith("="):
                sub = "func"
            else:
                i = close + 1  # enum body or brace initializer: keep the head
                continue
            _scan_mutable_globals(model, findings, path, code, i + 1, close, sub)
            i = head_start = close + 1
            continue
        if c == ";":
            head = _strip_annotations(code[head_start:i])
            toks = re.findall(r"[A-Za-z_]\w*", head)
            first = toks[0] if toks else ""
            pre_init = re.split(r"=", head, maxsplit=1)[0]
            if scope == "func":
                if first in ("static", "thread_local"):
                    _check_mutable_decl(model, findings, path, code, head, head_start,
                                        "function-static variable")
            elif scope == "class":
                if "static" in toks[:3] and "(" not in pre_init:
                    _check_mutable_decl(model, findings, path, code, head, head_start,
                                        "static data member")
            elif first not in _NON_VARIABLE_HEADS and "(" not in pre_init and \
                    "operator" not in toks:
                _check_mutable_decl(model, findings, path, code, head, head_start,
                                    "namespace-scope variable")
            head_start = i + 1
        elif c == "}":
            head_start = i + 1
        i += 1


def check_mutable_globals(model, findings):
    """mutable-global: namespace-scope variables, function-static variables
    and static data members that are neither const nor constexpr."""
    for path, code in model.code.items():
        _scan_mutable_globals(model, findings, path, code, 0, len(code), "ns")


def check_stale_waivers(model, findings):
    """Waiver comments that suppressed nothing this run.

    Must run AFTER every other rule so used_waivers is complete.  A stale
    waiver is a latent hole: the finding it once hid is gone, but the
    comment would silently swallow the next regression on that line.
    """
    for file in sorted(model.raw_lines):
        for i, text in enumerate(model.raw_lines[file], 1):
            for m in WAIVER_RE.finditer(text):
                rule = m.group(1)
                if rule == "stale-waiver":
                    continue  # waiving the lint itself is meaningless
                if (file, i, rule) in model.used_waivers:
                    continue
                if rule not in KNOWN_RULES:
                    msg = "waiver names unknown rule '%s'" % rule
                else:
                    msg = ("waiver for '%s' no longer matches any finding; "
                           "delete it" % rule)
                findings.append(Finding("stale-waiver", file, i, msg))


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def collect_files(args):
    files = []
    if args.files:
        files.extend(args.files)
    if args.compile_commands:
        try:
            with open(args.compile_commands) as f:
                db = json.load(f)
        except OSError as e:
            sys.exit("kcheck: cannot read %s: %s" % (args.compile_commands, e))
        for entry in db:
            path = os.path.normpath(
                os.path.join(entry.get("directory", "."), entry["file"]))
            if args.root and args.root not in os.path.abspath(path):
                continue
            files.append(path)
    if args.root and not args.files:
        for dirpath, _, names in os.walk(args.root):
            for name in names:
                if name.endswith((".h", ".hpp", ".cc", ".cpp")):
                    files.append(os.path.join(dirpath, name))
    seen, uniq = set(), []
    for f in files:
        a = os.path.abspath(f)
        if a not in seen and os.path.isfile(a):
            seen.add(a)
            uniq.append(f)
    if not uniq:
        sys.exit("kcheck: no input files (use --root, --compile-commands, "
                 "or list files)")
    return uniq


# ---------------------------------------------------------------------------
# Incremental cache (--cache DIR)
# ---------------------------------------------------------------------------

CACHE_FORMAT = 1
_TOOL_HASH = None


def tool_hash():
    """Digest of the analyzer's own sources: editing kcheck.py or kpath.py
    invalidates every cache entry, so a cache can never replay findings an
    older rule set produced."""
    global _TOOL_HASH
    if _TOOL_HASH is None:
        h = hashlib.sha256(b"kcheck-cache-v%d" % CACHE_FORMAT)
        here = os.path.dirname(os.path.abspath(__file__))
        for name in ("kcheck.py", "kpath.py"):
            with open(os.path.join(here, name), "rb") as f:
                h.update(f.read())
        _TOOL_HASH = h.hexdigest()
    return _TOOL_HASH


class Cache:
    """Two-layer on-disk cache for incremental runs.

    Layer 1 (token, `<hash>.tok`): the comment-stripped, directive-blanked
    text of one file, keyed on sha256(tool sources + file content).  That
    transform is the hottest per-file step and depends on nothing but the
    file itself, so a warm entry survives edits to OTHER files.

    Layer 2 (run, `run-<hash>.json`): the complete findings of a whole run,
    keyed on the tool hash plus every input's (path, content-hash) pair.
    A hit replays the stored findings without parsing anything; any edit,
    rename, addition, or deletion changes the key.  The record stores the
    UNFILTERED findings — --changed-only filtering happens after replay —
    so a cached and an uncached run can never disagree.
    """

    def __init__(self, root):
        self.root = root
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as e:
            sys.exit("kcheck: --cache %s: %s" % (root, e))

    def _put(self, path, data):
        # Write-then-rename so a crashed run never leaves a torn entry.
        tmp = "%s.tmp.%d" % (path, os.getpid())
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(data)
            os.replace(tmp, path)
        except OSError:
            pass  # cache is best-effort; the analysis result is already made

    def file_key(self, text):
        h = hashlib.sha256(tool_hash().encode())
        h.update(text.encode("utf-8", "replace"))
        return h.hexdigest()

    def get_tokens(self, key):
        try:
            with open(os.path.join(self.root, key + ".tok"),
                      encoding="utf-8") as f:
                return f.read()
        except OSError:
            return None

    def put_tokens(self, key, tokens):
        self._put(os.path.join(self.root, key + ".tok"), tokens)

    def run_key(self, file_hashes):
        h = hashlib.sha256(tool_hash().encode())
        for rel, fh in sorted(file_hashes):
            h.update(("%s\0%s\n" % (rel, fh)).encode())
        return h.hexdigest()

    def get_run(self, key):
        try:
            with open(os.path.join(self.root, "run-" + key + ".json"),
                      encoding="utf-8") as f:
                rec = json.load(f)
        except (OSError, ValueError):
            return None
        if rec.get("format") != CACHE_FORMAT:
            return None
        return rec

    def put_run(self, key, record):
        self._put(os.path.join(self.root, "run-" + key + ".json"),
                  json.dumps(record, indent=1))


def git_changed_files():
    """Paths (relative to the git worktree root = CWD) that git reports as
    modified, staged, renamed-to, or untracked."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("kcheck: --changed-only needs a git worktree: %s" % e)
    changed = set()
    for line in out.splitlines():
        entry = line[3:]
        if " -> " in entry:  # rename: the new path is the live one
            entry = entry.split(" -> ", 1)[1]
        entry = entry.strip().strip('"')
        if entry:
            changed.add(os.path.normpath(entry))
    return changed


def read_sources(files):
    srcs = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            sys.exit("kcheck: %s: %s" % (path, e))
        srcs.append((os.path.relpath(path), text))
    return srcs


def run_builtin(srcs, cache=None):
    model = Model()
    for rel, text in srcs:
        model.raw_lines[rel] = text.splitlines()
        tokens = None
        key = cache.file_key(text) if cache is not None else None
        if key is not None:
            tokens = cache.get_tokens(key)
        if tokens is None:
            tokens = blank_preprocessor_lines(strip_comments_and_strings(text))
            if key is not None:
                cache.put_tokens(key, tokens)
        model.code[rel] = tokens
        FileParser(model, rel, tokens).parse()
    return model


def run_libclang(files):
    try:
        import clang.cindex  # noqa: F401
    except ImportError:
        sys.exit("kcheck: --frontend=libclang requires the clang python "
                 "bindings (package `libclang`); they are not installed in "
                 "this environment.  Use the default --frontend=builtin.")
    # The libclang frontend shares the rule engine: it only has to fill a
    # Model.  Left as an optional path; the builtin frontend is canonical.
    sys.exit("kcheck: libclang frontend not implemented in this build; "
             "use --frontend=builtin")


SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json")


def sarif_report(findings):
    """SARIF 2.1.0 document for the findings (one run, driver `kcheck`).

    Every rule kcheck can emit appears in the driver's rule table — stable
    ruleIndex values across runs — and each result points back into it.
    """
    rule_ids = sorted(KNOWN_RULES)
    index = {r: i for i, r in enumerate(rule_ids)}
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "kcheck",
                "rules": [{
                    "id": r,
                    "shortDescription": {"text": r},
                    "defaultConfiguration": {"level": "error"},
                } for r in rule_ids],
            }},
            "results": [{
                "ruleId": f.rule,
                "ruleIndex": index[f.rule],
                "level": "error",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.file.replace(os.sep, "/"),
                        },
                        "region": {"startLine": f.line},
                    },
                }],
            } for f in findings],
        }],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="explicit source files to scan")
    ap.add_argument("--compile-commands", metavar="JSON",
                    help="compile_commands.json to derive the TU list from")
    ap.add_argument("--root", metavar="DIR",
                    help="scan all C++ sources under DIR (default: src/ when "
                         "no files are given)")
    ap.add_argument("--frontend", choices=("builtin", "libclang"),
                    default="builtin")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as JSON on stdout")
    ap.add_argument("--github", action="store_true",
                    help="emit findings as GitHub workflow annotations "
                         "(::error file=...) plus a count summary")
    ap.add_argument("--sarif", action="store_true",
                    help="emit findings as a SARIF 2.1.0 document on stdout")
    ap.add_argument("--cache", metavar="DIR",
                    help="incremental mode: cache per-file token results and "
                         "whole-run findings in DIR, keyed on content hashes "
                         "(invalidated by any file or tool change)")
    ap.add_argument("--changed-only", action="store_true",
                    help="report only findings in files git sees as changed "
                         "(vs HEAD) or untracked; the whole tree is still "
                         "analyzed so cross-file contracts stay sound")
    ap.add_argument("--list-functions", action="store_true",
                    help="dump the parsed function database and exit")
    args = ap.parse_args(argv)

    if not args.files and not args.root and not args.compile_commands:
        args.root = "src" if os.path.isdir("src") else None

    files = collect_files(args)
    if args.frontend == "libclang":
        run_libclang(files)  # always exits (bindings missing / unimplemented)

    srcs = read_sources(files)
    cache = Cache(args.cache) if args.cache else None

    record = run_key = None
    if cache is not None:
        run_key = cache.run_key(
            [(rel, cache.file_key(text)) for rel, text in srcs])
        record = cache.get_run(run_key)

    if record is not None and not args.list_functions:
        # Run-layer hit: replay the stored (unfiltered) findings.  Output is
        # byte-identical to the cold run by construction.
        findings = [Finding(**f) for f in record["findings"]]
        n_functions = record["functions"]
    else:
        model = run_builtin(srcs, cache)

        if args.list_functions:
            for qname in sorted(model.functions):
                fn = model.functions[qname]
                print("%-50s %-10s %s"
                      % (qname, fn.annotation or "-",
                         "def" if fn.body is not None else "decl"))
            return 0

        findings = []
        check_annotation_conflicts(model, findings)
        check_annotation_mismatch(model, findings)
        check_data_annotations(model, findings)
        check_guard_violations(model, findings)
        check_context_reachability(model, findings)
        check_charge_domination(model, findings)
        check_buf_discipline(model, findings)
        check_lock_discipline(model, findings)
        check_error_paths(model, findings)
        check_mutable_globals(model, findings)
        check_stale_waivers(model, findings)  # last: consumes used_waivers
        n_functions = len(model.functions)

        if cache is not None:
            cache.put_run(run_key, {
                "format": CACHE_FORMAT,
                "functions": n_functions,
                "findings": [f.as_dict() for f in findings],
            })

    if args.changed_only:
        changed = git_changed_files()
        findings = [f for f in findings
                    if os.path.normpath(f.file) in changed]

    if args.json:
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    elif args.sarif:
        print(json.dumps(sarif_report(findings), indent=2))
    elif args.github:
        for f in findings:
            print("::error file=%s,line=%d,title=kcheck %s::[%s] %s"
                  % (f.file, f.line, f.rule, f.rule, f.message))
        print("kcheck: %d finding(s) across %d file(s)"
              % (len(findings), len(files)))
    else:
        for f in findings:
            print(f)
        print("kcheck: %d file(s), %d function(s), %d finding(s)"
              % (len(files), n_functions, len(findings)),
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
