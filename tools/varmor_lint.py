#!/usr/bin/env python3
"""varmor-lint: project-specific static checks the compilers cannot express.

Run as `python3 tools/varmor_lint.py [repo-root]` (default: cwd). Exit code 0
when clean, 1 with `path:line: [rule] message` findings otherwise. Wired into
ctest (label `static`) and the CI static-analysis job.

Rules
-----
fault-points     Every VARMOR_FAULT_POINT name in src/ is `component.event`
                 style, confined to ONE file (a name reused across files
                 would make hit counts ambiguous), and exercised by
                 tests/test_fault_injection.cpp — an uncovered fault point is
                 dead recovery code.

numerics-hygiene src/{la,sparse,mor,solve,analysis} (the numerics core) must
                 not use M_PI (not portable C++; util/constants), rand()
                 (non-reproducible; util generators), or std::unordered_map
                 (iteration order varies across libraries — a determinism
                 hazard in result-shaping code; std::map or sorted vectors).

naked-mutex      src/ outside util/thread_annotations.h must not name the raw
                 std:: locking primitives; the annotated util::Mutex /
                 util::MutexLock / util::CondVar wrappers keep every lock
                 visible to Clang's -Wthread-safety analysis.

future-in-lock   src/service/ must not .get()/.wait() a future while a
                 MutexLock is in scope: the serving layer's liveness rests on
                 build-outside-the-lock (SingleFlight's contract), and a
                 future wait under a lock is a latent deadlock even when the
                 thread-safety analysis cannot see it (the wait blocks on
                 another thread that may need the same lock).

no-promise       src/service/ must not construct std::promise: per-query
                 promise/future pairs pay one shared-state heap allocation
                 each, which is exactly what the slab result channels
                 (util::ResultSlab and its ResultTicket) exist to avoid.
                 Tests and the util layer are out of scope.

one-pool         src/ outside util/thread_pool.{h,cpp} must not construct a
                 util::ThreadPool (a temporary, a named object,
                 make_unique/make_shared or new): every section runs on
                 ThreadPool::global() with `threads` as its width, so no
                 call spawns and joins threads of its own. References and
                 ThreadPool::global() are fine; tests are out of scope.

simd-confined    Raw vector intrinsics (immintrin.h, _mm*/__m128/__m256/
                 __m512 tokens) are allowed in src/la/simd.h ONLY. Everything
                 else programs against Pack<T> and the pointer kernels, so
                 the portable scalar arm stays complete and the bit-identity
                 contract has a single place to audit.

obs-naming       Every literal metric name registered or exported in src/
                 (obs::Registry counter/gauge/histogram, obs::Snapshot
                 add_counter/add_gauge/add_histogram) is `component.metric`
                 style and appears in exactly ONE file — the registry dedupes
                 by name, so a name reused across files would silently merge
                 two unrelated instruments. For the same reason every
                 counter(/gauge(/histogram( call in src/ outside
                 src/obs/metrics.{h,cpp} takes a string literal as its first
                 argument: a name behind a variable or a ?: would escape the
                 one-file check. Snapshot exports of names assembled at
                 runtime through add_* (the "fault." + point and slab-prefix
                 exports) are exempt: they register no instrument.
"""

import os
import re
import sys

NUMERICS_DIRS = ("la", "sparse", "mor", "solve", "analysis")

NAKED_PRIMITIVES = (
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::condition_variable",
    "std::condition_variable_any",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
)

FAULT_POINT_RE = re.compile(r'VARMOR_FAULT_POINT(?:_DETAIL)?\s*\(\s*"([^"]+)"')
FAULT_NAME_RE = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+$")
OBS_REGISTER_RE = re.compile(
    r'\b(?:add_counter|add_gauge|add_histogram|counter|gauge|histogram)'
    r'\s*\(\s*"([^"]+)"')
OBS_NAME_RE = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+$")
OBS_NONLITERAL_RE = re.compile(r'\b(counter|gauge|histogram)\s*\(\s*(?=[^")\s])')
RAND_RE = re.compile(r"\b(?:std::)?rand\s*\(")
M_PI_RE = re.compile(r"\bM_PI\b")
FUTURE_DECL_RE = re.compile(r"std::(?:shared_)?future\s*<[^;{}]*?>\s+(\w+)\s*[;=({]")
GET_FUTURE_RE = re.compile(r"\b(?:auto|const auto)\s+(\w+)\s*=[^;]*\.get_future\(\)")
MUTEX_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(")
POOL_CONSTRUCT_RE = re.compile(
    r"\bThreadPool\s*[({]"                  # temporary
    r"|\bThreadPool\s+\w+\s*[({;=]"         # named object
    r"|\b(?:make_unique|make_shared)\s*<\s*(?:\w+::)*ThreadPool\s*>"
    r"|\bnew\s+(?:\w+::)*ThreadPool\b")


def strip_code(text, keep_strings):
    """Blanks comments (and, unless keep_strings, string/char literal
    contents) while preserving line structure, so findings keep real line
    numbers and tokens inside comments or messages never trip a rule."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "string"
                out.append(ch)
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append(ch)
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append(ch)
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(ch if ch == "\n" else " ")
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append(ch if keep_strings else " ")
                if nxt:
                    out.append(nxt if keep_strings else " ")
                    i += 2
                    continue
            elif ch == quote:
                state = "code"
                out.append(ch)
            else:
                out.append(ch if keep_strings else " ")
        i += 1
    return "".join(out)


def iter_source_files(root, subdir):
    base = os.path.join(root, subdir)
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith((".h", ".hpp", ".cpp", ".cc")):
                yield os.path.join(dirpath, name)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def report(self, path, line, rule, message):
        rel = os.path.relpath(path, self.root)
        self.findings.append(f"{rel}:{line}: [{rule}] {message}")

    # -- fault-points ------------------------------------------------------
    def check_fault_points(self):
        driver_path = os.path.join(self.root, "tests", "test_fault_injection.cpp")
        try:
            with open(driver_path, encoding="utf-8") as f:
                driver_text = f.read()
        except OSError:
            driver_text = None

        seen = {}  # name -> first (path, line)
        for path in iter_source_files(self.root, "src"):
            with open(path, encoding="utf-8") as f:
                code = strip_code(f.read(), keep_strings=True)
            for m in FAULT_POINT_RE.finditer(code):
                name, line = m.group(1), line_of(code, m.start())
                if not FAULT_NAME_RE.match(name):
                    self.report(path, line, "fault-points",
                                f'fault point "{name}" is not component.event '
                                "style ([a-z0-9_]+.[a-z0-9_]+)")
                if name in seen and seen[name][0] != path:
                    first = seen[name]
                    self.report(path, line, "fault-points",
                                f'fault point "{name}" is also defined in '
                                f"{os.path.relpath(first[0], self.root)}:{first[1]} "
                                "— a name must be confined to one file")
                else:
                    seen.setdefault(name, (path, line))
                if driver_text is not None and f'"{name}"' not in driver_text:
                    self.report(path, line, "fault-points",
                                f'fault point "{name}" is not exercised by '
                                "tests/test_fault_injection.cpp")
        if driver_text is None:
            self.report(driver_path, 1, "fault-points",
                        "missing tests/test_fault_injection.cpp — fault-point "
                        "coverage cannot be checked")

    # -- obs-naming --------------------------------------------------------
    def check_obs_naming(self):
        seen = {}  # name -> first (path, line)
        registry_files = {
            os.path.normpath(os.path.join(self.root, "src", "obs", name))
            for name in ("metrics.h", "metrics.cpp")}
        for path in iter_source_files(self.root, "src"):
            with open(path, encoding="utf-8") as f:
                code = strip_code(f.read(), keep_strings=True)
            if os.path.normpath(path) not in registry_files:
                for m in OBS_NONLITERAL_RE.finditer(code):
                    self.report(path, line_of(code, m.start()), "obs-naming",
                                f"{m.group(1)}() named by a non-literal — "
                                "instrument names must be string literals so "
                                "the one-file check can see them")
            for m in OBS_REGISTER_RE.finditer(code):
                name, line = m.group(1), line_of(code, m.start())
                if not OBS_NAME_RE.match(name):
                    self.report(path, line, "obs-naming",
                                f'metric name "{name}" is not component.metric '
                                "style ([a-z0-9_]+.[a-z0-9_]+)")
                if name in seen and seen[name][0] != path:
                    first = seen[name]
                    self.report(path, line, "obs-naming",
                                f'metric name "{name}" is also registered in '
                                f"{os.path.relpath(first[0], self.root)}:{first[1]} "
                                "— a name must be confined to one file (the "
                                "registry would silently merge the instruments)")
                else:
                    seen.setdefault(name, (path, line))

    # -- numerics-hygiene --------------------------------------------------
    def check_numerics_hygiene(self):
        for subdir in NUMERICS_DIRS:
            for path in iter_source_files(self.root, os.path.join("src", subdir)):
                with open(path, encoding="utf-8") as f:
                    code = strip_code(f.read(), keep_strings=False)
                for regex, what, instead in (
                        (M_PI_RE, "M_PI", "util/constants"),
                        (RAND_RE, "rand()", "the util generators"),
                        (re.compile(r"\bstd::unordered_map\b"), "std::unordered_map",
                         "std::map or a sorted vector"),
                ):
                    for m in regex.finditer(code):
                        self.report(path, line_of(code, m.start()), "numerics-hygiene",
                                    f"{what} in the numerics core — use {instead}")

    # -- naked-mutex -------------------------------------------------------
    def check_naked_mutex(self):
        allowed = os.path.normpath(
            os.path.join(self.root, "src", "util", "thread_annotations.h"))
        for path in iter_source_files(self.root, "src"):
            if os.path.normpath(path) == allowed:
                continue
            with open(path, encoding="utf-8") as f:
                code = strip_code(f.read(), keep_strings=False)
            for token in NAKED_PRIMITIVES:
                for m in re.finditer(re.escape(token) + r"\b", code):
                    self.report(path, line_of(code, m.start()), "naked-mutex",
                                f"{token} outside util/thread_annotations.h — "
                                "use the annotated util::Mutex/MutexLock/CondVar")

    # -- simd-confined -----------------------------------------------------
    def check_simd_confined(self):
        allowed = os.path.normpath(os.path.join(self.root, "src", "la", "simd.h"))
        intrinsic_re = re.compile(
            r"\bimmintrin\.h\b|\b_mm\w*\s*\(|\b__m(?:128|256|512)[di]?\b")
        for path in iter_source_files(self.root, "src"):
            if os.path.normpath(path) == allowed:
                continue
            with open(path, encoding="utf-8") as f:
                code = strip_code(f.read(), keep_strings=False)
            for m in intrinsic_re.finditer(code):
                self.report(path, line_of(code, m.start()), "simd-confined",
                            f"raw vector intrinsic '{m.group(0).strip()}' outside "
                            "src/la/simd.h — program against Pack<T> / the "
                            "simd:: pointer kernels")

    # -- no-promise --------------------------------------------------------
    def check_no_promise(self):
        promise_re = re.compile(r"\bstd::promise\b")
        for path in iter_source_files(self.root, os.path.join("src", "service")):
            with open(path, encoding="utf-8") as f:
                code = strip_code(f.read(), keep_strings=False)
            for m in promise_re.finditer(code):
                self.report(path, line_of(code, m.start()), "no-promise",
                            "std::promise in the serving layer — use the slab "
                            "result channels (util::ResultSlab / ResultTicket); "
                            "a promise allocates shared state per query")

    # -- one-pool ----------------------------------------------------------
    def check_one_pool(self):
        allowed = {
            os.path.normpath(os.path.join(self.root, "src", "util", name))
            for name in ("thread_pool.h", "thread_pool.cpp")}
        for path in iter_source_files(self.root, "src"):
            if os.path.normpath(path) in allowed:
                continue
            with open(path, encoding="utf-8") as f:
                code = strip_code(f.read(), keep_strings=False)
            for m in POOL_CONSTRUCT_RE.finditer(code):
                self.report(path, line_of(code, m.start()), "one-pool",
                            "util::ThreadPool constructed outside "
                            "util/thread_pool.{h,cpp} — run the section on "
                            "ThreadPool::global() and pass its width as `threads`")

    # -- future-in-lock ----------------------------------------------------
    def check_future_in_lock(self):
        for path in iter_source_files(self.root, os.path.join("src", "service")):
            with open(path, encoding="utf-8") as f:
                code = strip_code(f.read(), keep_strings=False)
            futures = set(FUTURE_DECL_RE.findall(code))
            futures.update(GET_FUTURE_RE.findall(code))
            if not futures:
                continue
            wait_re = re.compile(
                r"\b(" + "|".join(re.escape(f) for f in futures) + r")\s*\.\s*(get|wait)\s*\(")
            # Brace-scope walk: a MutexLock declared at depth d guards until
            # the scope that contains it closes (depth drops below d).
            lock_depths = []
            event_re = re.compile(r"[{}]|" + MUTEX_LOCK_RE.pattern + "|" + wait_re.pattern)
            depth = 0
            for m in event_re.finditer(code):
                tok = m.group(0)
                if tok == "{":
                    depth += 1
                elif tok == "}":
                    depth -= 1
                    while lock_depths and lock_depths[-1] > depth:
                        lock_depths.pop()
                elif tok.startswith("MutexLock"):
                    lock_depths.append(depth)
                elif lock_depths:
                    name, op = m.group(1), m.group(2)
                    self.report(path, line_of(code, m.start()), "future-in-lock",
                                f"{name}.{op}() while a MutexLock is held — "
                                "waits on futures must run outside the lock "
                                "(build-outside-the-lock contract)")

    def run(self):
        self.check_fault_points()
        self.check_obs_naming()
        self.check_numerics_hygiene()
        self.check_naked_mutex()
        self.check_simd_confined()
        self.check_no_promise()
        self.check_one_pool()
        self.check_future_in_lock()
        return self.findings


def main(argv):
    root = os.path.abspath(argv[1]) if len(argv) > 1 else os.getcwd()
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"varmor-lint: no src/ under {root}", file=sys.stderr)
        return 2
    findings = Linter(root).run()
    for finding in findings:
        print(finding)
    if findings:
        print(f"varmor-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("varmor-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
