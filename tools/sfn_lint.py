#!/usr/bin/env python3
"""Project lint for smartfluidnet, wired as the `lint` ctest target.

Mechanically enforceable project rules (see DESIGN.md §9):

  R1 hot-path-alloc     No heap allocation or Tensor construction inside
                        `*_into(` function bodies under src/nn/ — the
                        steady-state inference path must reuse workspaces
                        (tests/conv_algo_test.cpp asserts the same at
                        runtime; this rule catches it at review time).
  R2 raw-getenv         All environment access goes through util::config
                        (env_str/env_int/env_choice). `std::getenv` is
                        allowed only in src/util/config.cpp.
  R3 unguarded-cast     `static_cast<int/long>` in src/fluid/ must carry a
                        `// sfn-lint: safe-cast` annotation proving the
                        operand was clamped/NaN-checked first — a raw
                        float->int cast of a NaN or out-of-range value is
                        undefined behaviour (DESIGN.md §6 records a real
                        crash from exactly this).
  R4 bench-json         Every bench/bench_*.cpp writes a machine-readable
                        BENCH_*.json artifact next to its stdout tables.
  R5 raw-stdout         Library code under src/ must not print to
                        stdout/stderr (std::cout/std::cerr/printf family):
                        diagnostics go through the obs metrics/trace layer
                        or are returned to the caller. util::Table::print
                        (src/util/table.cpp) is the one sanctioned console
                        sink; bench/, examples/ and tests/ are exempt.
  R6 pcg-in-runtime     src/runtime/ must not construct or name PcgSolver
                        outside the fallback policy (fallback.{hpp,cpp}).
                        The controller plans over surrogates; the one
                        sanctioned exact solver in the runtime layer is
                        runtime::FallbackPolicy's, so fallback counts,
                        quarantine decisions and timing attribution stay
                        consistent (DESIGN.md §11).
  R7 serve-isolation    src/serve/ must not name PcgSolver,
                        ModelSwitchController or FallbackPolicy. The
                        serving layer schedules sessions and coalesces
                        their inference; every piece of mutable runtime
                        state (controller, quarantine, fallback) is
                        per-session and constructed inside run_adaptive /
                        run_fixed — a serve-layer reference to any of them
                        would be one session's state reaching another
                        (DESIGN.md §12's isolation contract).
  R8 raw-intrinsics     Raw SIMD intrinsics (`_mm256_*`, `vld1q_*`, the
                        `__m256`/`float32x4_t` vector types) and their
                        headers (<immintrin.h>, <arm_neon.h>) live only
                        under src/nn/kernels/ and in the files of
                        INTRINSICS_FILES, today exactly the AVX2 advection
                        rows and PCG row passes
                        (src/fluid/advection_avx2.cpp, pcg_avx2.cpp).
                        Everything else targets the microkernel interface
                        or those files' private headers, so the
                        scalar-forced CI leg (SFN_FORCE_SCALAR_KERNELS) and
                        non-x86 ports only ever have to stub a known set of
                        files (DESIGN.md §13). A listed file must also keep
                        every intrinsic inside its
                        `#if defined(__x86_64__) &&
                        !defined(SFN_FORCE_SCALAR_KERNELS)` block, so that
                        its #else stub is what those builds compile.
  R9 raw-mutex          std::mutex, std::lock_guard, std::unique_lock,
                        std::scoped_lock, std::shared_lock and
                        std::condition_variable[_any] are forbidden
                        outside src/util/: all locking goes through the
                        annotated util::Mutex/CondVar/MutexLock wrappers
                        (src/util/annotations.hpp) so Clang's
                        -Wthread-safety analysis sees every acquisition
                        (DESIGN.md §14). When libclang's Python binding
                        and a compile_commands.json are available the
                        rule runs as an AST pass (qualified-name exact,
                        immune to comments/strings); otherwise it falls
                        back to the same regex machinery as R1-R8.
  R10 metric-name       Instruments are registered through the central
                        obs::counter/gauge/histogram[_labeled] helpers
                        with a *literal* dotted name matching
                        ^[a-z0-9]+(\.[a-z0-9_]+)+$ (e.g. serve.queue_wait,
                        runtime.fallback_latency). Computed names or
                        free-form literals at observe sites outside
                        src/obs/ would fracture the namespace the
                        exporter, /statz and the dashboards key on
                        (DESIGN.md §15).
  R11 scene-family-golden
                        Every scene family registered in
                        src/workload/scenes.cpp (parsed from its
                        to_string() switch) must have a golden-trajectory
                        fixture under tests/golden/ whose file name
                        contains the family name — new adversarial
                        workloads ship with their regression baseline or
                        not at all (DESIGN.md §17).
  R12 env-knob-docs     The SFN_* names passed as the first argument to
                        util::env_{int,double,str,choice} under src/,
                        bench/ and examples/ are exactly the names in
                        README's knob-table rows (| `SFN_...` |). A knob
                        read but not documented, or a row whose knob the
                        code no longer reads, is a finding — deletions must
                        take their README rows with them.
  R13 raw-omp-region    `#pragma omp parallel` under src/ only in
                        src/util/team.hpp (util::on_team/for_rows, whose
                        release/acquire pairs show ThreadSanitizer the
                        fork and join libgomp performs) and in the files of
                        RAW_OMP_ALLOWED, which still open plain OpenMP
                        regions: the relaxation and multigrid solvers, the
                        turbulence generator and the naive nn layers
                        (DESIGN.md §9, ROADMAP's TSan item). The list may
                        only shrink: a file leaves it when its loops move
                        onto the shared fork/join, and no file joins it.

Escape hatches are deliberate annotations, not config: append
`// sfn-lint: allow-alloc` (R1), `// sfn-lint: safe-cast` (R3),
`// sfn-lint: allow-print` (R5), `// sfn-lint: allow-pcg` (R6),
`// sfn-lint: allow-runtime-state` (R7), `// sfn-lint:
allow-intrinsics` (R8), `// sfn-lint: allow-raw-mutex` (R9) or
`// sfn-lint: allow-metric-name` (R10) to the offending line, with a
reason, and the rule skips it.

If clang-tidy is installed and the build dir has compile_commands.json,
the checks in .clang-tidy run too; otherwise that pass is skipped so the
lint target stays green on machines without clang-tidy.

Exit status: 0 when no findings, 1 otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys

FINDINGS: list[str] = []


def report(rule: str, path: pathlib.Path, line_no: int, message: str) -> None:
    FINDINGS.append(f"{path}:{line_no}: [{rule}] {message}")


def strip_line_comment(line: str) -> str:
    """Drop a trailing // comment (good enough: no string-literal parsing
    is needed for the patterns these rules match)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


# --------------------------------------------------------------------------
# R1: no allocation in *_into() bodies under src/nn/.

INTO_DEF_RE = re.compile(r"^\w[\w:<>,&*\s]*\b(\w+_into)\s*\(")
ALLOC_RES = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bnew\s*\("), "placement/operator new"),
    (re.compile(r"\bstd::make_unique\b|\bstd::make_shared\b"), "make_unique/make_shared"),
    (re.compile(r"\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("), "malloc-family call"),
    (re.compile(r"^\s*(?:std::)?vector\s*<"), "local std::vector construction"),
    (re.compile(r"^\s*(?:nn::)?Tensor\s+\w+\s*[({=;]"), "local Tensor construction"),
]


def into_function_bodies(text: str):
    """Yield (start_line_no, body_lines) for each *_into() definition.

    Brace counting starts at the definition line; declarations (ending in
    ';' before any '{') are skipped.
    """
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = INTO_DEF_RE.match(lines[i])
        if not m:
            i += 1
            continue
        # Find the opening brace (or a ';' => declaration, skip).
        j = i
        depth = 0
        opened = False
        body: list[tuple[int, str]] = []
        while j < len(lines):
            code = strip_line_comment(lines[j])
            if not opened and ";" in code and "{" not in code:
                break  # Declaration only.
            for ch in code:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if opened:
                body.append((j + 1, lines[j]))
            if opened and depth == 0:
                yield i + 1, body
                break
            j += 1
        i = j + 1


def rule_hot_path_alloc(root: pathlib.Path) -> None:
    for path in sorted((root / "src" / "nn").glob("*.cpp")):
        text = path.read_text(encoding="utf-8")
        for _, body in into_function_bodies(text):
            for line_no, raw in body:
                if "sfn-lint: allow-alloc" in raw:
                    continue
                code = strip_line_comment(raw)
                for pattern, what in ALLOC_RES:
                    if pattern.search(code):
                        report(
                            "hot-path-alloc", path.relative_to(root), line_no,
                            f"{what} inside a *_into() body; reuse the "
                            "Workspace (or annotate `// sfn-lint: "
                            "allow-alloc` with a reason)")


# --------------------------------------------------------------------------
# R2: std::getenv only in src/util/config.cpp.

GETENV_RE = re.compile(r"\bgetenv\s*\(")


def rule_raw_getenv(root: pathlib.Path) -> None:
    allowed = root / "src" / "util" / "config.cpp"
    for sub in ("src", "tests", "bench", "tools"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.[ch]pp")):
            if path == allowed:
                continue
            for line_no, raw in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                if GETENV_RE.search(strip_line_comment(raw)):
                    report(
                        "raw-getenv", path.relative_to(root), line_no,
                        "raw std::getenv; route through util::env_str/"
                        "env_int/env_choice (src/util/config.hpp)")


# --------------------------------------------------------------------------
# R3: float->int casts in src/fluid/ need the safe-cast annotation.

NARROWING_CAST_RE = re.compile(r"static_cast<\s*(?:int|long(?:\s+long)?)\s*>\s*\(")


def rule_unguarded_cast(root: pathlib.Path) -> None:
    for path in sorted((root / "src" / "fluid").rglob("*.[ch]pp")):
        for line_no, raw in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if "sfn-lint: safe-cast" in raw:
                continue
            if NARROWING_CAST_RE.search(strip_line_comment(raw)):
                report(
                    "unguarded-cast", path.relative_to(root), line_no,
                    "static_cast to int/long in src/fluid/ without "
                    "`// sfn-lint: safe-cast`; NaN/out-of-range float->int "
                    "is UB — clamp via fluid::floor_cell/clamp_coord first")


# --------------------------------------------------------------------------
# R4: every bench binary writes a BENCH_*.json artifact.

# Any string literal naming the artifact counts — bench_micro_kernels
# passes it inside a --benchmark_out= flag rather than bare.
BENCH_JSON_RE = re.compile(r'"[^"\n]*BENCH_\w+\.json[^"\n]*"')


def rule_bench_json(root: pathlib.Path) -> None:
    for path in sorted((root / "bench").glob("bench_*.cpp")):
        if not BENCH_JSON_RE.search(path.read_text(encoding="utf-8")):
            report(
                "bench-json", path.relative_to(root), 1,
                "bench binary never writes a BENCH_*.json artifact; call "
                "bench::write_json(\"BENCH_<name>.json\", ...) after "
                "printing tables")


# --------------------------------------------------------------------------
# R5: no raw stdout/stderr writes in library code under src/.

# std::cout / std::cerr streams, and the printf family called as a free
# function (printf/fprintf/vprintf/vfprintf, optionally std::-qualified).
# snprintf/vsnprintf format into buffers, not the console, and stay legal.
RAW_STDOUT_RE = re.compile(
    r"std::cout\b|std::cerr\b|(?<![\w:])(?:std::)?v?f?printf\s*\(")


def rule_raw_stdout(root: pathlib.Path) -> None:
    allowed = root / "src" / "util" / "table.cpp"
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        if path == allowed:
            continue
        for line_no, raw in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if "sfn-lint: allow-print" in raw:
                continue
            if RAW_STDOUT_RE.search(strip_line_comment(raw)):
                report(
                    "raw-stdout", path.relative_to(root), line_no,
                    "raw console write in library code; record through "
                    "obs metrics/tracing or return data to the caller "
                    "(or annotate `// sfn-lint: allow-print` with a "
                    "reason)")


# --------------------------------------------------------------------------
# R6: PcgSolver stays out of src/runtime/ except the fallback policy.

PCG_RE = re.compile(r"\bPcgSolver\b")


def rule_pcg_in_runtime(root: pathlib.Path) -> None:
    allowed = {"fallback.hpp", "fallback.cpp"}
    for path in sorted((root / "src" / "runtime").rglob("*.[ch]pp")):
        if path.name in allowed:
            continue
        for line_no, raw in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if "sfn-lint: allow-pcg" in raw:
                continue
            if PCG_RE.search(strip_line_comment(raw)):
                report(
                    "pcg-in-runtime", path.relative_to(root), line_no,
                    "PcgSolver referenced in src/runtime/ outside the "
                    "fallback policy; route exact solves through "
                    "runtime::FallbackPolicy::exact_solver() (or annotate "
                    "`// sfn-lint: allow-pcg` with a reason)")


# --------------------------------------------------------------------------
# R7: the serving layer never touches per-session runtime state.

SERVE_ISOLATION_RE = re.compile(
    r"\bPcgSolver\b|\bModelSwitchController\b|\bFallbackPolicy\b")


def rule_serve_isolation(root: pathlib.Path) -> None:
    serve = root / "src" / "serve"
    if not serve.is_dir():
        return
    for path in sorted(serve.rglob("*.[ch]pp")):
        for line_no, raw in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if "sfn-lint: allow-runtime-state" in raw:
                continue
            if SERVE_ISOLATION_RE.search(strip_line_comment(raw)):
                report(
                    "serve-isolation", path.relative_to(root), line_no,
                    "serve layer references per-session runtime state "
                    "(PcgSolver/ModelSwitchController/FallbackPolicy); "
                    "sessions own their controller, quarantine and exact "
                    "solver — the server only schedules and batches (or "
                    "annotate `// sfn-lint: allow-runtime-state` with a "
                    "reason)")


# --------------------------------------------------------------------------
# R8: raw SIMD intrinsics only under src/nn/kernels/ and in INTRINSICS_FILES.

# x86: _mm/_mm256/_mm512 calls and __m128/__m256/__m512 vector types.
# NEON: v<op>[q]_<lane-type> intrinsic calls (vld1q_f32, vfmaq_n_f32, ...)
# and the <elem>x<lanes>_t vector types (float32x4_t, int8x16_t, ...).
INTRINSICS_RE = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m\d{3}[di]?\b"
    r"|\bv\w+q?_[fsupn]?(?:8|16|32|64)\w*\s*\("
    r"|\b(?:float|u?int|poly)(?:8|16|32|64)x\d+(?:x\d+)?_t\b")
INTRINSIC_HEADER_RE = re.compile(
    r'#\s*include\s*[<"](?:\w*intrin|arm_neon|arm_sve)\.h[>"]')


# SIMD translation units outside src/nn/kernels/, relative to the root.
# Each compiles its intrinsics only under ISA_GUARD_RE's #if and a stub in
# the #else, which is what the scalar-forced leg and ports build.
INTRINSICS_FILES = frozenset({
    "src/fluid/advection_avx2.cpp",
    "src/fluid/pcg_avx2.cpp",
})
PP_IF_RE = re.compile(r"^\s*#\s*if(?:n?def)?\b(.*)")
PP_ELSE_RE = re.compile(r"^\s*#\s*(?:else|elif)\b")
PP_ENDIF_RE = re.compile(r"^\s*#\s*endif\b")
ISA_GUARD_RE = re.compile(
    r"defined\s*\(?\s*__x86_64__\s*\)?\s*&&\s*"
    r"!\s*defined\s*\(?\s*SFN_FORCE_SCALAR_KERNELS\s*\)?")


def is_intrinsic_line(code: str) -> bool:
    return bool(INTRINSICS_RE.search(code) or INTRINSIC_HEADER_RE.search(code))


def unguarded_intrinsic_lines(text: str):
    """Yield the line numbers of intrinsics outside the ISA guard's #if
    branch (its #else/#elif branches are the stub and do not count)."""
    guards: list[bool] = []  # One entry per open #if: inside the guard?
    for line_no, raw in enumerate(text.splitlines(), 1):
        m = PP_IF_RE.match(raw)
        if m:
            guards.append(bool(ISA_GUARD_RE.search(m.group(1))))
            continue
        if PP_ELSE_RE.match(raw):
            if guards:
                guards[-1] = False
            continue
        if PP_ENDIF_RE.match(raw):
            if guards:
                guards.pop()
            continue
        if any(guards) or "sfn-lint: allow-intrinsics" in raw:
            continue
        if is_intrinsic_line(strip_line_comment(raw)):
            yield line_no


def rule_raw_intrinsics(root: pathlib.Path) -> None:
    kernels_dir = root / "src" / "nn" / "kernels"
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.[ch]pp")):
            if kernels_dir in path.parents:
                continue
            text = path.read_text(encoding="utf-8")
            if path.relative_to(root).as_posix() in INTRINSICS_FILES:
                for line_no in unguarded_intrinsic_lines(text):
                    report(
                        "raw-intrinsics", path.relative_to(root), line_no,
                        "intrinsic outside the `#if defined(__x86_64__) && "
                        "!defined(SFN_FORCE_SCALAR_KERNELS)` block; the "
                        "scalar-forced leg and ports compile this file's "
                        "#else stub, so every intrinsic belongs inside")
                continue
            for line_no, raw in enumerate(text.splitlines(), 1):
                if "sfn-lint: allow-intrinsics" in raw:
                    continue
                if is_intrinsic_line(strip_line_comment(raw)):
                    report(
                        "raw-intrinsics", path.relative_to(root), line_no,
                        "raw SIMD intrinsic outside src/nn/kernels/ and "
                        "INTRINSICS_FILES; go through the microkernel "
                        "interface (nn/kernels/microkernel.hpp), the "
                        "advection rows (fluid/advection_avx2.hpp) or the "
                        "PCG row passes (fluid/pcg_avx2.hpp) so "
                        "scalar/non-x86 builds stay buildable (or annotate "
                        "`// sfn-lint: allow-intrinsics` with a reason)")


# --------------------------------------------------------------------------
# R9: raw std synchronisation primitives only under src/util/.
#
# Two implementations. The preferred one parses each TU with libclang and
# resolves *qualified* names, so `std::mutex` hits while a hypothetical
# `sfn::fake::mutex` or the word "mutex" in a comment does not, and
# hits inside headers are attributed to the header line. When the
# binding or the compilation database is missing the regex fallback runs
# — same rule, coarser matcher.

RAW_MUTEX_NAMES = frozenset({
    "std::mutex", "std::recursive_mutex", "std::timed_mutex",
    "std::recursive_timed_mutex", "std::shared_mutex",
    "std::shared_timed_mutex", "std::lock_guard", "std::unique_lock",
    "std::scoped_lock", "std::shared_lock", "std::condition_variable",
    "std::condition_variable_any",
})

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|shared_|recursive_timed_|shared_timed_)?"
    r"mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b")

RAW_MUTEX_MSG = (
    "raw std synchronisation primitive outside src/util/; use the "
    "annotated util::Mutex/CondVar/MutexLock wrappers "
    "(src/util/annotations.hpp) so -Wthread-safety sees the acquisition "
    "(or annotate `// sfn-lint: allow-raw-mutex` with a reason)")


def _raw_mutex_scope(root: pathlib.Path, path: pathlib.Path) -> bool:
    """True when `path` is inside the rule's scope (R9 exempts src/util/,
    where the wrappers themselves live)."""
    util_dir = root / "src" / "util"
    if path == util_dir or util_dir in path.parents:
        return False
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if path == base or base in path.parents:
            return True
    return False


def rule_raw_mutex_regex(root: pathlib.Path) -> None:
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.[ch]pp")):
            if not _raw_mutex_scope(root, path):
                continue
            for line_no, raw in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                if "sfn-lint: allow-raw-mutex" in raw:
                    continue
                if RAW_MUTEX_RE.search(strip_line_comment(raw)):
                    report("raw-mutex", path.relative_to(root), line_no,
                           RAW_MUTEX_MSG)


def _qualified_name(cursor) -> str:
    """Fully qualified name of a libclang cursor (namespaces only —
    template arguments are deliberately dropped so std::unique_lock<T>
    matches for every T)."""
    parts: list[str] = []
    node = cursor
    while node is not None and node.spelling:
        kind = node.kind.name
        if kind == "TRANSLATION_UNIT":
            break
        if kind in ("NAMESPACE", "CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE",
                    "CLASS_TEMPLATE_PARTIAL_SPECIALIZATION", "TYPEDEF_DECL",
                    "TYPE_ALIAS_DECL"):
            parts.append(node.spelling)
        node = node.semantic_parent
    return "::".join(reversed(parts))


def rule_raw_mutex_ast(root: pathlib.Path,
                       build_dir: pathlib.Path | None) -> bool:
    """AST implementation of R9. Returns False (caller falls back to the
    regex pass) when libclang or the compilation database is missing or
    parsing fails; partial results are discarded in that case."""
    try:
        from clang import cindex  # noqa: PLC0415 — optional dependency.
    except ImportError:
        return False

    db_dir = None
    for candidate in (build_dir, root):
        if candidate and (candidate / "compile_commands.json").exists():
            db_dir = candidate
            break
    if db_dir is None:
        return False

    try:
        db = cindex.CompilationDatabase.fromDirectory(str(db_dir))
        index = cindex.Index.create()
    except cindex.LibclangError:
        return False

    # Cursor kinds that can *name* a type or declaration at a use site.
    ref_kinds = {
        cindex.CursorKind.TYPE_REF,
        cindex.CursorKind.TEMPLATE_REF,
        cindex.CursorKind.DECL_REF_EXPR,
        cindex.CursorKind.VAR_DECL,
        cindex.CursorKind.FIELD_DECL,
    }

    hits: set[tuple[pathlib.Path, int]] = set()
    line_cache: dict[pathlib.Path, list[str]] = {}

    def source_line(path: pathlib.Path, line_no: int) -> str:
        if path not in line_cache:
            try:
                line_cache[path] = path.read_text(
                    encoding="utf-8", errors="replace").splitlines()
            except OSError:
                line_cache[path] = []
        lines = line_cache[path]
        return lines[line_no - 1] if 0 < line_no <= len(lines) else ""

    def referenced_name(cursor) -> str:
        ref = cursor.referenced
        if ref is None and cursor.kind in (cindex.CursorKind.VAR_DECL,
                                           cindex.CursorKind.FIELD_DECL):
            ref = cursor.type.get_declaration()
        return _qualified_name(ref) if ref is not None else ""

    def visit(cursor) -> None:
        for child in cursor.get_children():
            loc = child.location
            if loc.file is not None:
                path = pathlib.Path(loc.file.name).resolve()
                if _raw_mutex_scope(root, path):
                    if (child.kind in ref_kinds
                            and referenced_name(child) in RAW_MUTEX_NAMES
                            and "sfn-lint: allow-raw-mutex"
                            not in source_line(path, loc.line)):
                        hits.add((path, loc.line))
                    visit(child)  # Recurse only into our own files.

    tus = sorted(str(p) for p in (root / "src").rglob("*.cpp"))
    tus += sorted(str(p) for p in (root / "tests").glob("*.cpp"))
    parsed = 0
    for tu_path in tus:
        commands = db.getCompileCommands(tu_path)
        if not commands:
            continue
        # Drop the compiler argv0 and the input file; keep the flags.
        args = [a for a in list(commands[0].arguments)[1:]
                if a != tu_path and not a.startswith(("-o", "-c"))]
        try:
            tu = index.parse(tu_path, args=args)
        except cindex.TranslationUnitLoadError:
            continue
        if any(d.severity >= cindex.Diagnostic.Fatal for d in tu.diagnostics):
            continue  # Headers unresolved; regex fallback still covers it.
        visit(tu.cursor)
        parsed += 1

    if parsed == 0:
        return False
    for path, line_no in sorted(hits):
        report("raw-mutex", path.relative_to(root), line_no, RAW_MUTEX_MSG)
    return True


def rule_raw_mutex(root: pathlib.Path, build_dir: pathlib.Path | None) -> str:
    try:
        if rule_raw_mutex_ast(root, build_dir):
            return "AST (libclang)"
    except Exception as err:  # noqa: BLE001 — any binding breakage
        sys.stderr.write(f"sfn_lint: libclang pass failed ({err}); "
                         "falling back to regex\n")
    rule_raw_mutex_regex(root)
    return "regex fallback"


# --------------------------------------------------------------------------
# R10: instrument names are literal, dotted, and registered through the
# central helpers. src/obs/ itself is exempt (the helpers and renderers
# live there and legitimately pass computed names around).

METRIC_CALL_RE = re.compile(
    r"\bobs::(?:counter|gauge|histogram)(?:_labeled)?\s*\(\s*([^,)]*)")
METRIC_NAME_RE = re.compile(r"^[a-z0-9]+(\.[a-z0-9_]+)+$")
METRIC_LITERAL_RE = re.compile(r'^"([^"]*)"\s*$')


def rule_metric_name(root: pathlib.Path) -> None:
    obs_dir = root / "src" / "obs"
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.[ch]pp")):
            if path == obs_dir or obs_dir in path.parents:
                continue
            for line_no, raw in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                if "sfn-lint: allow-metric-name" in raw:
                    continue
                for match in METRIC_CALL_RE.finditer(
                        strip_line_comment(raw)):
                    arg = match.group(1).strip()
                    literal = METRIC_LITERAL_RE.match(arg)
                    if literal is None:
                        report(
                            "metric-name", path.relative_to(root), line_no,
                            f"instrument name is not a string literal "
                            f"({arg!r:.60}); registry names are literal so "
                            "the exporter/dashboard namespace is greppable "
                            "(or annotate `// sfn-lint: allow-metric-name` "
                            "with a reason)")
                    elif not METRIC_NAME_RE.match(literal.group(1)):
                        report(
                            "metric-name", path.relative_to(root), line_no,
                            f"instrument name '{literal.group(1)}' does not "
                            "match ^[a-z0-9]+(\\.[a-z0-9_]+)+$ "
                            "(dotted lowercase, e.g. serve.queue_wait)")


# R11: every scene family registered in src/workload/scenes.cpp must be
# pinned by a golden-trajectory fixture under tests/golden/ whose file
# name embeds the family name. A family without a golden baseline has no
# regression net over its dedicated fluid capabilities (inflow faces,
# per-step re-rasterisation), which is exactly where silent numerical
# drift would hide.

SCENE_FAMILY_NAME_RE = re.compile(
    r'case\s+SceneFamily::k\w+\s*:\s*return\s+"([a-z0-9_]+)"')


def rule_scene_family_golden(root: pathlib.Path) -> None:
    scenes = root / "src" / "workload" / "scenes.cpp"
    if not scenes.is_file():
        return
    names = SCENE_FAMILY_NAME_RE.findall(
        scenes.read_text(encoding="utf-8"))
    names = [n for n in names if n != "unknown"]
    if not names:
        report("scene-family-golden", scenes.relative_to(root), 1,
               "no SceneFamily name registrations parsed from to_string() "
               "— the rule's regex and the code have drifted apart")
        return
    golden_dir = root / "tests" / "golden"
    fixtures = [p.name for p in golden_dir.glob("*.json")] \
        if golden_dir.is_dir() else []
    for name in names:
        if not any(name in fixture for fixture in fixtures):
            report(
                "scene-family-golden", scenes.relative_to(root), 1,
                f"scene family '{name}' has no golden fixture under "
                "tests/golden/ (add a canonical case to "
                "tests/serve_test_support.hpp and regenerate with "
                "`golden_test --update-golden`)")


# R12: the SFN_* knobs the code reads are exactly the knobs README
# documents. The literal may follow a line break after the call's
# parenthesis.

ENV_READ_RE = re.compile(
    r'\butil::env_(?:int|double|str|choice)\s*\(\s*"(SFN_[A-Z0-9_]+)"')
README_KNOB_RE = re.compile(r"^\|\s*`(SFN_[A-Z0-9_]+)`\s*\|", re.MULTILINE)


def rule_env_knob_docs(root: pathlib.Path) -> None:
    read: dict[str, tuple[pathlib.Path, int]] = {}
    for sub in ("src", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.[ch]pp")):
            code = "\n".join(
                strip_line_comment(line)
                for line in path.read_text(encoding="utf-8").splitlines())
            for match in ENV_READ_RE.finditer(code):
                line_no = code.count("\n", 0, match.start(1)) + 1
                read.setdefault(match.group(1),
                                (path.relative_to(root), line_no))
    readme = root / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.is_file() else ""
    documented: dict[str, int] = {}
    for match in README_KNOB_RE.finditer(text):
        documented.setdefault(match.group(1),
                              text.count("\n", 0, match.start()) + 1)
    for name, (path, line_no) in sorted(read.items()):
        if name not in documented:
            report("env-knob-docs", path, line_no,
                   f"{name} is read here but README's knob tables have no "
                   "row for it")
    for name, line_no in sorted(documented.items()):
        if name not in read:
            report("env-knob-docs", pathlib.Path("README.md"), line_no,
                   f"README documents {name}, but no util::env_* call "
                   "under src/, bench/ or examples/ reads it")


# R13: OpenMP teams open through util::on_team / util::for_rows. Paths are
# relative to src/. This list may only shrink.

RAW_OMP_ALLOWED = frozenset({
    "fluid/multigrid.cpp",
    "fluid/relaxation.cpp",
    "workload/turbulence.cpp",
    "nn/conv2d.cpp",
})
RAW_OMP_RE = re.compile(r"^\s*#\s*pragma\s+omp\s+parallel\b")


def rule_raw_omp_region(root: pathlib.Path) -> None:
    src = root / "src"
    for path in sorted(src.rglob("*.[ch]pp")):
        rel = path.relative_to(src).as_posix()
        if rel == "util/team.hpp" or rel in RAW_OMP_ALLOWED:
            continue
        for line_no, raw in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if RAW_OMP_RE.search(raw):
                report(
                    "raw-omp-region", path.relative_to(root), line_no,
                    "raw OpenMP region: run the loop through "
                    "util::for_rows or util::on_team (src/util/team.hpp), "
                    "whose fork/join ThreadSanitizer can see")


# --------------------------------------------------------------------------
# Optional clang-tidy pass (skipped when unavailable).

def run_clang_tidy(root: pathlib.Path, build_dir: pathlib.Path | None) -> str:
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        return "skipped (clang-tidy not installed)"
    # The build tree exports compile_commands.json and CMake mirrors it
    # into the source root (top-level CMakeLists); accept either.
    for candidate in (build_dir, root):
        if candidate and (candidate / "compile_commands.json").exists():
            build_dir = candidate
            break
    else:
        return "skipped (no compile_commands.json; configure with CMake first)"
    sources = sorted(str(p) for p in (root / "src").rglob("*.cpp"))
    proc = subprocess.run(
        [tidy, "-p", str(build_dir), "--quiet", *sources],
        capture_output=True, text=True, check=False)
    hit = False
    for line in proc.stdout.splitlines():
        if ": warning:" in line or ": error:" in line:
            FINDINGS.append(f"[clang-tidy] {line}")
            hit = True
    if proc.returncode != 0 and not hit:
        # Tooling failure (bad flags, missing headers), not code findings.
        sys.stderr.write(proc.stderr)
        FINDINGS.append(f"[clang-tidy] exited {proc.returncode} "
                        "without reporting findings — tooling failure")
    return f"ran over {len(sources)} files"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--build-dir", type=pathlib.Path, default=None,
                        help="build tree holding compile_commands.json "
                             "(enables the clang-tidy pass)")
    parser.add_argument("--no-clang-tidy", action="store_true",
                        help="skip the clang-tidy pass even if available")
    args = parser.parse_args()
    root = args.root.resolve()

    rule_hot_path_alloc(root)
    rule_raw_getenv(root)
    rule_unguarded_cast(root)
    rule_bench_json(root)
    rule_raw_stdout(root)
    rule_pcg_in_runtime(root)
    rule_serve_isolation(root)
    rule_raw_intrinsics(root)
    rule_metric_name(root)
    rule_scene_family_golden(root)
    rule_env_knob_docs(root)
    rule_raw_omp_region(root)
    mutex_mode = rule_raw_mutex(root, args.build_dir)
    if args.no_clang_tidy:
        tidy_status = "skipped (--no-clang-tidy)"
    else:
        tidy_status = run_clang_tidy(root, args.build_dir)

    print(f"sfn_lint: project rules checked (raw-mutex via {mutex_mode}), "
          f"clang-tidy {tidy_status}")
    if FINDINGS:
        print(f"sfn_lint: {len(FINDINGS)} finding(s):")
        for finding in FINDINGS:
            print(f"  {finding}")
        return 1
    print("sfn_lint: 0 findings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
