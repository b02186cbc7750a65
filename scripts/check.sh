#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test cycle.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no ad-hoc printing in library crates (use geoalign-obs)"
# Library layers must report through the obs layer, not stdout/stderr.
# Comment and doc-comment lines are tolerated; the CLI crate is the one
# place allowed to print.
if matches=$(grep -rnE '\b(println|eprintln)!' \
        crates/geoalign-core/src crates/geoalign-serve/src \
        | grep -vE ':[0-9]+:\s*(//|//!|///)'); then
    echo "error: println!/eprintln! in a library crate — route it through geoalign-obs:" >&2
    echo "$matches" >&2
    exit 1
fi

echo "==> no raw std::thread::spawn outside the execution layer"
# All parallelism flows through geoalign-exec (Executor / WorkerPool) so
# the process has one thread budget; geoalign-serve keeps its single
# reactor thread (spawned via thread::Builder in reactor.rs — nothing
# else in serve may create threads, and in particular never one per
# connection). std::thread::scope (used by the executor's tests and
# callers) is fine. The one other sanctioned thread is the profiler's
# sampler (geoalign-obs/src/profile.rs) — it must live outside the pool
# because it observes the pool, and it spawns via thread::Builder so it
# is named in profiles and thread dumps.
if matches=$(grep -rn 'thread::spawn' crates/*/src \
        | grep -v '^crates/geoalign-exec/src' \
        | grep -v '^crates/geoalign-serve/src/reactor.rs' \
        | grep -v '^crates/geoalign-obs/src/profile.rs' \
        | grep -vE ':[0-9]+:\s*(//|//!|///)'); then
    echo "error: raw thread::spawn outside geoalign-exec — use the Executor or WorkerPool:" >&2
    echo "$matches" >&2
    exit 1
fi

echo "==> no blocking socket idioms in the serve reactor path"
# The serve front end is a readiness reactor over O_NONBLOCK sockets:
# idle time is handled by poll timeouts and explicit deadlines, never by
# set_read_timeout-driven blocking reads. A set_read_timeout in src/
# means a blocking read crept back into the event path (tests may use it
# on their client sockets freely — in-file test modules are skipped;
# set_write_timeout stays legal for the reactor's synchronous shed write).
reactor_blocking=""
for f in crates/geoalign-serve/src/*.rs; do
    limit=$({ grep -nE '^(mod tests|#\[cfg\(test\)\])' "$f" || true; } | head -1 | cut -d: -f1)
    [ -z "$limit" ] && limit=0
    found=$(awk -v limit="$limit" -v file="$f" \
        '(limit == 0 || NR < limit) && /set_read_timeout/ && $0 !~ /^[[:space:]]*\/\// \
         { print file ":" NR ": " $0 }' "$f")
    if [ -n "$found" ]; then
        reactor_blocking="${reactor_blocking}${found}"$'\n'
    fi
done
if [ -n "$reactor_blocking" ]; then
    echo "error: set_read_timeout in geoalign-serve/src — the reactor owns all idle handling:" >&2
    echo "$reactor_blocking" >&2
    exit 1
fi

echo "==> no unbounded reads in the serve front end"
# Everything geoalign-serve reads off a socket must go through the
# budgeted head/body readers of http.rs: a bare read_line/read_to_end/
# read_to_string has no byte limit and reopens the slowloris/huge-head
# hole the hardening suite closes. (Tests and benches may read freely —
# the gate covers src/ only.)
if matches=$(grep -rnE '\b(read_line|read_to_end|read_to_string)\b' \
        crates/geoalign-serve/src \
        | grep -vE ':[0-9]+:\s*(//|//!|///)'); then
    echo "error: unbounded read in geoalign-serve — use the budgeted readers in http.rs:" >&2
    echo "$matches" >&2
    exit 1
fi

echo "==> warm serve requests cost O(request): no full-set fingerprints or unit scans"
# The serve paths key the prepared-crosswalk cache from the pipeline's
# memoized fingerprint and resolve unit names through each system's
# hashed UnitIndex (DESIGN.md §7). A fingerprint_references( or
# CrosswalkKey::new( call in serve src/ re-hashes every reference of the
# pair per request; a .position( in router.rs brings back the linear
# unit-name scan. In-file test modules are skipped.
o_request=""
for f in $(find crates/geoalign-serve/src -name '*.rs' | sort); do
    limit=$({ grep -nE '^(mod tests|#\[cfg\(test\)\])' "$f" || true; } | head -1 | cut -d: -f1)
    [ -z "$limit" ] && limit=0
    pattern='fingerprint_references\(|CrosswalkKey::new\('
    [ "$(basename "$f")" = router.rs ] && pattern="$pattern|\\.position\\("
    found=$(awk -v limit="$limit" -v file="$f" -v pat="$pattern" \
        '(limit == 0 || NR < limit) && $0 ~ pat && $0 !~ /^[[:space:]]*\/\// \
         { print file ":" NR ": " $0 }' "$f")
    if [ -n "$found" ]; then
        o_request="${o_request}${found}"$'\n'
    fi
done
if [ -n "$o_request" ]; then
    echo "error: per-request full fingerprint or unit-name scan in geoalign-serve — use" >&2
    echo "the memo (IntegrationPipeline::fingerprint) and UnitIndex::get:" >&2
    echo "$o_request" >&2
    exit 1
fi

echo "==> bulk request bodies decode typed: no JSON tree in their handlers"
# /crosswalk, /references, /ingest and /ingest/partial decode their bulk
# arrays with the typed decoders of json.rs (DESIGN.md §7); a tree parse
# in one of these handlers brings back a Json per number and per point.
# Function-scoped like the zero-allocation gate below; the test module,
# which keeps the tree handlers as the reference, is skipped.
limit=$({ grep -nE '^(mod tests|#\[cfg\(test\)\])' crates/geoalign-serve/src/router.rs || true; } \
    | head -1 | cut -d: -f1)
[ -z "$limit" ] && limit=0
tree_hits=""
for fn in post_crosswalk post_references post_ingest post_ingest_partial parse_ingest_batch; do
    found=$(awk -v fname="$fn" -v limit="$limit" -v file=crates/geoalign-serve/src/router.rs '
        (limit == 0 || NR < limit) && in_fn == 0 && $0 ~ ("fn " fname "[(<]") { in_fn = 1; seen = 1 }
        in_fn {
            if ($0 !~ /^[[:space:]]*\/\// && $0 ~ /parse_body\(|json::parse\(/)
                print file ":" NR ": " $0
            n = gsub(/\{/, "{"); m = gsub(/\}/, "}")
            depth += n - m
            if (depth > 0) opened = 1
            if (opened && depth <= 0) in_fn = 0
        }
        END { if (!seen) print file ": gated fn " fname " not found (update check.sh)" }
    ' crates/geoalign-serve/src/router.rs)
    if [ -n "$found" ]; then
        tree_hits="${tree_hits}${found}"$'\n'
    fi
done
if [ -n "$tree_hits" ]; then
    echo "error: tree parse in a bulk handler — use json::parse_crosswalk / json::parse_triples:" >&2
    echo "$tree_hits" >&2
    exit 1
fi

echo "==> ingest folds in O(batch): no whole-stream work in the in-place fold"
# A fold into an existing streaming reference previews only the cells the
# batch touches, patches the pipeline's reference at those cells and logs
# the batch's own partial (DESIGN.md §12). from_state( and finalize(
# re-round every cell of the stream, encode_agg_rollup( rewrites the whole
# rollup to the WAL, and .state.clone() copies the slot's state: each costs
# O(stream) per batch. Function-scoped like the typed-decode gate above;
# the test module, which keeps the whole-state fold as its reference, is
# skipped.
limit=$({ grep -nE '^(mod tests|#\[cfg\(test\)\])' crates/geoalign-serve/src/store.rs || true; } \
    | head -1 | cut -d: -f1)
[ -z "$limit" ] && limit=0
fold_hits=$(awk -v fname=fold_into_slot -v limit="$limit" -v file=crates/geoalign-serve/src/store.rs '
    (limit == 0 || NR < limit) && in_fn == 0 && $0 ~ ("fn " fname "[(<]") { in_fn = 1; seen = 1 }
    in_fn {
        if ($0 !~ /^[[:space:]]*\/\// && $0 ~ /from_state\(|finalize\(|encode_agg_rollup\(|\.state\.clone\(\)/)
            print file ":" NR ": " $0
        n = gsub(/\{/, "{"); m = gsub(/\}/, "}")
        depth += n - m
        if (depth > 0) opened = 1
        if (opened && depth <= 0) in_fn = 0
    }
    END { if (!seen) print file ": gated fn " fname " not found (update check.sh)" }
' crates/geoalign-serve/src/store.rs)
if [ -n "$fold_hits" ]; then
    echo "error: whole-stream work in the in-place ingest fold — preview the touched cells" >&2
    echo "(AggState::merged_cells) and patch the reference (with_dm_cells_set):" >&2
    echo "$fold_hits" >&2
    exit 1
fi

echo "==> apply sums each target in a register: no row-major scatter in the mixture"
# The serving mixture walks each reference's transpose and sums one
# target's estimate in a register (DESIGN.md §15). A walk over a
# matrix's row-major entries (.matrix().iter()) or an `estimate[…] +=`
# scatter in apply_values_into brings back the chain of dependent adds
# to shared targets. Function-scoped like the gates above; the test
# module, which keeps the row-major scatter as its reference, is skipped.
limit=$({ grep -nE '^(mod tests|#\[cfg\(test\)\])' crates/geoalign-core/src/prepare.rs || true; } \
    | head -1 | cut -d: -f1)
[ -z "$limit" ] && limit=0
scatter_hits=$(awk -v fname=apply_values_into -v limit="$limit" -v file=crates/geoalign-core/src/prepare.rs '
    (limit == 0 || NR < limit) && in_fn == 0 && $0 ~ ("fn " fname "[(<]") { in_fn = 1; seen = 1 }
    in_fn {
        if ($0 !~ /^[[:space:]]*\/\// && $0 ~ /\.matrix\(\)\.iter\(\)|estimate\[[^]]*\][[:space:]]*\+=/)
            print file ":" NR ": " $0
        n = gsub(/\{/, "{"); m = gsub(/\}/, "}")
        depth += n - m
        if (depth > 0) opened = 1
        if (opened && depth <= 0) in_fn = 0
    }
    END { if (!seen) print file ": gated fn " fname " not found (update check.sh)" }
' crates/geoalign-core/src/prepare.rs)
if [ -n "$scatter_hits" ]; then
    echo "error: row-major scatter in the serving mixture — sum each target over the" >&2
    echo "references' transposes (PreparedCrosswalk::transposes):" >&2
    echo "$scatter_hits" >&2
    exit 1
fi

echo "==> numbers print through the shortest-digit writer, not core::fmt"
# Json::Number and the direct /crosswalk encoder print every f64 through
# write_number, whose finite branch is the Ryū-based writer of
# json/shortest.rs (DESIGN.md §7). A write!/format!/to_string in one of
# these bodies brings back core::fmt's float path, about twice the cost
# per number. Function-scoped like the gates above.
fmt_hits=""
while read -r file fns; do
    for fn in $fns; do
        found=$(awk -v fname="$fn" -v file="$file" '
            in_fn == 0 && $0 ~ ("fn " fname "[(<]") { in_fn = 1; seen = 1 }
            in_fn {
                if ($0 !~ /^[[:space:]]*\/\// && $0 ~ /write!\(|format!\(|format_args!\(|to_string\(/)
                    print file ":" NR ": " $0
                n = gsub(/\{/, "{"); m = gsub(/\}/, "}")
                depth += n - m
                if (depth > 0) opened = 1
                if (opened && depth <= 0) in_fn = 0
            }
            END { if (!seen) print file ": gated fn " fname " not found (update check.sh)" }
        ' "$file")
        if [ -n "$found" ]; then
            fmt_hits="${fmt_hits}${found}"$'\n'
        fi
    done
done <<'EOF'
crates/geoalign-serve/src/json.rs write_number
crates/geoalign-serve/src/json/shortest.rs write_shortest d2d write_digits push_zeros
EOF
if [ -n "$fmt_hits" ]; then
    echo "error: number formatting through core::fmt — print with json/shortest.rs:" >&2
    echo "$fmt_hits" >&2
    exit 1
fi

echo "==> metric naming: geoalign_<crate>_<name>_<unit>"
# Every registered metric name is a literal "geoalign_..." string in a
# src/ file; hold them all to the §8 convention so a scrape stays
# self-describing. <crate> must be a workspace layer (demo/test/expo are
# the obs crate's own doc and test fixtures); <unit> is _total for
# counters, _micros for wall-time histograms, or a bare quantity noun
# for gauges/value histograms. Dynamically formatted names (the per-route
# SLO series) are covered by their format-string suffixes in slo.rs and
# its tests, not this literal scan.
bad_names=$(grep -rhoE '"geoalign_[a-z0-9_]+"' crates/*/src | sort -u \
    | grep -vE '^"geoalign_(demo|test|expo)_' \
    | grep -vE '^"geoalign_(core|partition|serve|store|agg|obs|exec|cluster)_[a-z0-9_]+_(total|micros|entries|candidates|points|bytes|size|iterations|connections|transitions)"$' \
    || true)
if [ -n "$bad_names" ]; then
    echo "error: metric name outside the geoalign_<crate>_<name>_<unit> convention:" >&2
    echo "$bad_names" >&2
    exit 1
fi

echo "==> cargo test -q -p geoalign-obs"
cargo test -q -p geoalign-obs

echo "==> /debug introspection suite (gate + live profile)"
# Proves /debug/* 404s without --debug-endpoints and that a live-server
# /debug/profile returns collapsed stacks naming the pipeline phases.
cargo test -q -p geoalign-serve --test debug_introspection

echo "==> serve hardening suite (hostile input, keep-alive, shedding)"
cargo test -q -p geoalign-serve --test http_hardening

echo "==> serve hardening under a starved thread budget (GEOALIGN_THREADS=2)"
# The reactor must hold every contract with two compute workers: idle
# connections cost no worker, so a tiny pool changes throughput, never
# lifecycle semantics (408s, shedding, drains, keep-alive).
GEOALIGN_THREADS=2 cargo test -q -p geoalign-serve --test http_hardening

echo "==> no unchecked I/O unwraps in geoalign-store"
# A persistence layer must surface every I/O failure as a StoreError the
# caller can handle; an unwrap() on a Result in src/ turns a full disk
# into a panic mid-request. Lock poisoning is the one tolerated use and
# is written as expect("... poisoned") to document itself.
store_unwraps=""
for f in crates/geoalign-store/src/*.rs; do
    # Only non-test code counts: stop at the `mod tests` line when present.
    # (grep exits 1 on no match; keep that from tripping set -o pipefail.)
    limit=$({ grep -n '^mod tests' "$f" || true; } | head -1 | cut -d: -f1)
    [ -z "$limit" ] && limit=0
    found=$(awk -v limit="$limit" -v file="$f" \
        '(limit == 0 || NR < limit) && /\.unwrap\(\)/ && $0 !~ /^[[:space:]]*\/\// \
         { print file ":" NR ": " $0 }' "$f")
    if [ -n "$found" ]; then
        store_unwraps="${store_unwraps}${found}"$'\n'
    fi
done
if [ -n "$store_unwraps" ]; then
    echo "error: unwrap() in geoalign-store/src — return a StoreError instead:" >&2
    echo "$store_unwraps" >&2
    exit 1
fi

echo "==> no unchecked unwraps in geoalign-agg"
# The aggregate-state crate feeds the serve ingest path: a malformed or
# truncated state must surface as an AggError, never a panic. Lock
# poisoning is the one tolerated use, written as expect("... poisoned").
agg_unwraps=""
for f in crates/geoalign-agg/src/*.rs; do
    limit=$({ grep -n '^mod tests' "$f" || true; } | head -1 | cut -d: -f1)
    [ -z "$limit" ] && limit=0
    found=$(awk -v limit="$limit" -v file="$f" \
        '(limit == 0 || NR < limit) && /\.unwrap\(\)/ && $0 !~ /^[[:space:]]*\/\// \
         { print file ":" NR ": " $0 }' "$f")
    if [ -n "$found" ]; then
        agg_unwraps="${agg_unwraps}${found}"$'\n'
    fi
done
if [ -n "$agg_unwraps" ]; then
    echo "error: unwrap() in geoalign-agg/src — return an AggError instead:" >&2
    echo "$agg_unwraps" >&2
    exit 1
fi

echo "==> no unchecked unwraps in geoalign-cluster"
# The cluster layer sits between processes: a dead shard, a torn
# transfer or a poisoned lock must become a 5xx or a retried pull, never
# a coordinator panic. Locks recover via unwrap_or_else(into_inner);
# fan-out joins re-raise worker panics via resume_unwind.
cluster_unwraps=""
for f in crates/geoalign-cluster/src/*.rs; do
    limit=$({ grep -n '^mod tests' "$f" || true; } | head -1 | cut -d: -f1)
    [ -z "$limit" ] && limit=0
    found=$(awk -v limit="$limit" -v file="$f" \
        '(limit == 0 || NR < limit) && /\.unwrap\(\)/ && $0 !~ /^[[:space:]]*\/\// \
         { print file ":" NR ": " $0 }' "$f")
    if [ -n "$found" ]; then
        cluster_unwraps="${cluster_unwraps}${found}"$'\n'
    fi
done
if [ -n "$cluster_unwraps" ]; then
    echo "error: unwrap() in geoalign-cluster/src — surface the failure to the caller:" >&2
    echo "$cluster_unwraps" >&2
    exit 1
fi

echo "==> aggregate-state algebra pass (GEOALIGN_THREADS=8)"
# Merge commutativity/associativity/split-invariance and codec roundtrips
# under an oversubscribed thread budget.
GEOALIGN_THREADS=8 cargo test -q -p geoalign-agg --test proptests

echo "==> store torture pass (GEOALIGN_THREADS=8)"
# WAL truncated at every byte offset + concurrent writers/checkpoints,
# under an oversubscribed thread budget.
GEOALIGN_THREADS=8 cargo test -q -p geoalign-store --test recovery_torture

echo "==> zero-allocation kernel cores (DESIGN.md §15)"
# The gated hot-path cores own no allocations: every buffer they touch
# comes in through &mut arguments or a scratch arena, so a steady-state
# iteration performs zero heap allocations. An allocation idiom
# (.clone() / .to_vec() / vec![) inside one of these bodies is a
# regression even if it compiles clean. Capacity-reusing copies
# (clone_from / copy_from / extend) stay legal.
alloc_hits=""
while read -r file fns; do
    for fn in $fns; do
        found=$(awk -v fname="$fn" -v file="$file" '
            in_fn == 0 && $0 ~ ("fn " fname "[(<]") { in_fn = 1; seen = 1 }
            in_fn {
                if ($0 !~ /^[[:space:]]*\/\// && $0 ~ /\.clone\(\)|\.to_vec\(|vec!\[/)
                    print file ":" NR ": " $0
                n = gsub(/\{/, "{"); m = gsub(/\}/, "}")
                depth += n - m
                if (depth > 0) opened = 1
                if (opened && depth <= 0) in_fn = 0
            }
            END { if (!seen) print file ": gated fn " fname " not found (update check.sh)" }
        ' "$file")
        if [ -n "$found" ]; then
            alloc_hits="${alloc_hits}${found}"$'\n'
        fi
    done
done <<'EOF'
crates/geoalign-linalg/src/dense.rs gram_with matvec_into tr_matvec_into householder_factor householder_apply_qt householder_solve_into
crates/geoalign-linalg/src/sparse.rs matvec_into
crates/geoalign-linalg/src/simplex_ls.rs fista_iterate active_set_iterate eq_constrained_ls_scratch project_to_simplex_into
crates/geoalign-linalg/src/nnls.rs nnls_iterate
crates/geoalign-core/src/prepare.rs apply_values_into
crates/geoalign-serve/src/json.rs write_number
crates/geoalign-serve/src/json/shortest.rs write_shortest d2d write_digits push_zeros
EOF
if [ -n "$alloc_hits" ]; then
    echo "error: allocation in a zero-alloc kernel core — route the buffer through the scratch arena:" >&2
    echo "$alloc_hits" >&2
    exit 1
fi

echo "==> kernel bit-identity pass (GEOALIGN_THREADS=8)"
# Old-vs-new kernel transliterations must agree bitwise at an
# oversubscribed thread budget too (proptest sweeps + solver fixtures).
GEOALIGN_THREADS=8 cargo test -q -p geoalign-linalg --test kernel_equivalence

echo "==> executor stress pass (GEOALIGN_THREADS=8)"
# Re-run the execution layer's tests with an oversubscribed thread budget
# (the env default is available parallelism); shakes out ordering bugs
# that a single-thread default would hide.
GEOALIGN_THREADS=8 cargo test -q -p geoalign-exec

echo "==> cluster scatter/gather + kill -9 failover pass (GEOALIGN_THREADS=8)"
# Three real shard processes with WAL-shipping standbys behind a
# coordinator must answer byte-identically to a single node, including
# after SIGKILL of a primary and promotion of its standby.
GEOALIGN_THREADS=8 cargo test -q -p geoalign-cli --test cluster

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> number writer against {} over 1e8 values (release)"
# The writer must print exactly what `{}` prints; perfbench's byte-identity
# gate cannot see a wrong digit, because its oracle runs the same writer.
# The tier-1 differential test covers 1M values; this one a hundred times
# as many, over the same classes (random bits, binade edges, subnormals,
# integers, short decimals, every binary exponent in -60..60, exact ties).
cargo test -q --release -p geoalign-serve --lib -- --ignored --exact \
    json::shortest::tests::writes_what_display_writes_long

echo "==> build the bench binaries (geoalign-bench)"
# `cargo build --release` above builds only the root package; the three
# smokes below run geoalign-bench bins, which would otherwise be missing
# or stale.
cargo build --release -p geoalign-bench

echo "==> ingest bench smoke (small universe)"
# Exercises the incremental-vs-full fold comparison end to end, including
# its bit-identity assertions; the committed BENCH_ingest.json baseline is
# regenerated separately at paper scale.
./target/release/ingest --small --out target/BENCH_ingest_smoke.json >/dev/null

echo "==> kernels bench smoke (small universe)"
# Runs the old-vs-new throughput comparison at the small scale, including
# its in-binary bit-identity assertions at 1/2/8 threads; the committed
# BENCH_kernels.json baseline is regenerated separately at paper scale.
./target/release/kernels --small --trials 1 --out target/BENCH_kernels_smoke.json >/dev/null

echo "==> cluster bench smoke (small universe)"
# Boots real in-process shard servers behind a coordinator and asserts
# 4-shard answers byte-identical to a single node before timing; the
# committed BENCH_cluster.json baseline is regenerated separately.
./target/release/cluster --small --out target/BENCH_cluster_smoke.json >/dev/null

echo "All checks passed."
