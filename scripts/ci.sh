#!/usr/bin/env bash
# The tier-1 gate, hermetically: offline warning-free build, lint and
# unsafe gates, every test suite once, and fleet and benchmark smokes
# (which must leave the benchmark's lock file as committed).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== build (release, offline, warnings are fatal) =="
build_log=$(mktemp)
trap 'rm -f "$build_log"' EXIT
# --workspace matters: with a root package, a bare `cargo build` skips
# every other member's binaries (uucs-server, uucs-client, ...).
cargo build --release --workspace 2>&1 | tee "$build_log"
if grep -q "^warning" "$build_log"; then
    echo "ci: cargo build emitted warnings (see above)" >&2
    exit 1
fi

echo "== clippy (deny warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "ci: clippy unavailable in this toolchain; skipping the lint gate" >&2
fi

echo "== unsafe gate (one foreign call: poll(2) in crates/server/src/netpoll.rs) =="
# Everything but the lint attributes themselves must live in netpoll.rs,
# and there it must be the single call site.
stray=$(grep -rn "unsafe" crates src --include=*.rs \
    | grep -v "^crates/server/src/netpoll.rs:" \
    | grep -vE '#!?\[(forbid|deny|allow)\(unsafe_code\)\]' || true)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "ci: \`unsafe\` outside crates/server/src/netpoll.rs" >&2
    exit 1
fi
if [ "$(grep -c "unsafe {" crates/server/src/netpoll.rs)" -ne 1 ]; then
    echo "ci: netpoll.rs must hold exactly one unsafe block" >&2
    exit 1
fi

echo "== one invariant checker (no suite restates a correctness contract) =="
# The contracts (exactly-once, horizons, committed prefix, rising epochs,
# same state on every node) and the one bounded wait live in
# crates/harness/src/invariants.rs; a suite that defines its own copy has
# grown a second, possibly weaker, implementation.
copies=$(grep -rnE "fn (assert_exactly_once|assert_same_model|wait_until)\b" \
    tests crates/*/tests --include=*.rs || true)
if [ -n "$copies" ]; then
    echo "$copies"
    echo "ci: hand-rolled contract check in a suite; use uucs_harness::invariants" >&2
    exit 1
fi

echo "== one model read path (no shard-count fork, one advice rule) =="
# Every MODEL, ADVICE and MODELDELTA reply is read through the server's
# one cross-shard view (ModelRead in crates/server/src/server.rs), and
# "the task's sketch when it holds an observation, else the resource
# aggregate" is uucs_modelsvc::advice_from. A handler that forks on the
# model's shard count, or a sketch choice made outside uucs-modelsvc,
# brings back a second read path.
forks=$( (grep -rnE "models\.count\(\)|\.advice_level\(" crates/server/src --include=*.rs
    grep -rnE "observed\(\) *(>|!=) *0" crates src --include=*.rs \
        | grep -v "^crates/modelsvc/") || true)
if [ -n "$forks" ]; then
    echo "$forks"
    echo "ci: a second model read path; read through ModelRead and uucs_modelsvc::advice_from" >&2
    exit 1
fi

echo "== state moves as text (one export/admit pair per store) =="
# A reshard, a snapshot backfill and a follower's apply all move a
# store's state as the journal payloads it holds: Journaled::export and
# Journaled::admit (crates/server/src/journal.rs). A per-family
# decode-and-rebuild migration, non-test replication code that decodes a
# WalEntry or builds one to ship, a keyed store (store.rs) that decodes
# whole entries, a registration rendered outside its store, or a second
# reader of a payload's key renders or reads that text again.
rebuilt=$( (grep -rnE "ShardFamily|fn extract\(|fn load_part\(|fn header_key\b" crates/server/src --include=*.rs
    grep -rn "client_payload(" crates src --include=*.rs | grep -v "^crates/server/src/store.rs:"
    awk -v f=crates/server/src/store.rs '/^#\[cfg\(test\)\]/ { exit }
        /WalEntry::|decoded\(/ && !/^[[:space:]]*\/\// { print f ":" FNR ": " $0 }' crates/server/src/store.rs
    find crates/cluster/src -name '*.rs' | sort | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /WalEntry/ { print f ":" FNR ": " $0 }' "$f"
    done) || true)
if [ -n "$rebuilt" ]; then
    echo "$rebuilt"
    echo "ci: state is decoded and rendered again on a move; export and admit journal payloads instead" >&2
    exit 1
fi

echo "== one store mode (every server store journals; no second reader of a journal) =="
# Every results, testcase and registry store journals, to files or to an
# in-memory disk (crates/server/src/storage.rs): a store that asks
# whether it is durable, a whole-file save, or a result store holding
# its records in a text field of its own is the unjournaled mode coming
# back. The results journal is read through ResultStore's own reader; an
# `import_wal` is a second one.
second_mode=$( (grep -rnE "\bis_durable\b|fn save\(|log: String" crates/server/src --include=*.rs
    grep -rn "import_wal" crates --include=*.rs) || true)
if [ -n "$second_mode" ]; then
    echo "$second_mode"
    echo "ci: an unjournaled store mode or a second journal reader is back; journal through StoreSet" >&2
    exit 1
fi

echo "== one durability path (every server acks through its group committer) =="
# Every UucsServer runs a GroupCommitter from construction, and every
# ack waits on its watermark; the daemons and the fleet journal at
# SyncPolicy::Never under it. An optional committer, or a per-append
# fsync in a binary's journal settings, is the inline mode coming back.
# `group_committer()` keeps its `Option` shape (always `Some`) because
# benchmark/src/layers.rs builds against it.
inline=$( (grep -rn "Option<Arc<GroupCommitter>>" crates --include=*.rs \
        | grep -vF "pub fn group_committer(&self) -> Option<Arc<GroupCommitter>> {"
    grep -rn "SyncPolicy::Always" crates/server/src/main.rs crates/cluster/src/bin crates/study/src/fleet.rs) || true)
if [ -n "$inline" ]; then
    echo "$inline"
    echo "ci: an inline-fsync durability mode is back; every ack redeems a commit ticket" >&2
    exit 1
fi

echo "== one storage engine (no switch picks the fsync shape, rotation deferral or the model fold) =="
# Every UucsServer runs the same engine: its GroupCommitter owns a
# two-thread disk-scheduler pool and picks each pass's shape itself (one
# dirty slot syncs on the commit thread, two or more go to the pool),
# turns deferred rotation sync on for the ticketed families as it
# starts, and every server folds what it appends into the model. A
# model-update switch, a late scheduler, a bool toggle for rotation
# deferral, or a caller of the two shims benchmark/src/layers.rs still
# builds against (`with_io_scheduler`, `StorageProfile::scheduler`) is a
# second engine coming back.
switch=$( (grep -rnE "without_model_updates|set_scheduler\(|\.scheduler\(\)" crates src tests examples --include=*.rs
    grep -rn "with_io_scheduler(" crates src tests examples --include=*.rs \
        | grep -vF "pub fn with_io_scheduler(self, _scheduler: Arc<DiskScheduler>) -> Self {"
    grep -rnE "set_deferred_rotation_sync\(([^)]*bool|true|false|!?[a-z_]+\))" crates src tests examples --include=*.rs) || true)
if [ -n "$switch" ]; then
    echo "$switch"
    echo "ci: a storage-engine switch is back; every server runs the committer's one engine" >&2
    exit 1
fi

echo "== bounded-memory startup (the library streams into the journal; a scan reads through one buffer) =="
# A fresh server seeds its library one testcase at a time through
# LibrarySource::seed (crates/server/src/library.rs), and a journal's
# open reads every segment through one bounded buffer (scan_dir in
# crates/wal/src/wal.rs). A LibrarySource method handing back the whole
# library, a daemon collecting it, or a scan reading a segment whole
# brings back a peak that grows with the library or the segment size.
# The checkpoint is still read whole: its visitor folds the full text.
whole=$( (awk '/^#\[cfg\(test\)\]/ { exit } /Vec<(uucs_testcase::)?Testcase>/ { print FILENAME ":" FNR ": " $0 }' \
        crates/server/src/library.rs
    grep -n "into_testcases" crates/server/src/main.rs crates/cluster/src/bin/clusterd.rs
    awk '/^fn scan_dir/ { on = 1 } on && /io\.read\(/ && !/decode_snapshot/ { print FILENAME ":" FNR ": " $0 }
        on && /^}/ { exit }' crates/wal/src/wal.rs) || true)
if [ -n "$whole" ]; then
    echo "$whole"
    echo "ci: a whole library or a whole segment is held at startup; stream it through LibrarySource::seed or scan_dir's buffer" >&2
    exit 1
fi

echo "== the text journals are their own checkpoint (no store writes one) =="
# A testcase, result or registry journal holds the store's text, so a
# checkpoint of it replays as much as the tail it replaces, and writing
# one builds that whole text in memory under the shard's lock. No store
# checkpoints: the comfort model is a cache of the results journal,
# written beside it (crates/server/src/models.rs), not a checkpoint of a
# journal of its own. A store-side `fn snapshot(&self` encoder on a text
# store, or a compaction of a text family in shard.rs, brings the
# periodic rewrite back. Their old checkpoints are still read (`restore`,
# and the reader's `Visitor::snapshot(&mut self, …)`).
rewrite=$( (awk -v f=crates/server/src/store.rs '/^#\[cfg\(test\)\]/ { exit }
        /fn snapshot\(&self/ && !/^[[:space:]]*\/\// { print f ":" FNR ": " $0 }' crates/server/src/store.rs
    grep -nE "compact_family\(&self\.(testcases|results|registry)\)" crates/server/src/shard.rs) || true)
if [ -n "$rewrite" ]; then
    echo "$rewrite"
    echo "ci: a text store is checkpointed again; its journal is its checkpoint" >&2
    exit 1
fi

echo "== the comfort model is a cache of the results journal (no model journal) =="
# The results journal is the one truth: each model shard folds its
# results shard under that shard's lock and is cached beside it. The
# cache is written by the group committer's pool, by a reshard's open,
# and by a daemon's catch-up on its main thread once it listens — never
# on a request thread, so no ack waits on it. A model journal entry, its tag
# or its delta text, a journaled model store, the counted-and-ignored
# model update error, the checkpoint bound of a model journal, or a
# cache write from the request path brings the fourth store back.
model_wal=$( (grep -rnE "WalEntry::Model\b|\bTAG_MODEL\b|impl Journaled for ModelStore|count_update_error|checkpoint_bound" \
        crates src tests examples --include=*.rs
    grep -rnE "\bModelDelta\b" crates src tests examples --include=*.rs \
        | grep -vE "(ServerMsg|ClientMsg)::ModelDelta\b" \
        | grep -vE "^crates/protocol/src/wire\.rs:[0-9]+:    ModelDelta \{$"
    grep -n "write_cache(" crates/server/src/server.rs crates/server/src/tcp.rs) || true)
if [ -n "$model_wal" ]; then
    echo "$model_wal"
    echo "ci: the model journal is back, or a request thread writes the model cache; fold the results and let the committer cache it" >&2
    exit 1
fi

echo "== one measurement harness (benchmark/ is the only place the system is timed) =="
# A second timing harness measures the same paths as benchmark/ with
# none of its samples, pairs or gates: a bench target directory, a
# [[bench]] table, the old runtime's knobs or its single-sample summary
# must not come back. The root's planning notes (every *.md beside
# Cargo.toml but the three docs) may name them as history.
second_harness='^\[\[bench\]\]|UUCS_BENCH[_]|BENCH[_]SUMMARY'
second=$( (find crates -path '*/benches' -type d
    git grep -nE "$second_harness" -- . ':!benchmark' ':(top,glob,exclude)*.md'
    git grep -nE "$second_harness" -- README.md DESIGN.md EXPERIMENTS.md) || true)
if [ -n "$second" ]; then
    echo "$second"
    echo "ci: a second timing harness is back; time it in benchmark/ instead" >&2
    exit 1
fi

echo "== flag census (parser arms == usage header, per binary) =="
# A flag added to or removed from a parser must move in that file's
# usage block too: the `"--flag" =>` arms and the ```text fence of the
# `//!` header must name the same set.
for src in crates/server/src/main.rs crates/cluster/src/bin/clusterd.rs crates/study/src/main.rs; do
    documented=$(sed -n '/^\/\/! ```text$/,/^\/\/! ```$/p' "$src" \
        | grep -oE -- '--[a-z][a-z-]*' | sort -u)
    parsed=$(grep -E '^[[:space:]]*"--[a-z-]+"([[:space:]]*\|[[:space:]]*"--[a-z-]+")*[[:space:]]*=>' "$src" \
        | grep -oE -- '--[a-z][a-z-]*' | sort -u)
    if [ -z "$parsed" ] || [ "$documented" != "$parsed" ]; then
        echo "ci: $src: parsed flags and documented flags differ (< usage header, > parser):" >&2
        diff <(echo "$documented") <(echo "$parsed") >&2 || true
        exit 1
    fi
done

# Each suite runs once: the named crates below, then the root package
# (every e2e suite under tests/), then whatever crates are left.
echo "== wal fault-injection suite (crash points x sync policies) =="
cargo test -q -p uucs-wal

echo "== pagecache suite (ARC ghost lists, cached-vs-plain equivalence, scheduler) =="
cargo test -q -p uucs-pagecache

echo "== wire crate (framing, negotiation, delta codec) =="
cargo test -q -p uucs-wire

echo "== model service crate (sketch properties, closed-loop governor) =="
cargo test -q -p uucs-modelsvc

echo "== cluster suite (WAL shipping, backfill edge cases, model derivation, promotion race) =="
cargo test -q -p uucs-cluster

echo "== root e2e suites (chaos, telemetry e2e, wire fuzz, wire e2e, modelsvc e2e, engine e2e, cluster e2e, determinism, proptests) =="
cargo test -q -p uucs

echo "== test (every other crate) =="
cargo test -q --workspace --exclude uucs --exclude uucs-wal --exclude uucs-pagecache \
    --exclude uucs-wire --exclude uucs-modelsvc --exclude uucs-cluster

# On one CPU the study's parallel phase and the server's shard open
# spawn nothing and run inline; pin the worker-count tests to one core
# so that path runs on any host.
if command -v taskset >/dev/null 2>&1; then
    echo "== study worker-count independence on one CPU (taskset -c 0) =="
    taskset -c 0 cargo test -q -p uucs-study --lib records_are_independent_of_the_worker_count
    echo "== shard-open worker-count independence on one CPU (taskset -c 0) =="
    taskset -c 0 cargo test -q -p uucs-server --lib recovered_state_is_independent_of_the_worker_count
fi

# The simulator claims, evicts and samples a bitmap word at a time; the
# page-at-a-time reference must agree on outcome, full manager state and
# the caller's generator after every step of 5000 random sequences, under
# both eviction policies (the suites above ran the default 64).
echo "== memory manager vs its buffered reference (5000 sequences, both eviction policies) =="
UUCS_PROPTEST_CASES=5000 cargo test -q --release -p uucs-sim touch_equals

# The result store holds no record text: its readers stream the
# journal. Through 2000 random runs of uploads, retransmits, compactions,
# reopens, reshards, torn tails and planned faults, every reader must
# read like the test's own reference: the records in upload order and
# each client's horizon.
echo "== result store reads like its reference (2000 cases) =="
UUCS_PROPTEST_CASES=2000 cargo test -q --release -p uucs-server --lib result_store_reads_like_its_reference

# A testcase store holds each testcase as its text block. Through 2000
# random runs of additions, duplicates, compactions, reopens, reshards,
# torn tails and planned faults, every reader of it must read like the
# struct store it replaced.
echo "== text testcase store reads like the struct store (2000 cases) =="
UUCS_PROPTEST_CASES=2000 cargo test -q --release -p uucs-server --lib text_testcase_store_reads_like_the_struct_store

# The registry holds each registration as its text block too. Through
# 2000 random runs of registrations (tokens repeating), admits of known
# and unknown ids, compactions, reopens, reshards 1 -> 3 -> 2, torn tails
# and planned faults, it must read like the struct registry it replaced.
echo "== text registry reads like the struct registry (2000 cases) =="
UUCS_PROPTEST_CASES=2000 cargo test -q --release -p uucs-server --lib text_registry_reads_like_the_struct_registry

# The comfort model is a cache of the results journal. Through random
# runs of uploads (legacy ones too) with the cache written at the bound,
# power losses, a torn, deleted and stale cache, a cache past the
# journal's end, a fault at every step of a cache write and reshards
# 8 -> 3 -> 1, eight model shards must read like the fold of the records
# the results hold — merged sketches, and the epoch one per held entry
# until a reshard carries it — no reopen over whole caches may fold
# more than the bound and one entry, and no catch-up may leave a cache
# behind that its open folded at least the size of.
echo "== a cached model reads like the fold of its records (2000 cases) =="
UUCS_PROPTEST_CASES=2000 cargo test -q --release -p uucs-server --lib a_cached_model_reads_like_the_fold_of_its_records

# An open checks every journal entry in one borrowed pass over its text.
# Each pass must give its reference's verdict, word for word, on 2000
# seeds of generated text and textfuzz damage: the results batch check
# that of the line-at-a-time block scanner it replaced, and the testcase
# store's check that of tcformat::parse.
echo "== one-pass replay checks equal their references (2000 cases each) =="
UUCS_PROPTEST_CASES=2000 cargo test -q --release -p uucs-protocol --lib one_pass_batch_check_equals_the_reference
UUCS_PROPTEST_CASES=2000 cargo test -q --release -p uucs-server --lib testcase_check_replays_like_parse

# controlled-study checks every repetition's rendered output against a
# pinned CRC: it is the byte-identity gate for the parallel study's
# phase ordering. restart-recovery re-REGISTERs every identity and
# counts every shard's records after each SIGKILL: "correct" there
# means every acked (client, seq) came back exactly once from the
# parallel one-pass open. quorum-ack is the only workload whose output
# check runs through the replication tier: every acked upload must be
# on the quorum follower too. hot-sync is the only one that drives SYNC
# over the real client transport, and its check wants every reply to
# hold a full batch of testcases. pipelined-ingest is the only one that
# sends pipelined binary uploads, so it is the one whose commit passes
# span several shards and fan out to the committer's pool (every server
# runs that pool and deferred rotation sync; the --io-threads flag the
# benchmark still passes is ignored).
for workload in ack-latency pipelined-ingest quorum-ack controlled-study restart-recovery hot-sync; do
    echo "== benchmark smoke ($workload, 2 s, outputs checked) =="
    smoke=$(benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    echo "$smoke"
    case "$smoke" in
        *'"correct": true'*) ;;
        *)
            echo "ci: benchmark smoke ($workload) reported incorrect outputs" >&2
            exit 1
            ;;
    esac
done

# The committed ledger: each root BENCH_<pr>.json is a `benchmark/run.sh
# --runs K` result file, and speed claims cite two of them through
# `run.sh --compare`. Every one must parse and compare cleanly with
# itself (which, for the newest, is the gate's point); nothing is run.
echo "== bench ledger (every BENCH_<pr>.json parses; --compare with itself exits 0) =="
ledger=$(find . -maxdepth 1 -name 'BENCH_*.json' | sort -V)
if [ -z "$ledger" ]; then
    echo "ci: no BENCH_<pr>.json at the repository root" >&2
    exit 1
fi
for entry in $ledger; do
    if ! verdicts=$(benchmark/run.sh --compare "$entry" "$entry"); then
        echo "$verdicts"
        echo "ci: $entry does not parse or does not compare cleanly with itself" >&2
        exit 1
    fi
    if ! grep -qE ' (ok|unresolved)$' <<<"$verdicts"; then
        echo "ci: $entry holds no end-to-end metric" >&2
        exit 1
    fi
done
echo "newest: $(tail -n 1 <<<"$ledger")"

# The benchmark is its own workspace with a committed lock file, and the
# driver runs it from a clean checkout: a crate added to the graph (or a
# hand edit) would make cargo rewrite that file on the first build.
if ! git diff --quiet -- benchmark/Cargo.lock BENCHMARK.json; then
    echo "ci: building the benchmark changed benchmark/Cargo.lock or BENCHMARK.json:" >&2
    git diff --stat -- benchmark/Cargo.lock BENCHMARK.json >&2
    exit 1
fi

echo "== fleet smoke (200 multiplexed clients vs a live sharded server) =="
cargo run -q --release -p uucs-study -- fleet --quick

echo "== cluster fleet smoke (2-node tier, leader killed mid-run, failover) =="
cargo run -q --release -p uucs-study -- fleet --cluster --quick

echo "== binary fleet smoke (wire v2, pipelined depth 8) =="
cargo run -q --release -p uucs-study -- fleet --quick --wire binary --pipeline 8

echo "ci: all gates passed"
