#!/usr/bin/env sh
# Local CI gate: build, full test suite, lints, formatting.
set -eu

cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== feature matrix: no-default-features / default / simd =="
# The `simd` feature is a pure throughput knob with a bit-identity contract;
# every configuration must build and pass the same suite.
cargo build --workspace --no-default-features
cargo test -q --workspace --no-default-features
cargo build --release --workspace --features simd
cargo test -q --workspace --features simd

echo "== perfbench: the benchmark's own arithmetic =="
# The bytes-to-verdict benchmark is its own Cargo workspace (perfbench/,
# path deps on crates/*), so `--workspace` does not reach its unit tests
# (host normalisation, medians/quartiles, metric output).
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test fault_injection =="
cargo test -p decamouflage-core --test fault_injection

echo "== cargo test telemetry =="
cargo test -p decamouflage-telemetry
cargo test -p decamouflage-core --test telemetry --test threads_warning

echo "== metrics smoke: scan --metrics-out round-trips the parser =="
cargo test --test cli -- stats_emits_a_parseable_prometheus_exposition \
    scan_metrics_out_round_trips_through_the_parser

echo "== bounded-memory smoke: scan --chunk-size 1 over 64 images matches eager =="
cargo test --test cli -- scan_chunk_size_one_matches_default_chunking
cargo test -p decamouflage-core --test stream_equivalence

echo "== shard smoke: sharded + resumed + merged scan is bit-identical to unsharded =="
# CLI end to end: a 64-image corpus scanned as 1 shard and as 3 shards (one
# killed mid-scan and --resume'd) must merge to byte-identical reports; plus
# the library-level property test over shard counts x kill points x chunk sizes.
cargo test --test cli -- sharded_resumed_merged_scan_matches_the_unsharded_report \
    resume_refuses_a_checkpoint_from_a_different_corpus \
    unknown_flags_are_rejected_by_every_command
cargo test -p decamouflage-core --test shard_merge_equivalence

echo "== service smoke: serve under mixed traffic + SIGTERM drain =="
# The real binary on an ephemeral port: concurrent valid/malformed/oversized
# requests, shed/4xx/5xx accounting asserted in /metrics, then SIGTERM and a
# clean drained exit inside the drain deadline. Parser fuzz + in-process
# server e2e ride along from the serve crate's own suite.
cargo test --test service_smoke
cargo test -p decamouflage-serve --test http_parser_props --test server_e2e

echo "== codec totality: hostile-input property suites + mixed-dir smoke =="
# The decoders are the trust boundary: truncations, bit flips, spliced
# garbage and magic-prefixed noise must return typed errors, never panic.
# The CLI smoke streams a mixed BMP/PNM/PNG/JPEG directory with corrupt
# files riding along — they quarantine their own slots, nothing crashes —
# and the container-equivalence test pins BMP-vs-PNG scores bit-identical.
cargo test -p decamouflage-imaging --test codec_props
cargo test --test codec_equivalence
cargo test --test cli -- scan_streams_a_mixed_format_directory_and_quarantines_the_corrupt_file

echo "== planar equivalence: golden engine scores + interleaved<->planar round-trips =="
# The planar-layout contract: engine ScoreVectors bit-identical to the
# interleaved seed fixture (tests/golden_scores_v1.txt), exact round-trip
# properties over from_interleaved/to_interleaved and from_planes/into_planes,
# and borrow-only luma. Runs inside `cargo test --workspace` too; pinned here
# so a fixture regression fails loudly under its own heading.
cargo test --test planar_equivalence
cargo test --release --test planar_equivalence --features simd

echo "== codec bench: decode-stage latency per format -> BENCH_codecs.json =="
# Streams a per-format synthetic corpus through DirectorySource and reads
# decam_engine_stage_seconds{stage="decode"}; doubles as an encode->decode
# smoke at corpus scale (non-zero exit on any decode failure).
cargo run --release -p decamouflage-bench --bin codecs -- 48 3 -o BENCH_codecs.json

echo "== codec latency gate: png/jpeg decode budgets from BENCH_codecs.json =="
# Regression gate over the numbers just written: budgets sit ~2x above the
# recorded planar baseline (png ~780 us, jpeg ~775 us at 128x128/48 images)
# so shared-runner noise passes but an accidental O(n) regression in the
# defilter/IDCT/plane-scatter path does not.
PNG_BUDGET_US=1500 JPEG_BUDGET_US=1500 awk '
    /"png"/  { if ($0 ~ /decode_us_per_image/) { split($0, a, /[:,]/); png  = a[3] } }
    /"jpeg"/ { if ($0 ~ /decode_us_per_image/) { split($0, a, /[:,]/); jpeg = a[3] } }
    END {
        png_budget  = ENVIRON["PNG_BUDGET_US"]  + 0
        jpeg_budget = ENVIRON["JPEG_BUDGET_US"] + 0
        if (png == "" || jpeg == "") { print "codec gate: missing png/jpeg entries in BENCH_codecs.json"; exit 1 }
        printf "png  %8.1f us/image (budget %d)\n", png,  png_budget
        printf "jpeg %8.1f us/image (budget %d)\n", jpeg, jpeg_budget
        bad = 0
        if (png  + 0 > png_budget)  { print "FAIL: png decode over budget";  bad = 1 }
        if (jpeg + 0 > jpeg_budget) { print "FAIL: jpeg decode over budget"; bad = 1 }
        exit bad
    }' BENCH_codecs.json

echo "== service load: overload contract + BENCH_service.json =="
# Storm an undersized server (2 handlers + queue 2) with 2x+ its capacity of
# mixed traffic: zero requests may stall past deadline+grace, the in-flight
# gauge must return to 0 after the drain, and the latency quantiles
# (p50/p99/p999) land in BENCH_service.json. Exit code is the verdict.
cargo run --release -p decamouflage-bench --bin loadgen -- -o BENCH_service.json

echo "== perf smoke: detector gates + SSIM stage share =="
# Best-of-N latency gates from the bench harness (engine < 1500 us/image,
# batch <= 1.05x, streaming <= 1.02x, telemetry <= 1.02x) in smoke mode, then
# the stage profiler asserting SSIM consumes < 50% of scoring wall-clock.
BENCH_SMOKE=1 cargo bench -p decamouflage-bench --bench detectors --features simd
cargo run --release -p decamouflage-bench --bin stage_profile --features simd

echo "== cargo clippy =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
