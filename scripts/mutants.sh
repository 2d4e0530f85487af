#!/usr/bin/env bash
# Mutant tier: each exactness argument in DESIGN.md ships with
# deliberately broken copies of its code, and the differential test that
# guards the argument must reject every one of them.
#
# A mutant is a sed expression on one source file plus the `cargo test`
# arguments that must then fail. The script checks out the committed HEAD
# in one detached `git worktree` under a temp dir, applies each mutant in
# turn (resetting the tree between them, so only the mutated crates
# rebuild), and fails when:
#
# - an expression no longer changes its file (the code moved: update the
#   mutant);
# - a mutant does not compile (it would be "killed" for the wrong reason);
# - a mutant survives, i.e. its tests pass (a test is missing: add it,
#   never delete the mutant).
#
# Every mutant is a rebuild, so this tier is not part of Tier-1; run it
# with `scripts/verify.sh --mutants` or directly.
#
# Usage: scripts/mutants.sh

set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d /tmp/dnasim-mutants.XXXXXX)
tree="$tmp/tree"
cleanup() {
    git worktree remove --force "$tree" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add -q --detach "$tree" HEAD

survivors=0

# mutant NAME FILE SED-EXPRESSION CARGO-TEST-ARGS...
mutant() {
    local name=$1 file=$2 expr=$3
    shift 3
    git -C "$tree" checkout -q -- .
    sed -i "$expr" "$tree/$file"
    if git -C "$tree" diff --quiet; then
        echo "ERROR: mutant '$name' no longer changes $file" >&2
        exit 1
    fi
    if ! (cd "$tree" && CARGO_NET_OFFLINE=true cargo test -q --no-run "$@" >"$tmp/build.log" 2>&1); then
        cat "$tmp/build.log" >&2
        echo "ERROR: mutant '$name' does not compile" >&2
        exit 1
    fi
    if (cd "$tree" && CARGO_NET_OFFLINE=true cargo test -q "$@" >"$tmp/test.log" 2>&1); then
        echo "SURVIVED: $name (cargo test $*)" >&2
        survivors=$((survivors + 1))
    else
        echo "killed: $name"
    fi
}

# DESIGN.md §17: the bit-vector edit-script traceback.
mutant "drop the row-0 +1 carry-in" crates/metrics/src/myers.rs \
    '0,/let mut hin = 1i32;/s//let mut hin = 0i32;/' \
    -p dnasim-profile --test banded_differential
mutant "read the diagonal's vertical delta from column j, not j-1" crates/metrics/src/myers.rs \
    's/self\.block(i, j - 1)/self.block(i, j)/' \
    -p dnasim-profile --test banded_differential
mutant "drop the inter-block hout -> hin carry" crates/metrics/src/myers.rs \
    '/^ *hin = hout;$/d' \
    -p dnasim-profile --test banded_differential

# DESIGN.md §28: the one-word diagonal band. Two of these change no
# distance and no traceback: a bottom row entering with Pv = 0 changes
# only the horizontal words of the window's last row, which no traceback
# reads, and the band is still exact at d = K + 1. The band-model test
# (every recorded word against a plain DP over the band's cells) and the
# branch check (the band exactly when d <= K) kill them.
mutant "band diag reads column j's bit for column j-1" crates/metrics/src/myers.rs \
    's/let v_plus = pv \& bit_prev != 0;/let v_plus = pv \& bit != 0;/; s/let v_zero = (pv | mv) \& bit_prev == 0;/let v_zero = (pv | mv) \& bit == 0;/' \
    -p dnasim-metrics --lib myers::band_differential
mutant "band's new bottom row enters with Pv = 0" crates/metrics/src/myers.rs \
    's/pv = (pv >> 1) | 1 << 63;/pv >>= 1;/' \
    -p dnasim-metrics --lib myers::band_differential
mutant "band's top row enters with hin = 0" crates/metrics/src/myers.rs \
    's/band_window(plane\[w\], hi, s), 1, 1)/band_window(plane[w], hi, s), 0, 1)/' \
    -p dnasim-metrics --lib myers::band_differential
mutant "band radius K = 32" crates/metrics/src/myers.rs \
    's/pub const BAND: usize = 31;/pub const BAND: usize = 32;/' \
    -p dnasim-metrics --lib myers::band_differential
mutant "band recording accepted at d <= K + 1" crates/metrics/src/myers.rs \
    's/if d\.is_some_and(|d| d <= BAND) {/if d.is_some_and(|d| d <= BAND + 1) {/' \
    -p dnasim-metrics --lib myers::band_differential
mutant "band window drops its high-word term" crates/metrics/src/myers.rs \
    's/(lo >> s) | ((hi << 1) << (63 - s))/lo >> s/' \
    -p dnasim-metrics --lib myers::band_differential
mutant "bank lane's final span mask off by one" crates/metrics/src/bank.rs \
    's/bank\.lens\[l\] - 1 - band_top(n)/bank.lens[l] - band_top(n)/' \
    -p dnasim-metrics --lib myers::band_differential

# DESIGN.md §17: alignment votes cast straight from the traceback.
mutant "cast one vote per match whatever the read's weight" crates/reconstruct/src/consensus.rs \
    's/=> sub\[p\]\.add(b, weight)/=> sub[p].add(b, 1)/' \
    -p dnasim-reconstruct --lib vote_differential

# DESIGN.md §23: the certified cumulative-weight sampler.
mutant "certify sampler draws with zero slack" crates/channel/src/sampler.rs \
    's/let slack = 2\.0 \* (live_count + 1) as f64 \* f64::EPSILON \* total;/let slack = 0.0 * live_count as f64;/' \
    -p dnasim-channel --lib sampler

# DESIGN.md §23: the AVX2 mask popcount. Killed on an AVX2 host (the
# qgram differential compares the dispatched count with the scalar one).
mutant "drop the high-nibble term of the AVX2 popcount" crates/metrics/src/mask_popcount.rs \
    's/_mm256_shuffle_epi8(table, hi),/_mm256_setzero_si256(),/' \
    -p dnasim-metrics --test qgram_screen

# DESIGN.md §23: rolling q-gram codes.
mutant "profile rolling-code mask of 2q-2 bits" crates/metrics/src/qgram.rs \
    's/let keep = (1u32 << (2 \* q)) - 1;/let keep = (1u32 << (2 * q - 2)) - 1;/' \
    -p dnasim-metrics --lib qgram
mutant "signature rolling-code mask of 2q-2 bits" crates/cluster/src/signature.rs \
    's/let keep = (1usize << (2 \* q)) - 1;/let keep = (1usize << (2 * q - 2)) - 1;/' \
    -p dnasim-cluster --lib signature

# DESIGN.md §18: the mask screen decides `bound > limit`, not `>=`.
mutant "mask-screen threshold off by one" crates/metrics/src/qgram.rs \
    's/self\.mask_bound(other) > limit ||/self.mask_bound(other) >= limit ||/' \
    -p dnasim-metrics --test qgram_screen

# DESIGN.md §24: the register-lane look-ahead scan.
mutant "lane winner breaks ties toward the later base" crates/reconstruct/src/scan.rs \
    's/if counts\[b\] > counts\[best\] {/if counts[b] >= counts[best] {/' \
    -p dnasim-reconstruct --lib scan::differential
mutant "anchor weight dropped from the look-ahead tally" crates/reconstruct/src/scan.rs \
    's/tally\[b\.index()\] += anchor_weight;/tally[b.index()] += 0;/' \
    -p dnasim-reconstruct --lib scan::differential
mutant "byte lanes flushed every 256 reads" crates/reconstruct/src/scan.rs \
    's/const LANE_MAX: usize = 255;/const LANE_MAX: usize = 256;/' \
    -p dnasim-reconstruct --lib scan::differential

# DESIGN.md §24: integer-threshold Keoliya draws. The threshold itself
# is shared with the twin's kernel (§25), which has its own mutant below.
mutant "threshold rounded down" crates/channel/src/sampler.rs \
    's/floor as u64 + u64::from((floor as f64) < scaled)/floor as u64/' \
    -p dnasim-channel --lib keoliya
mutant "fast path tested against T3 instead of max(T)" crates/channel/src/keoliya.rs \
    's/                if k < any {/                if k < ins {/' \
    -p dnasim-channel --lib keoliya
mutant "threshold table indexed at pos + 1" crates/channel/src/keoliya.rs \
    's/self\.thresholds\[i\.min(last)\]/self.thresholds[(i + 1).min(last)]/' \
    -p dnasim-channel --lib keoliya
mutant "rate table indexed at pos + 1" crates/channel/src/keoliya.rs \
    's/self\.rate_table\[position\.min(/self.rate_table[(position + 1).min(/' \
    -p dnasim-channel --lib keoliya
mutant "substitution table indexed at pos + 1" crates/channel/src/keoliya.rs \
    's/self\.substitution_table\[position\.min(/self.substitution_table[(position + 1).min(/' \
    -p dnasim-channel --lib keoliya

# DESIGN.md §25: parallel profiling replays the serial tie-break stream.
mutant "chunk start advanced by d - 1 per read" crates/profile/src/pass.rs \
    's/^\( *\)distance_bases_with(\(.*\))$/\1distance_bases_with(\2).saturating_sub(1)/' \
    -p dnasim-profile --lib pass::tests::core_matches_the_serial_loop
mutant "chain check skipped" crates/profile/src/pass.rs \
    's/if reruns == 0 \&\& start == \*rng =>/if reruns == 0 =>/' \
    -p dnasim-profile --lib pass::tests::a_chunk_that_drew_more_than_d_is_rerun_serially

# DESIGN.md §25: the twin channel's integer thresholds.
mutant "twin threshold rounded down" crates/channel/src/sampler.rs \
    's/floor as u64 + u64::from((floor as f64) < scaled)/floor as u64/' \
    -p dnasim-dataset --lib twin
mutant "twin fast path tested against T3 instead of max(T)" crates/dataset/src/twin.rs \
    's/if k < any {/if k < ins {/' \
    -p dnasim-dataset --lib twin

# DESIGN.md §26: the certified round-1 rescan and the reused stitch
# refine.
mutant "certificate accepts a lane with no votes" crates/reconstruct/src/scan.rs \
    's/lane == b\.index() as u64/lane == b.index() as u64 || lane == 0xff/' \
    -p dnasim-reconstruct --lib scan::differential
mutant "certificate compares lane k with E[j + k]" crates/reconstruct/src/scan.rs \
    's/out\.get(j + 1 + k)/out.get(j + k)/' \
    -p dnasim-reconstruct --lib scan::differential
mutant "certificate checks only the first pattern word" crates/reconstruct/src/scan.rs \
    's/(0\.\.self\.lookahead)\.all/(0..self.lookahead.min(8)).all/' \
    -p dnasim-reconstruct --lib scan::differential
mutant "stitch refine reused without the equality test" crates/reconstruct/src/algorithms.rs \
    's/if refined_from\.as_ref() == Some(&out) {/if refined_from.is_some() {/' \
    -p dnasim-reconstruct --lib algorithms::differential

# DESIGN.md §26: the twin fills only the threshold rows its reference
# uses; DESIGN.md §25: a position without a hotspot draws nothing.
mutant "homopolymer rows left out of the used mask" crates/dataset/src/twin.rs \
    's/            used |= 1 << run_rows\[i - 2\];/            used |= 1 << (run_rows[i - 2] \& !1);/' \
    -p dnasim-dataset --lib twin::tests::threshold_kernel_matches_the_per_read_oracle
mutant "twin kernel draws at a position with no hotspot" crates/dataset/src/twin.rs \
    's/filter(|\&\&(at, _)| at == i)/filter(|\&\&(at, _)| at >= i)/' \
    -p dnasim-dataset --lib twin::tests::threshold_kernel_matches_the_per_read_oracle

# DESIGN.md §22: `json::escape` copies the unescaped run before each
# escaped byte. (Resuming at the escaped byte itself would loop forever,
# so the boundary moves one byte past it.)
mutant "escape run boundary off by one" crates/core/src/json.rs \
    's/        run_start = i + 1;/        run_start = i + 2;/' \
    -p dnasim-core --lib json::tests::escape_matches_the_per_char_oracle

# DESIGN.md §29: the text path's fast paths. The run parser and `escape`
# share one word scan, `plain_run`; the strand table and the unanimous
# runs have their own differentials.
mutant "run predicate without < 0x20" crates/core/src/json.rs \
    's/bytes_below(word, 0x20)/bytes_below(word, 0)/' \
    -p dnasim-core --lib json::tests
mutant "word scan misses the backslash" crates/core/src/json.rs \
    '/| bytes_below(word ^ (ONES \* b.\\\\. as u64), 1)$/d' \
    -p dnasim-core --lib json::tests
mutant "byte table maps N to a base" crates/core/src/strand.rs \
    's/const BASE_LETTERS: \&\[u8\] = b"ACGTacgt";/const BASE_LETTERS: \&[u8] = b"ACGTacgtN";/' \
    -p dnasim-core --lib strand::tests
mutant "unanimous run not cut at strand_len" crates/reconstruct/src/scan.rs \
    's/let run = run\.min(strand_len - j);/let run = run;/' \
    -p dnasim-reconstruct --lib scan::differential
mutant "an END lane does not stop a unanimous run" crates/reconstruct/src/scan.rs \
    's/let mut differ = (lead >> 2) \& ONES;/let mut differ = 0;/' \
    -p dnasim-reconstruct --lib scan::differential
mutant "unanimous runs taken when the reads only tie the anchor" crates/reconstruct/src/scan.rs \
    's/pos\.len() > anchor_weight;/pos.len() >= anchor_weight;/' \
    -p dnasim-reconstruct --lib scan::differential

# DESIGN.md §19: exact two-phase parallel clustering.
mutant "skip phase 2's in-batch search" crates/cluster/src/streaming.rs \
    's/bands, first);/bands, usize::MAX);/' \
    -p dnasim-cluster --test phase_split
mutant "in-batch survivors placed before pre-batch ones" crates/cluster/src/streaming.rs \
    $'/self\\.scratch\\.gather\\.gather(&self\\.buckets, bands, first);/i\\\n        let pre = survivors.len();\n/`survivors` is ascending, so the first match is the lowest/i\\\n        survivors.rotate_left(pre);' \
    -p dnasim-cluster --test phase_split

# DESIGN.md §27: the batched error-ball screen and bitmap band buckets.
# The VPOPCNTDQ mutant is only killed on a host with AVX-512 VPOPCNTDQ,
# and the AVX2 one on a host with AVX2: the differential runs each kernel
# the CPU has and skips the others.
mutant "division-free screen test uses >=" crates/metrics/src/qgram.rs \
    's/meta\.q == q \&\& most\.saturating_sub(shared_at_most) > threshold/meta.q == q \&\& most.saturating_sub(shared_at_most) >= threshold/' \
    -p dnasim-metrics --lib mask_popcount::differential
mutant "screen threshold limit*q - 1" crates/metrics/src/qgram.rs \
    's/let threshold = limit\.saturating_mul(q);/let threshold = limit.saturating_mul(q).saturating_sub(1);/' \
    -p dnasim-metrics --lib mask_popcount::differential
mutant "VPOPCNTDQ counts only the first 512-bit half" crates/metrics/src/mask_popcount.rs \
    's/_mm512_reduce_add_epi64(_mm512_add_epi64(a, b))/_mm512_reduce_add_epi64(a)/' \
    -p dnasim-metrics --lib mask_popcount::differential
mutant "AVX2 screen drops one of its four vectors" crates/metrics/src/mask_popcount.rs \
    's/for (v, \&lv) in l\.iter()\.enumerate() {/for (v, \&lv) in l.iter().enumerate().take(3) {/' \
    -p dnasim-metrics --lib mask_popcount::differential
mutant "gather floor mask shifted by one" crates/cluster/src/buckets.rs \
    's/\*first \&= u64::MAX << (floor % 64);/*first \&= u64::MAX << (floor % 64) << 1;/' \
    -p dnasim-cluster --lib buckets
mutant "list-to-bitmap switch drops the id that triggered it" crates/cluster/src/buckets.rs \
    's/for \&i in ids\.iter()\.chain(std::iter::once(\&id)) {/for \&i in ids.iter() {/' \
    -p dnasim-cluster --lib buckets

# DESIGN.md §22: serve's drain contract.
mutant "dispatched budgets linked to the session token" crates/serve/src/server.rs \
    's/\&policy, None),$/\&policy, Some(shutdown)),/' \
    -p dnasim-serve --test drain_stress

if [ "$survivors" -ne 0 ]; then
    echo "mutants: $survivors survived" >&2
    exit 1
fi
echo "mutants: all killed"
