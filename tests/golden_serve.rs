//! Golden regression test: one fixed `dnasim serve` session, every
//! response line pinned by its FNV-1a-64 in a checked-in snapshot
//! (`golden_serve.txt`, next to `golden_archive.txt`).
//!
//! The session covers all five ops (`generate` in both text and binary
//! format), inline datasets with CRLF endings and a bad base, tenants and
//! request ids that need JSON escapes (`"`, `\n`, `é`, a `\u` surrogate
//! pair), a deadline, a runtime error and lenient rejections. Any change
//! to a response byte — an escape, a rendered strand, an error message or
//! a byte offset — shows as a diff. The pool comes from
//! `ThreadPool::from_env()`, and `scripts/verify.sh` runs this test at
//! `DNASIM_THREADS=1` and `DNASIM_THREADS=4` against the same snapshot.
//!
//! To regenerate after an *intentional* behaviour change:
//! `DNASIM_UPDATE_GOLDEN=1 cargo test --test golden_serve`, then review
//! the snapshot diff like any other code change.

use std::fmt::Write as _;

use dnasim::par::ThreadPool;
use dnasim::prelude::*;
use dnasim::serve::{serve, ServeConfig};

const SNAPSHOT_PATH: &str = "golden_serve.txt";
const SEED: u64 = 29;

/// The request stream, one JSONL line each (blank lines are skipped by
/// serve and answer nothing).
fn session() -> String {
    let dataset = "  >ACGTACGTACGTACGTACGT \\r\\nACGTACGTACTACGTACGT\\r\\nacgtacgtacgtacgtaggt\\n-\\n\\n\\n\
                   >TTGACCAGTAGGCATTACGA\\nTTGACCAGTAGCATTACGA\\nTTGACCAGTAGGCATTTACGA\\n\
                   TTGACCAGTAGGCATTACGA\\n";
    let lines = [
        r#"{"tenant":"acme","request_id":"g-text","op":"generate","clusters":6,"len":40}"#
            .to_owned(),
        r#"{"tenant":"acme","request_id":"g-bin","op":"generate","clusters":6,"len":40,"format":"binary"}"#
            .to_owned(),
        r#"{"tenant":"quote\"d","request_id":"new\nline","op":"corrupt","count":4,"len":30,"reads":3}"#
            .to_owned(),
        r#"{"tenant":"café","request_id":"é-\ud83d\ude00","op":"corrupt","count":2,"len":12,"reads":5}"#
            .to_owned(),
        format!(r#"{{"tenant":"sim","request_id":"keoliya","op":"simulate","dataset":"{dataset}"}}"#),
        format!(
            r#"{{"tenant":"sim","request_id":"dnasimulator","op":"simulate","model":"dnasimulator","dataset":"{dataset}"}}"#
        ),
        format!(
            r#"{{"tenant":"eval","request_id":"bma","op":"evaluate","algorithm":"bma","dataset":"{dataset}"}}"#
        ),
        format!(
            r#"{{"tenant":"eval","request_id":"twoway","op":"evaluate","algorithm":"iterative-twoway","dataset":"{dataset}"}}"#
        ),
        r#"{"tenant":"eval","request_id":"bad-base","op":"evaluate","dataset":">ACGT\nACéT\n"}"#
            .to_owned(),
        r#"{"tenant":"sim","request_id":"bad-n","op":"simulate","dataset":">ACGT\nACGN\n"}"#
            .to_owned(),
        r#"{"tenant":"arch","request_id":"a1","op":"archive","bytes":96,"lenient":true}"#
            .to_owned(),
        r#"{"tenant":"arch","request_id":"late","op":"generate","clusters":32,"len":20,"deadline":3}"#
            .to_owned(),
        String::new(),
        r#"{"tenant":"t\t\\","request_id":"x\u0001","op":"warp"}"#.to_owned(),
        r#"{"tenant":"t","request_id":"broken","op":"generate","clusters":"#.to_owned(),
        "not json at all".to_owned(),
        r#"{"tenant":"esc","request_id":"bad\q","op":"generate"}"#.to_owned(),
        "{\"tenant\":\"raw\ttab\",\"request_id\":\"r\",\"op\":\"generate\"}".to_owned(),
    ];
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

fn summary() -> String {
    let config = ServeConfig {
        seed: SEED,
        window: 4,
        batch_size: 16,
        lenient: true,
        ..ServeConfig::default()
    };
    let input = session();
    let mut output = Vec::new();
    let report = serve(input.as_bytes(), &mut output, &config, &ThreadPool::from_env())
        .expect("lenient session runs to the end");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "golden serve session (seed {SEED}, window 4, batch size 16, lenient): \
         input_bytes={} input_fnv1a64={:#018x}",
        input.len(),
        fnv1a64(input.as_bytes())
    );
    let _ = writeln!(
        out,
        "report: requests={} ok={} errors={} degraded={} rejected={} deadlines={} shed={}",
        report.requests,
        report.ok,
        report.errors,
        report.degraded,
        report.rejected,
        report.deadlines,
        report.shed
    );
    let _ = writeln!(
        out,
        "stream: batches={} clusters={} high_watermark={}",
        report.stream.batches, report.stream.clusters, report.stream.high_watermark
    );
    let _ = writeln!(
        out,
        "output: bytes={} fnv1a64={:#018x}",
        output.len(),
        fnv1a64(&output)
    );
    for (i, line) in output.split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "response {i}: bytes={} fnv1a64={:#018x}",
            line.len(),
            fnv1a64(line)
        );
    }
    out
}

#[test]
fn serve_session_matches_golden_snapshot() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let path = std::path::Path::new(manifest_dir).join(SNAPSHOT_PATH);
    let actual = summary();
    if std::env::var_os("DNASIM_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &actual).expect("write golden snapshot");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             DNASIM_UPDATE_GOLDEN=1 cargo test --test golden_serve",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "serve session drifted from {SNAPSHOT_PATH}; if the change is \
         intentional, regenerate with DNASIM_UPDATE_GOLDEN=1 and review the diff"
    );
}
