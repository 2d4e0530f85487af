//! Drain stress: a shutdown that trips mid-stream, repeated, must drain to
//! the same bytes every time and at every worker count.
//!
//! The traffic opens with slow `archive` requests, so when the token trips
//! the in-flight set holds requests that finish out of order. Only the
//! reader trips the token, and the server observes it only right after
//! reading a line, so which line is answered `deadline` is fixed by the
//! byte stream, not by scheduling.

use std::io::{BufReader, Read};

use dnasim_core::CancelToken;
use dnasim_par::ThreadPool;
use dnasim_serve::{serve_with_shutdown, ServeConfig, ServeReport};

const ITERATIONS: usize = 100;

/// Four slow archive requests, then cheap corrupt and generate requests.
fn traffic() -> Vec<String> {
    let mut lines: Vec<String> = (0..4)
        .map(|i| {
            format!(
                "{{\"tenant\":\"t{i}\",\"request_id\":\"archive-{i}\",\"op\":\"archive\",\
                 \"bytes\":16,\"lenient\":true}}"
            )
        })
        .collect();
    for i in 0..18 {
        lines.push(if i % 3 == 0 {
            format!(
                "{{\"tenant\":\"t{}\",\"request_id\":\"gen-{i}\",\"op\":\"generate\",\
                 \"clusters\":3,\"len\":24}}",
                i % 4
            )
        } else {
            format!(
                "{{\"tenant\":\"t{}\",\"request_id\":\"cor-{i}\",\"op\":\"corrupt\",\
                 \"count\":2,\"len\":24,\"reads\":2}}",
                i % 4
            )
        });
    }
    lines
}

/// Trips `token` on the first read at or past byte `cancel_at`; reads at
/// most 64 bytes at a time so the trip lands mid-stream.
struct CancellingReader {
    data: Vec<u8>,
    pos: usize,
    cancel_at: usize,
    token: CancelToken,
}

impl Read for CancellingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.cancel_at {
            self.token.cancel();
        }
        let n = buf.len().min(64).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn drained(input: &[u8], cancel_at: usize, threads: usize) -> (Vec<u8>, ServeReport) {
    let token = CancelToken::new();
    let reader = CancellingReader {
        data: input.to_vec(),
        pos: 0,
        cancel_at,
        token: token.clone(),
    };
    let config = ServeConfig {
        window: 8,
        batch_size: 16,
        ..ServeConfig::default()
    };
    let mut output = Vec::new();
    let report = serve_with_shutdown(
        BufReader::new(reader),
        &mut output,
        &config,
        &ThreadPool::new(threads),
        &token,
    )
    .expect("a shutdown drain is not a session error");
    (output, report)
}

#[test]
fn mid_stream_shutdown_drains_to_the_same_bytes_every_time() {
    let lines = traffic();
    let input = lines.join("\n").into_bytes();
    // Past the archive requests and a few cheap ones.
    let cancel_at = lines[..8].iter().map(|l| l.len() + 1).sum::<usize>();
    let (baseline, report) = drained(&input, cancel_at, 1);

    let text = String::from_utf8(baseline.clone()).expect("responses are UTF-8");
    let responses: Vec<&str> = text.lines().collect();
    assert!(
        responses.len() > 4,
        "the archive requests were all answered"
    );
    assert!(responses.len() < lines.len(), "the shutdown came too late");
    assert_eq!(report.requests, responses.len());
    // Everything before the line read as the token tripped ran to
    // completion; that line alone answers `deadline`.
    let (last, before) = responses.split_last().expect("at least one response");
    assert!(last.contains("\"status\":\"deadline\""), "{last}");
    assert!(
        before.iter().all(|r| r.contains("\"status\":\"ok\"")),
        "{text}"
    );
    assert_eq!(report.deadlines, 1);
    for (line, response) in lines.iter().zip(&responses) {
        let id_start = line.find("\"request_id\"").expect("every line has an id");
        let id = &line[id_start..id_start + line[id_start..].find(',').expect("more fields")];
        assert!(response.contains(id), "out of order: {id} vs {response}");
    }

    for threads in [2, 4] {
        let diverged = (0..ITERATIONS)
            .filter(|_| drained(&input, cancel_at, threads).0 != baseline)
            .count();
        assert_eq!(
            diverged, 0,
            "{diverged}/{ITERATIONS} drains diverged at {threads} workers"
        );
    }
}
