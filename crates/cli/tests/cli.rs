//! End-to-end CLI tests: drive the `dnasim` binary as a user would.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn dnasim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnasim"))
}

/// Runs `dnasim serve <args>` with `input` piped to stdin and both output
/// streams captured.
fn serve_with_input(args: &[&str], input: &str) -> Output {
    let mut child = dnasim()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // A child that exits on a usage error may close its stdin before
    // reading it. That broken pipe is expected; any other write error
    // fails the test.
    let written = child.stdin.take().unwrap().write_all(input.as_bytes());
    if let Err(e) = written {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "stdin write failed: {e}");
    }
    child.wait_with_output().unwrap()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dnasim-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_lists_commands() {
    let out = dnasim().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["generate", "profile", "simulate", "reconstruct", "evaluate", "experiment"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_usage_and_exit_code_2() {
    let out = dnasim().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("commands:"), "usage must be printed on stderr");
}

#[test]
fn generate_profile_simulate_reconstruct_pipeline() {
    let twin = tmp("twin.txt");
    let sim = tmp("sim.txt");

    // generate
    let out = dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "60"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 60 clusters"));

    // profile
    let out = dnasim()
        .args(["profile", "--data", twin.to_str().unwrap(), "--top-k", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("aggregate error rate"));
    assert!(text.contains("conditional probabilities"));

    // simulate (resimulate with the learned model)
    let out = dnasim()
        .args([
            "simulate",
            "--data",
            twin.to_str().unwrap(),
            "--model",
            "keoliya:spatial",
            "--out",
            sim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // reconstruct on both
    for file in [&twin, &sim] {
        let out = dnasim()
            .args([
                "reconstruct",
                "--data",
                file.to_str().unwrap(),
                "--algo",
                "iterative",
                "--coverage",
                "5",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("per-strand"));
    }

    // evaluate real vs simulated
    let out = dnasim()
        .args([
            "evaluate",
            "--real",
            twin.to_str().unwrap(),
            "--sim",
            sim.to_str().unwrap(),
            "--coverage",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bma") && text.contains("iterative"));
}

#[test]
fn missing_required_option_is_a_usage_error() {
    let out = dnasim().args(["generate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out"));
    assert!(stderr.contains("commands:"), "usage must be printed on stderr");
}

#[test]
fn unknown_algorithm_reports_error() {
    let twin = tmp("twin2.txt");
    dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "10"])
        .output()
        .unwrap();
    let out = dnasim()
        .args(["reconstruct", "--data", twin.to_str().unwrap(), "--algo", "magic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn archive_round_trips() {
    let out = dnasim().args(["archive", "--bytes", "256"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("round-trip OK"));
}

#[test]
fn archive_strict_fails_when_nothing_is_sequenced() {
    let out = dnasim()
        .args(["archive", "--bytes", "128", "--reads", "0", "--strict"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn archive_lenient_degrades_with_exit_code_3() {
    let out = dnasim()
        .args(["archive", "--bytes", "128", "--reads", "0", "--lenient"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEGRADED"));
    assert!(stdout.contains("quarantined"));
}

#[test]
fn archive_rejects_contradictory_modes() {
    let out = dnasim()
        .args(["archive", "--bytes", "64", "--strict", "--lenient"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn chaos_smoke_grid_passes() {
    let out = dnasim().args(["chaos", "--seeds", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos:"));
    assert!(stdout.contains("0 panicked"));
}

#[test]
fn stats_reports_dataset_summary() {
    let twin = tmp("twin3.txt");
    dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "25"])
        .output()
        .unwrap();
    let out = dnasim()
        .args(["stats", "--data", twin.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clusters:        25"));
    assert!(text.contains("coverage histogram"));
}

#[test]
fn evaluate_reports_fidelity() {
    let twin = tmp("twin4.txt");
    let sim = tmp("sim4.txt");
    dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "25"])
        .output()
        .unwrap();
    dnasim()
        .args([
            "simulate",
            "--data",
            twin.to_str().unwrap(),
            "--model",
            "naive",
            "--out",
            sim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = dnasim()
        .args([
            "evaluate",
            "--real",
            twin.to_str().unwrap(),
            "--sim",
            sim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fidelity:"));
    assert!(text.contains("χ²"));
}

#[test]
fn evaluate_is_identical_across_thread_counts() {
    let twin = tmp("twin-threads.txt");
    let sim = tmp("sim-threads.txt");
    let generated = dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "40"])
        .output()
        .unwrap();
    assert!(generated.status.success());
    let simulated = dnasim()
        .args([
            "simulate",
            "--data",
            twin.to_str().unwrap(),
            "--model",
            "keoliya",
            "--out",
            sim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(simulated.status.success(), "{}", String::from_utf8_lossy(&simulated.stderr));
    let evaluate = |threads: &str| {
        let out = dnasim()
            .env("DNASIM_THREADS", threads)
            .args([
                "evaluate",
                "--real",
                twin.to_str().unwrap(),
                "--sim",
                sim.to_str().unwrap(),
                "--coverage",
                "5",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let serial = evaluate("1");
    assert!(String::from_utf8_lossy(&serial).contains("iterative"));
    assert_eq!(serial, evaluate("4"));
}

#[test]
fn profile_save_and_simulate_from_model_file() {
    let twin = tmp("twin5.txt");
    let model = tmp("model5.txt");
    let sim = tmp("sim5.txt");
    dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "25"])
        .output()
        .unwrap();
    let out = dnasim()
        .args([
            "profile",
            "--data",
            twin.to_str().unwrap(),
            "--save",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&model).unwrap();
    assert!(text.starts_with("dnasim-learned-model v1"));

    let out = dnasim()
        .args([
            "simulate",
            "--data",
            twin.to_str().unwrap(),
            "--model",
            "keoliya:second",
            "--model-file",
            model.to_str().unwrap(),
            "--out",
            sim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(sim.exists());
}

#[test]
fn streamed_generate_is_byte_identical_to_in_memory() {
    let whole = tmp("gen-whole.txt");
    let streamed = tmp("gen-streamed.txt");
    for (path, extra) in [(&whole, &[][..]), (&streamed, &["--stream", "--batch-size", "7"][..])] {
        let out = dnasim()
            .args(["generate", "--out", path.to_str().unwrap(), "--small", "--clusters", "40"])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 40 clusters"));
    }
    assert_eq!(
        std::fs::read(&whole).unwrap(),
        std::fs::read(&streamed).unwrap(),
        "streamed generate must produce the same file"
    );
}

#[test]
fn streamed_simulate_is_byte_identical_to_in_memory() {
    let twin = tmp("stream-twin.txt");
    dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "30"])
        .output()
        .unwrap();
    let whole = tmp("sim-whole.txt");
    let streamed = tmp("sim-streamed.txt");
    for (path, extra) in [
        (&whole, &[][..]),
        (&streamed, &["--stream", "--batch-size", "5", "--threads", "2"][..]),
    ] {
        let out = dnasim()
            .args([
                "simulate",
                "--data",
                twin.to_str().unwrap(),
                "--model",
                "keoliya:spatial",
                "--out",
                path.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    assert_eq!(
        std::fs::read(&whole).unwrap(),
        std::fs::read(&streamed).unwrap(),
        "streamed simulate must produce the same file"
    );
}

#[test]
fn streamed_profile_prints_identical_statistics() {
    let twin = tmp("profile-twin.txt");
    dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "25"])
        .output()
        .unwrap();
    let whole = dnasim()
        .args(["profile", "--data", twin.to_str().unwrap()])
        .output()
        .unwrap();
    let streamed = dnasim()
        .args(["profile", "--data", twin.to_str().unwrap(), "--stream", "--batch-size", "4"])
        .output()
        .unwrap();
    assert!(whole.status.success() && streamed.status.success());
    assert_eq!(
        String::from_utf8_lossy(&whole.stdout),
        String::from_utf8_lossy(&streamed.stdout),
        "streamed profile must report the same statistics"
    );
}

#[test]
fn serve_answers_each_request_line_in_order() {
    let input = "{\"tenant\":\"acme\",\"request_id\":\"g1\",\"op\":\"generate\",\
                 \"clusters\":4,\"len\":30}\n\
                 {\"tenant\":\"beta\",\"request_id\":\"a1\",\"op\":\"archive\",\"bytes\":64}\n";
    let out = serve_with_input(&["--seed", "11"], input);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one response per request line");
    assert!(lines[0].contains("\"request_id\":\"g1\"") && lines[0].contains("\"status\":\"ok\""));
    assert!(lines[1].contains("\"request_id\":\"a1\"") && lines[1].contains("\"round_trip\":true"));
    // The session summary goes to stderr; stdout stays pure JSONL.
    assert!(String::from_utf8_lossy(&out.stderr).contains("served 2 request(s)"));
}

#[test]
fn serve_malformed_json_is_a_usage_error_with_diagnostic() {
    let input = "{\"tenant\":\"acme\",\"request_id\":\"g1\",\"op\":\"generate\",\
                 \"clusters\":2,\"len\":20}\n\
                 this is not json\n";
    let out = serve_with_input(&[], input);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("request line 2"), "diagnostic must locate the line: {stderr}");
    assert!(stderr.contains("commands:"), "usage must be printed on stderr");
    // The request admitted before the bad line was still answered.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1);
    assert!(stdout.contains("\"request_id\":\"g1\""));
}

#[test]
fn serve_unknown_op_is_a_usage_error_with_diagnostic() {
    let out = serve_with_input(
        &[],
        "{\"tenant\":\"acme\",\"request_id\":\"r1\",\"op\":\"frobnicate\"}\n",
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("frobnicate"), "diagnostic must name the op: {stderr}");
    assert!(stderr.contains("commands:"), "usage must be printed on stderr");
}

#[test]
fn serve_oversized_batch_is_a_usage_error_with_diagnostic() {
    let out = serve_with_input(
        &["--max-batch", "100"],
        "{\"tenant\":\"acme\",\"request_id\":\"r1\",\"op\":\"generate\",\"clusters\":101}\n",
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("admission cap"),
        "diagnostic must explain the rejection: {stderr}"
    );
    assert!(stderr.contains("commands:"), "usage must be printed on stderr");
}

#[test]
fn serve_missing_identity_is_a_usage_error() {
    let out = serve_with_input(&[], "{\"op\":\"generate\",\"clusters\":2}\n");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("tenant"));
}

#[test]
fn serve_lenient_mode_answers_malformed_lines_in_place() {
    let input = "garbage\n\
                 {\"tenant\":\"acme\",\"request_id\":\"g1\",\"op\":\"generate\",\
                 \"clusters\":2,\"len\":20}\n\
                 {\"tenant\":\"beta\",\"request_id\":\"x\",\"op\":\"warp\"}\n";
    let out = serve_with_input(&["--lenient"], input);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"status\":\"rejected\""));
    assert!(lines[1].contains("\"status\":\"ok\""));
    assert!(lines[2].contains("\"status\":\"rejected\""));
    assert!(String::from_utf8_lossy(&out.stderr).contains("2 rejected"));
}

#[test]
fn serve_responses_replay_identically_across_thread_counts() {
    let mut input = String::new();
    for i in 0..6 {
        input.push_str(&format!(
            "{{\"tenant\":\"t{}\",\"request_id\":\"r{i}\",\"op\":\"corrupt\",\
             \"count\":3,\"len\":25,\"reads\":2}}\n",
            i % 2
        ));
    }
    let serial = serve_with_input(&["--seed", "3", "--threads", "1"], &input);
    let parallel = serve_with_input(&["--seed", "3", "--threads", "4"], &input);
    assert_eq!(serial.status.code(), Some(0));
    assert_eq!(parallel.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "serve responses must be byte-identical for every --threads value"
    );
}

#[test]
fn serve_per_request_deadline_answers_with_a_typed_deadline_response() {
    let input = "{\"tenant\":\"acme\",\"request_id\":\"d1\",\"op\":\"generate\",\
                 \"clusters\":12,\"len\":30,\"deadline\":3}\n\
                 {\"tenant\":\"acme\",\"request_id\":\"d2\",\"op\":\"generate\",\
                 \"clusters\":4,\"len\":30}\n";
    let out = serve_with_input(&["--seed", "5"], input);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(
        lines[0].contains("\"status\":\"deadline\"")
            && lines[0].contains("\"spent\":3")
            && lines[0].contains("\"limit\":3")
            && lines[0].contains("\"stage\":"),
        "deadline response must be typed: {}",
        lines[0]
    );
    assert!(lines[1].contains("\"status\":\"ok\""), "unmetered request unaffected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 deadline"));
}

#[test]
fn serve_default_deadline_meters_all_requests_and_zero_is_a_usage_error() {
    let input = "{\"tenant\":\"acme\",\"request_id\":\"m1\",\"op\":\"generate\",\
                 \"clusters\":10,\"len\":25}\n";
    let out = serve_with_input(&["--default-deadline", "2"], input);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"status\":\"deadline\""));

    let out = serve_with_input(&["--default-deadline", "0"], input);
    assert_eq!(out.status.code(), Some(2), "a zero deadline is meaningless");
    assert!(String::from_utf8_lossy(&out.stderr).contains("default-deadline"));
}

#[test]
fn serve_retries_report_attempts_in_responses() {
    let input = "{\"tenant\":\"acme\",\"request_id\":\"r1\",\"op\":\"generate\",\
                 \"clusters\":2,\"len\":20}\n";
    let out = serve_with_input(&["--retries", "2"], input);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"attempts\":1"),
        "retry policy must surface the attempt count: {stdout}"
    );
}

#[test]
fn serve_sheds_requests_over_the_cluster_budget_as_overloaded() {
    let input = "{\"tenant\":\"acme\",\"request_id\":\"big\",\"op\":\"generate\",\
                 \"clusters\":500,\"len\":24}\n\
                 {\"tenant\":\"acme\",\"request_id\":\"small\",\"op\":\"generate\",\
                 \"clusters\":3,\"len\":24}\n";
    let out = serve_with_input(&["--cluster-budget", "32"], input);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(
        lines[0].contains("\"status\":\"rejected\"")
            && lines[0].contains("\"reason\":\"overloaded\""),
        "oversized request must be shed: {}",
        lines[0]
    );
    assert!(lines[1].contains("\"status\":\"ok\""), "in-budget request unaffected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 shed"));
}

#[test]
fn serve_broken_stdout_exits_cleanly_with_code_4() {
    let mut child = dnasim()
        .args(["serve", "--lenient"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Hang up the response stream before any request is served.
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().unwrap();
    // Keep feeding requests until the server notices the dead pipe; it
    // may exit (closing our stdin pipe) before we finish writing.
    for i in 0..256 {
        let line = format!(
            "{{\"tenant\":\"acme\",\"request_id\":\"p{i}\",\"op\":\"generate\",\
             \"clusters\":2,\"len\":20}}\n"
        );
        if stdin.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "a hung-up consumer is a clean shutdown, not a crash: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("hung up"));
}

#[test]
fn chaos_json_emits_a_machine_readable_summary() {
    let out = dnasim().args(["chaos", "--seeds", "1", "--json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"cases\":"),
        "stdout must be the JSON object alone: {stdout}"
    );
    assert!(stdout.contains("\"clean\":true"));
    assert!(stdout.contains("\"verdicts\":"));
    assert!(stdout.contains("\"budget-exhaustion\""));
    assert!(!stdout.contains("chaos:"), "human summary must not pollute JSON mode");
}

#[test]
fn serve_lenient_rejects_oversized_archive_bytes_in_place() {
    let input = "{\"tenant\":\"acme\",\"request_id\":\"a1\",\"op\":\"archive\",\
                 \"bytes\":999999}\n\
                 {\"tenant\":\"acme\",\"request_id\":\"a2\",\"op\":\"archive\",\"bytes\":64}\n";
    let out = serve_with_input(&["--lenient", "--max-batch", "100"], input);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(
        lines[0].contains("\"status\":\"rejected\"") && lines[0].contains("admission cap"),
        "oversized archive must be rejected in place: {}",
        lines[0]
    );
    assert!(lines[1].contains("\"round_trip\":true"));
}

#[test]
fn serve_lenient_answers_unknown_op_after_valid_ops() {
    let input = "{\"tenant\":\"acme\",\"request_id\":\"v1\",\"op\":\"generate\",\
                 \"clusters\":2,\"len\":20}\n\
                 {\"tenant\":\"acme\",\"request_id\":\"v2\",\"op\":\"archive\",\"bytes\":48}\n\
                 {\"tenant\":\"acme\",\"request_id\":\"u1\",\"op\":\"teleport\"}\n";
    let out = serve_with_input(&["--lenient"], input);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"status\":\"ok\""));
    assert!(lines[1].contains("\"round_trip\":true"));
    assert!(
        lines[2].contains("\"status\":\"rejected\"") && lines[2].contains("teleport"),
        "unknown op must answer in place after valid ops: {}",
        lines[2]
    );
}

#[test]
fn serve_lenient_isolates_a_tenant_whose_requests_all_fault() {
    // "evil" sends only runtime-faulting datasets; "good" sends healthy ops.
    let mut with_evil = String::new();
    let mut good_only = String::new();
    for i in 0..4 {
        let good = format!(
            "{{\"tenant\":\"good\",\"request_id\":\"g{i}\",\"op\":\"generate\",\
             \"clusters\":3,\"len\":22}}\n"
        );
        with_evil.push_str(&good);
        good_only.push_str(&good);
        with_evil.push_str(&format!(
            "{{\"tenant\":\"evil\",\"request_id\":\"e{i}\",\"op\":\"simulate\",\
             \"dataset\":\">ACGT\\nAXGT\\n\"}}\n"
        ));
    }
    let mixed = serve_with_input(&["--lenient", "--seed", "9"], &with_evil);
    let solo = serve_with_input(&["--lenient", "--seed", "9"], &good_only);
    assert_eq!(mixed.status.code(), Some(0));
    assert_eq!(solo.status.code(), Some(0));
    let mixed_out = String::from_utf8_lossy(&mixed.stdout);
    for line in mixed_out.lines().filter(|l| l.contains("\"tenant\":\"evil\"")) {
        assert!(
            line.contains("\"status\":\"error\""),
            "evil's faults must answer in place: {line}"
        );
    }
    let good_lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("\"tenant\":\"good\""))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        good_lines(&mixed_out),
        good_lines(&String::from_utf8_lossy(&solo.stdout)),
        "a fully-faulting tenant must not perturb another tenant's responses"
    );
}

#[test]
fn archive_with_bounded_decode_window_round_trips() {
    let out = dnasim()
        .args(["archive", "--bytes", "256", "--batch-size", "16"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("round-trip OK"));
    assert!(stdout.contains("decoded"), "window stats must be reported");
}

#[test]
fn profile_reports_cluster_kernel_diagnostics() {
    let twin = tmp("twin-simd.txt");
    dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "20"])
        .output()
        .unwrap();
    let out = dnasim()
        .args(["profile", "--data", twin.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cluster kernel:"), "diagnostic line missing:\n{stdout}");
    assert!(stdout.contains("pruned by error ball"));
    assert!(
        stdout.contains("simd avx2") || stdout.contains("simd scalar"),
        "diagnostic line must name the backend:\n{stdout}"
    );
}

#[test]
fn archive_imperfect_counts_kernel_work() {
    let out = dnasim()
        .args(["archive", "--bytes", "256", "--imperfect"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("round-trip OK"));
    let line = stdout
        .lines()
        .find(|l| l.starts_with("cluster kernel:"))
        .unwrap_or_else(|| panic!("no kernel diagnostic in:\n{stdout}"));
    // Imperfect clustering really clusters, so the counters must move.
    let candidates: u64 = line
        .split(" candidates")
        .next()
        .and_then(|prefix| prefix.rsplit(' ').next())
        .and_then(|word| word.parse().ok())
        .unwrap_or_else(|| panic!("unparseable kernel diagnostic: {line}"));
    assert!(candidates > 0, "clustering ran but counted nothing: {line}");
}

#[test]
fn imperfect_archive_is_identical_across_thread_counts_and_batch_sizes() {
    let run = |extra: &[&str]| {
        let out = dnasim()
            .args(["archive", "--bytes", "2048", "--imperfect", "--lenient"])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let kernel_line = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("cluster kernel:"))
            .unwrap_or_else(|| panic!("no kernel diagnostic in:\n{stdout}"))
            .to_owned()
    };
    // Clustering fans out on the workers, yet every byte — memberships,
    // recovered payload and the clustering counters — is the same.
    let serial = run(&["--threads", "1"]);
    assert_eq!(serial, run(&["--threads", "4"]));
    // A smaller window changes the window statistics, not the counters.
    assert_eq!(
        kernel_line(&serial),
        kernel_line(&run(&["--batch-size", "16"]))
    );
}

#[test]
fn simd_off_flag_forces_scalar_backend_with_identical_output() {
    let auto = dnasim().args(["archive", "--bytes", "256", "--imperfect"]).output().unwrap();
    let off = dnasim()
        .args(["archive", "--bytes", "256", "--imperfect", "--simd", "off"])
        .output()
        .unwrap();
    assert_eq!(off.status.code(), Some(0), "{}", String::from_utf8_lossy(&off.stderr));
    let off_text = String::from_utf8_lossy(&off.stdout);
    assert!(off_text.contains("simd scalar"), "--simd off must pin the scalar tier:\n{off_text}");
    // Every backend is exact: apart from the backend name, output matches.
    let auto_text = String::from_utf8_lossy(&auto.stdout);
    let strip = |s: &str| {
        s.lines()
            .map(|l| l.split(", simd ").next().unwrap_or(l).to_owned())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&auto_text), strip(&off_text));
}

#[test]
fn simd_env_var_forces_scalar_backend() {
    let out = dnasim()
        .args(["archive", "--bytes", "128", "--imperfect"])
        .env("DNASIM_SIMD", "off")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("simd scalar"));
}

#[test]
fn simd_rejects_unknown_backend() {
    let out = dnasim().args(["profile", "--simd", "bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus") && stderr.contains("auto"));
}

#[test]
fn simulate_rejects_a_model_name_that_only_starts_with_keoliya() {
    let twin = tmp("twin-bogus-model.txt");
    let sim = tmp("sim-bogus-model.txt");
    let generated = dnasim()
        .args(["generate", "--out", twin.to_str().unwrap(), "--small", "--clusters", "10"])
        .output()
        .unwrap();
    assert!(generated.status.success());
    let out = dnasim()
        .args([
            "simulate",
            "--data",
            twin.to_str().unwrap(),
            "--model",
            "keoliyaBOGUS",
            "--out",
            sim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown model 'keoliyaBOGUS'"), "{stderr}");
}
