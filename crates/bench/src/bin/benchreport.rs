//! Aggregates the JSONL emitted by the bench harness (`DNASIM_BENCH_JSON`)
//! into a single machine-readable report (`BENCH_004.json`) and validates
//! committed reports.
//!
//! Subcommands:
//!
//! * `assemble --mode full|fast --out FILE [--bench-id ID] [--min-speedup R]
//!   [--baseline ID] [--contender ID] group=path...`
//!   — read one JSONL file per named group, write the combined report
//!   (tagged `--bench-id`, default `BENCH_004`). The report records its
//!   own group names under `"required"`, which is what `check` later
//!   enforces. With `--min-speedup`, fail unless the baseline-over-
//!   contender median ratio reaches `R`; the pair defaults to the kernel
//!   gate (`levenshtein/full/110` over `myers/distance/110`) and is
//!   overridden per report — BENCH_007 gates `parse/text/512` over
//!   `parse/binary-prefetch/512`. The gate only makes sense on real
//!   timings, so fast-mode runs skip it.
//! * `check FILE` — parse a report and require every group its
//!   `"required"` array names to be present and non-empty (legacy
//!   reports without the array fall back to `kernel`/`clustering`/
//!   `pipeline`).
//!
//! Parsing and string escaping go through the workspace's one JSON codec,
//! [`dnasim_core::json`].

use std::fmt::Write as _;
use std::process::ExitCode;

use dnasim_core::json::{escape, parse, Json};

const BASELINE_ID: &str = "levenshtein/full/110";
const CONTENDER_ID: &str = "myers/distance/110";
const REQUIRED_GROUPS: [&str; 3] = ["kernel", "clustering", "pipeline"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("assemble") => assemble(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => Err("usage: benchreport assemble|check ...".to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchreport: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One benchmark record, as emitted by the harness.
#[derive(Debug, Clone)]
struct Record {
    id: String,
    median_ns: f64,
    mad_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: f64,
    iters_per_sample: f64,
}

impl Record {
    fn from_value(value: &Json) -> Result<Record, String> {
        if !matches!(value, Json::Object(_)) {
            return Err("record is not an object".into());
        }
        let num = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record missing numeric field {key:?}"))
        };
        Ok(Record {
            id: value
                .get("id")
                .and_then(Json::as_str)
                .ok_or("record missing string field \"id\"")?
                .to_owned(),
            median_ns: num("median_ns")?,
            mad_ns: num("mad_ns")?,
            min_ns: num("min_ns")?,
            max_ns: num("max_ns")?,
            samples: num("samples")?,
            iters_per_sample: num("iters_per_sample")?,
        })
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"median_ns\":{:.1},\"mad_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}",
            escape(&self.id),
            self.median_ns,
            self.mad_ns,
            self.min_ns,
            self.max_ns,
            self.samples as u64,
            self.iters_per_sample as u64,
        )
    }
}

fn assemble(args: &[String]) -> Result<(), String> {
    let mut mode = String::from("full");
    let mut out: Option<String> = None;
    let mut bench_id = String::from("BENCH_004");
    let mut min_speedup: Option<f64> = None;
    let mut baseline = BASELINE_ID.to_owned();
    let mut contender = CONTENDER_ID.to_owned();
    let mut groups: Vec<(String, String)> = Vec::new(); // (name, jsonl path)
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mode" => mode = it.next().ok_or("--mode needs a value")?.clone(),
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--bench-id" => bench_id = it.next().ok_or("--bench-id needs a value")?.clone(),
            "--baseline" => baseline = it.next().ok_or("--baseline needs a value")?.clone(),
            "--contender" => contender = it.next().ok_or("--contender needs a value")?.clone(),
            "--min-speedup" => {
                let raw = it.next().ok_or("--min-speedup needs a value")?;
                min_speedup = Some(
                    raw.parse()
                        .map_err(|_| format!("bad --min-speedup value {raw:?}"))?,
                );
            }
            other => {
                let (name, path) = other
                    .split_once('=')
                    .ok_or_else(|| format!("expected group=path, got {other:?}"))?;
                groups.push((name.to_owned(), path.to_owned()));
            }
        }
    }
    let out = out.ok_or("assemble requires --out FILE")?;
    if !matches!(mode.as_str(), "full" | "fast") {
        return Err(format!("--mode must be full or fast, got {mode:?}"));
    }
    if groups.is_empty() {
        return Err("assemble requires at least one group=path argument".into());
    }

    let mut report = String::from("{\n");
    let _ = writeln!(report, "  \"schema\": \"dnasim-bench/v1\",");
    let _ = writeln!(report, "  \"bench_id\": \"{}\",", escape(&bench_id));
    let _ = writeln!(report, "  \"mode\": \"{mode}\",");
    let _ = writeln!(report, "  \"groups\": {{");
    let mut all: Vec<Record> = Vec::new();
    for (gi, (name, path)) in groups.iter().enumerate() {
        let records = read_jsonl(path)?;
        if records.is_empty() {
            return Err(format!("group {name:?} ({path}) has no benchmark records"));
        }
        let _ = writeln!(report, "    \"{}\": [", escape(name));
        for (ri, record) in records.iter().enumerate() {
            let comma = if ri + 1 < records.len() { "," } else { "" };
            let _ = writeln!(report, "      {}{comma}", record.to_json());
        }
        let comma = if gi + 1 < groups.len() { "," } else { "" };
        let _ = writeln!(report, "    ]{comma}");
        all.extend(records);
    }
    let _ = writeln!(report, "  }},");

    // The report names the groups it must keep: `check` enforces exactly
    // this list, so a report covering only `parse` validates on its own
    // terms instead of the legacy kernel trio.
    let required: Vec<String> = groups
        .iter()
        .map(|(name, _)| format!("\"{}\"", escape(name)))
        .collect();
    let _ = writeln!(report, "  \"required\": [{}],", required.join(", "));

    let find = |id: &str| all.iter().find(|r| r.id == id);
    match (find(&baseline), find(&contender)) {
        (Some(base), Some(cont)) if cont.median_ns > 0.0 => {
            let ratio = base.median_ns / cont.median_ns;
            let _ = writeln!(
                report,
                "  \"speedup\": {{\"baseline\": \"{}\", \"contender\": \"{}\", \"ratio\": {ratio:.2}}}",
                escape(&baseline),
                escape(&contender)
            );
            if let Some(min) = min_speedup {
                if mode == "full" && ratio < min {
                    return Err(format!(
                        "speedup {ratio:.2}x is below the required {min:.2}x \
                         ({baseline} {:.1} ns vs {contender} {:.1} ns)",
                        base.median_ns, cont.median_ns
                    ));
                }
            }
        }
        _ => {
            if min_speedup.is_some() && mode == "full" {
                return Err(format!(
                    "--min-speedup given but records {baseline:?} / {contender:?} are missing"
                ));
            }
            let _ = writeln!(report, "  \"speedup\": null");
        }
    }
    report.push_str("}\n");

    std::fs::write(&out, report).map_err(|e| format!("writing {out}: {e}"))?;
    println!("benchreport: wrote {out}");
    Ok(())
}

fn check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("check requires a report path")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if !matches!(value, Json::Object(_)) {
        return Err("report root is not an object".into());
    }
    let Some(Json::Object(groups)) = value.get("groups") else {
        return Err("report has no \"groups\" object".into());
    };
    // Reports written since the `required` array exist name their own
    // contract; legacy reports fall back to the original trio.
    let required: Vec<String> = match value.get("required") {
        Some(Json::Array(names)) => names
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_owned)
                    .ok_or("\"required\" entries must be strings".to_owned())
            })
            .collect::<Result<_, _>>()?,
        _ => REQUIRED_GROUPS.iter().map(|s| (*s).to_owned()).collect(),
    };
    if required.is_empty() {
        return Err("\"required\" names no groups".into());
    }
    for name in &required {
        let Some(Json::Array(records)) = value.get("groups").and_then(|g| g.get(name)) else {
            return Err(format!("report missing group {name:?}"));
        };
        if records.is_empty() {
            return Err(format!("group {name:?} is empty"));
        }
        for record in records {
            Record::from_value(record).map_err(|e| format!("group {name:?}: {e}"))?;
        }
    }
    println!(
        "benchreport: {path} ok ({} groups, mode {})",
        groups.len(),
        value.get("mode").and_then(Json::as_str).unwrap_or("?"),
    );
    Ok(())
}

fn read_jsonl(path: &str) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        records.push(
            Record::from_value(&value).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?,
        );
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_harness_line() {
        let line = "{\"id\":\"myers/distance/110\",\"median_ns\":42.5,\"mad_ns\":0.3,\"min_ns\":41.0,\"max_ns\":50.1,\"samples\":60,\"iters_per_sample\":1000}";
        let value = parse(line).unwrap();
        let record = Record::from_value(&value).unwrap();
        assert_eq!(record.id, "myers/distance/110");
        assert_eq!(record.median_ns, 42.5);
        assert_eq!(record.samples, 60.0);
    }

    #[test]
    fn parser_round_trips_nested_structures() {
        let value =
            parse("{\"a\": [1, 2.5, \"x\\n\"], \"b\": {\"c\": true, \"d\": null}}").unwrap();
        let Some(Json::Array(a)) = value.get("a") else {
            panic!("\"a\" is not an array: {value:?}");
        };
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].as_str(), Some("x\n"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn record_json_round_trips() {
        let record = Record {
            id: "kernel/x/110".to_owned(),
            median_ns: 12.0,
            mad_ns: 1.0,
            min_ns: 11.0,
            max_ns: 14.0,
            samples: 60.0,
            iters_per_sample: 100.0,
        };
        let parsed = Record::from_value(&parse(&record.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.id, record.id);
        assert_eq!(parsed.median_ns, record.median_ns);
    }
}
