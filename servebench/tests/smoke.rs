//! Smoke test of the benchmark itself on the `tiny` dataset with a short
//! op count: every metric is printed with its unit, every op passes the
//! output check, and the traced run's spans account for the untraced
//! answer latency.
//!
//! Run from this directory (`cargo test --release --offline`): the traced
//! run writes its spans under `.servebench/` in the working directory.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Value;

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("answer_p50_ms", "ms"),
    ("retrieve_p50_ms", "ms"),
    ("follower_lag_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 27] = [
    ("http.healthz_us", "us"),
    ("http.overhead_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.resolve_us", "us"),
    ("protocol.encode_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.entries", "count"),
    ("cache.hit_us", "us"),
    ("cache.invalidated_per_mutate", "count"),
    ("cache.invalidate_us", "us"),
    ("engine.answer_us", "us"),
    ("engine.lstm_step_us", "us"),
    ("engine.action_probs_us", "us"),
    ("retrieve.total_us", "us"),
    ("retrieve.extract_us", "us"),
    ("retrieve.rerank_us", "us"),
    ("retrieve.entities", "count"),
    ("retrieve.paths_considered", "count"),
    ("mutation.commit_us", "us"),
    ("wal.append_us", "us"),
    ("replication.frames_shipped", "count"),
    ("replication.reconnects", "count"),
    ("setup.boot_s", "s"),
    ("setup.warm_s", "s"),
    ("setup.stack_mb", "MB"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
];

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object looking up {key}"),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// Run the benchmark and return its result line's metrics as
/// name → (value, unit), asserting the run was correct.
fn run(workload: &str, trace: bool, extra: &[&str]) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--dataset", "tiny"])
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str_value(last).expect("the last line is JSON");
    assert!(
        matches!(field(&result, "correct"), Value::Bool(true)),
        "{stdout}"
    );
    assert_eq!(num(field(&result, "failed")), 0.0);
    assert!(num(field(&result, "attempted")) >= 1.0);
    let Value::Object(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(k, v)| {
            let Value::Str(unit) = field(v, "unit") else {
                panic!("{k} has no unit")
            };
            (k.clone(), (num(field(v, "value")), unit.clone()))
        })
        .collect()
}

fn assert_names(metrics: &BTreeMap<String, (f64, String)>, want: &[(&str, &str)]) {
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = want.iter().map(|(n, _)| *n).collect();
    expected.sort_unstable();
    assert_eq!(names, expected);
    for (name, unit) in want {
        assert_eq!(metrics[*name].1, *unit, "unit of {name}");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in ["answer-cold", "answer-hot", "rag-live"] {
        let m = run(workload, false, &["--ops", "96"]);
        assert_names(&m, &END_TO_END);
        assert_eq!(m["ok_frac"].0, 1.0, "{workload}");
        for (name, (value, _)) in &m {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn traced_run_prints_every_layer_and_its_spans_add_up() {
    let spans = std::path::Path::new(".servebench/spans-answer-cold-seed7.jsonl");
    std::fs::remove_file(spans).ok();
    let m = run("answer-cold", true, &["--ops", "60"]);
    assert_names(&m, &PER_LAYER);
    assert_eq!(m["replication.reconnects"].0, 0.0);

    // Recompute the accounting from the spans file. Per answer op: the
    // `/healthz` round trip plus the self times of every span below
    // `http.answer`, against the duration of the untraced twin.
    let text = std::fs::read_to_string(spans).expect("spans written");
    let spans: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str_value(l).expect("span line is JSON"))
        .collect();
    assert!(!spans.is_empty());
    let name = |s: &Value| match field(s, "name") {
        Value::Str(n) => n.clone(),
        _ => panic!("span name"),
    };
    let dur = |s: &Value| (num(field(s, "end_ns")) - num(field(s, "start_ns"))) / 1e3;
    // Per op: (accounted µs, untraced twin µs).
    let mut per_op: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let mut top = vec![false; spans.len()];
    let mut below = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let p = match field(s, "parent") {
            Value::Null => continue,
            p => num(p) as usize,
        };
        if name(&spans[p]) != "op.answer" && !top[p] && !below[p] {
            continue;
        }
        top[i] = name(s) == "http.answer" && name(&spans[p]) == "op.answer";
        below[i] = top[p] || below[p];
        let e = per_op.entry(num(field(s, "op")) as u64).or_default();
        match name(s).as_str() {
            "twin.answer" => e.1 = dur(s),
            "http.healthz" => e.0 += dur(s),
            _ if below[i] => e.0 += num(field(s, "self_us")),
            _ => {}
        }
    }
    let ratios: Vec<f64> = per_op
        .values()
        .filter(|(_, twin)| *twin > 0.0)
        .map(|(acc, twin)| acc / twin)
        .collect();
    assert!(!ratios.is_empty(), "no traced answers");
    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    let ratio = sorted[sorted.len() / 2];
    assert!(
        (0.9..=1.1).contains(&ratio),
        "spans account for {ratio} of the untraced answer latency"
    );
    let reported = m["trace.accounted_ratio"].0;
    assert!(
        (0.9..=1.1).contains(&reported),
        "the run reports {reported} accounted"
    );
}
