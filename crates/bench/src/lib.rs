//! Shared helpers for the experiment binaries (`src/bin/table*.rs`,
//! `src/bin/fig*.rs`) and the Criterion micro-benches.

use mmkgr_eval::{pct, LinkPredictionResult};
use serde::Serialize;

/// A serializable result row used by most tables.
#[derive(Clone, Debug, Serialize)]
pub struct ModelRow {
    pub model: String,
    pub mrr: f64,
    pub hits1: f64,
    pub hits5: f64,
    pub hits10: f64,
    pub queries: usize,
}

impl ModelRow {
    pub fn new(model: impl Into<String>, r: &LinkPredictionResult) -> Self {
        ModelRow {
            model: model.into(),
            mrr: r.mrr,
            hits1: r.hits1,
            hits5: r.hits5,
            hits10: r.hits10,
            queries: r.queries,
        }
    }

    /// Cells in the paper's column order (MRR, Hits@1, Hits@5, Hits@10).
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.model.clone(),
            pct(self.mrr),
            pct(self.hits1),
            pct(self.hits5),
            pct(self.hits10),
        ]
    }
}

/// Print a labelled numeric series (figure data as text).
pub fn print_series(label: &str, xs: &[(String, f64)]) {
    print!("{label}: ");
    for (k, v) in xs {
        print!("{k}={v:.3} ");
    }
    println!();
}

/// Provenance stamp for persisted bench sections: which machine,
/// compiler and commit produced the numbers. Benchmarks are only
/// comparable within a machine, and "which build was this" is the first
/// question any perf regression hunt asks — so every `BENCH_*.json`
/// section carries one.
#[derive(Clone, Debug, Serialize)]
pub struct RunStamp {
    /// Hostname.
    pub machine: String,
    /// CPUs available to the process.
    pub cpus: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the binary.
    pub rustc: String,
    /// Short HEAD, with `-dirty` if the work tree has changes.
    pub commit: String,
}

impl RunStamp {
    /// Best-effort capture; a field that cannot be read is `unknown`
    /// (the commit outside a work tree, the CPU model off Linux).
    pub fn capture() -> Self {
        let unknown = || "unknown".to_string();
        let machine = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| std::env::var("HOSTNAME").ok())
            .unwrap_or_else(unknown);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(unknown);
        // `-dirty` marks numbers measured on uncommitted changes.
        let commit = std::process::Command::new("git")
            .args([
                "describe",
                "--always",
                "--dirty",
                "--abbrev=7",
                "--exclude=*",
            ])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(unknown);
        RunStamp {
            machine,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("MMKGR_BENCH_RUSTC").to_string(),
            commit,
        }
    }
}

/// Merge `section` into the top-level JSON object at `path` (created if
/// missing), replacing any previous value under `key`. The shared
/// persistence idiom of `bench_serve`/`bench_http`/`bench_store`: each
/// binary owns one key of `BENCH_serve.json` and leaves the rest alone.
pub fn merge_bench_section(path: &str, key: &str, section: serde::Value) {
    use serde::Value;
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str_value(&text) {
            Ok(Value::Object(entries)) => entries,
            _ => panic!("{path} is not a JSON object"),
        },
        Err(_) => Vec::new(),
    };
    root.retain(|(k, _)| k != key);
    root.push((key.to_string(), section));
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("[saved {path}] {key} section updated");
}

/// Wall-clock stamp helper for experiment logs.
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    pub fn lap(&self, what: &str) {
        eprintln!("[{:>8.1?}] {what}", self.0.elapsed());
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Shared driver for the Fig. 6/7 hop-proportion experiment.
pub fn run_hops_figure(dataset: mmkgr_eval::Dataset, scale: mmkgr_eval::ScaleChoice, fig: &str) {
    use mmkgr_core::Variant;
    use mmkgr_eval::{save_json, Harness, HarnessConfig, Table};

    let sw = Stopwatch::start();
    let h = Harness::new(HarnessConfig::new(dataset, scale));
    println!("{}", h.kg.stats());
    let mut table = Table::new(
        format!(
            "{fig} — successful inferences by path length on {}",
            dataset.name()
        ),
        &[
            "Model",
            "≤1 hop",
            "2 hops",
            "3 hops",
            "4+ hops",
            "successes",
        ],
    );
    let mut dump = Vec::new();
    for v in [Variant::Full, Variant::Dvkgr, Variant::Oskgr] {
        let (trainer, _) = h.train_variant(v);
        let r = h.eval_policy(&trainer.model);
        sw.lap(v.name());
        let total: usize = r.hop_counts.iter().sum();
        let frac = |hops: usize| {
            if total == 0 {
                0.0
            } else {
                r.hop_counts[hops] as f64 / total as f64
            }
        };
        table.push_row(vec![
            v.name().to_string(),
            format!("{:.1}%", (frac(0) + frac(1)) * 100.0),
            format!("{:.1}%", frac(2) * 100.0),
            format!("{:.1}%", frac(3) * 100.0),
            format!("{:.1}%", frac(4) * 100.0),
            total.to_string(),
        ]);
        dump.push((v.name().to_string(), r.hop_counts, total));
    }
    table.print();
    save_json(fig, &dump);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_row_cells_formatting() {
        let r = LinkPredictionResult {
            mrr: 0.802,
            hits1: 0.736,
            hits5: 0.878,
            hits10: 0.928,
            queries: 100,
            hop_counts: [0; 5],
        };
        let row = ModelRow::new("MMKGR", &r);
        assert_eq!(row.cells(), vec!["MMKGR", "80.2", "73.6", "87.8", "92.8"]);
    }

    #[test]
    fn run_stamp_names_the_machine_and_compiler() {
        let stamp = RunStamp::capture();
        assert!(stamp.cpus >= 1);
        assert!(stamp.rustc.starts_with("rustc "), "{}", stamp.rustc);
        assert!(!stamp.cpu_model.is_empty() && !stamp.machine.is_empty());
    }
}
