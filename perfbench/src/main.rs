//! The repository benchmark: SE-PrivGEmb fit → publish → serve, end to
//! end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-dw --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//! - `fit-dw`: the paper's default fit (DeepWalk proximity, r = 128)
//!   on the BlogCatalog stand-in, 2 threads;
//! - `fit-outofcore`: streamed ingest, row-banded common-neighbour
//!   proximity and edge-sharded checkpointed training on a 100k-node
//!   Holme–Kim graph, 1 thread.
//!
//! Both workloads end with the same serving phase on the model they
//! published, so every end-to-end metric is measured on both. Inputs are generated from `--seed` before any timing
//! starts. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the run records spans, writes
//! them to `perfbench/traces/`, and the last line carries the
//! per-layer metrics. Everything the run writes stays under
//! `perfbench/work/` (removed at exit) and `perfbench/traces/`.

mod fit;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("publish_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("struc_equ", "corr"),
    ("link_auc", "auc"),
    ("topk_p50_us", "us"),
    ("topk_p99_us", "us"),
    ("reads_per_s", "1/s"),
    ("reload_ms", "ms"),
    ("recall_at_10", "ratio"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer a
/// workload does not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.ingest_s", "s"),
    ("graph.edges", "count"),
    ("proximity.compute_s", "s"),
    ("mem.tracked_peak_mib", "MiB"),
    ("skipgram.train_s", "s"),
    ("skipgram.train_cpu_s", "s"),
    ("skipgram.steps", "count"),
    ("skipgram.examples", "count"),
    ("skipgram.examples_per_s", "1/s"),
    ("dp.steps", "count"),
    ("dp.epsilon_spent", "epsilon"),
    ("model.write_s", "s"),
    ("model.bytes", "bytes"),
    ("model.checkpoints", "count"),
    ("model.checkpoint_bytes", "bytes"),
    ("model.open_s", "s"),
    ("serve.topk_inproc_us", "us"),
    ("serve.link_p50_us", "us"),
    ("serve.topkn_p50_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.topk_requests", "count"),
    ("serve.topkn_requests", "count"),
    ("serve.link_requests", "count"),
    ("serve.reload_requests", "count"),
    ("eval.struc_equ_s", "s"),
    ("eval.link_auc_s", "s"),
    ("bench.calib_ms", "ms"),
    ("graph.self_s", "s"),
    ("proximity.self_s", "s"),
    ("skipgram.self_s", "s"),
    ("model.self_s", "s"),
    ("serve.self_s", "s"),
    ("eval.self_s", "s"),
    ("trace.publish_overhead_s", "s"),
    ("trace.topk_overhead_us", "us"),
    ("trace.spans", "count"),
];

/// Layers whose self time the traced run reports: `(layer, metric)`.
const TRACED_LAYERS: &[(&str, &str)] = &[
    ("graph", "graph.self_s"),
    ("proximity", "proximity.self_s"),
    ("skipgram", "skipgram.self_s"),
    ("model", "model.self_s"),
    ("serve", "serve.self_s"),
    ("eval", "eval.self_s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Metrics and operation counts of one run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric value (the unit comes from the metric tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one attempted operation or check; a failed one is also
    /// counted as failed and described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAIL: {}", what());
        }
    }

    /// Adds operations that were attempted, `failed` of them failing.
    pub fn count_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fit-dw|fit-outofcore \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = root.join("work").join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();

    let calib_start = calibrate();
    let outcome = match args.workload.as_str() {
        "fit-dw" => fit::fit_dw(&args, &work, &tracer, &mut report),
        "fit-outofcore" => fit::fit_outofcore(&args, &work, &tracer, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    let calib_end = calibrate();
    std::fs::remove_dir_all(&work).ok();
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    report.set(
        "bench.calib_ms",
        median(&[calib_start, calib_end].concat()) * 1e3,
    );

    if args.trace {
        tracer.set_enabled(false);
        let self_s = tracer.self_seconds();
        for &(layer, metric) in TRACED_LAYERS {
            report.set(metric, self_s.get(layer).copied().unwrap_or(0.0));
        }
        report.set("trace.spans", tracer.len() as f64);
        let path = root
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("[trace] {} spans -> {}", tracer.len(), path.display()),
            Err(e) => report.check(false, || format!("cannot write {}: {e}", path.display())),
        }
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                report.check(false, || {
                    format!("end-to-end metric {name} was not measured")
                });
                0.0
            }
        };
        if !value.is_finite() {
            report.check(false, || format!("metric {name} is not finite: {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A fixed integer loop in benchmark code, timed three times: host
/// speed, independent of the program under test.
fn calibrate() -> Vec<f64> {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..20_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Timing metrics over repeated work (fit repetitions, reloads) take
/// this nearest-rank quantile over the repetitions: the repetitions the
/// host's other tenants slowed least. See "Steadiness" in
/// `perfbench/README.md`.
pub const QUIET_QUANTILE: f64 = 0.1;

/// Nearest-rank quantile `q` of a sample.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Nearest-rank quantile of an ascending-sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// User + system CPU time of this process, from `/proc/self/stat`
/// (clock ticks of 10 ms).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Size of a file in bytes (0 when it cannot be read).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
