//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <filter_int8|cep_multiquery|serve_wire> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; outputs are checked against
//! reference computations; the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced. With `--trace 1` they
//! are the per-layer ones, derived from spans the benchmark records around
//! its calls into each layer; the spans are written to
//! `.perfbench_out/spans-<workload>-<seed>.json`. See `perfbench/README.md`.

mod batch;
mod env;
mod probes;
mod serve;
mod spans;
mod stats;

use spans::Recorder;
use stats::{json_str, Metrics};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// End-to-end metrics and their units: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_eps", "1/s"),
    ("recall", "ratio"),
    ("ack_p50_ms.light", "ms"),
    ("ack_p50_ms.heavy", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.assembler.windows", "count"),
    ("core.embed.us_per_window", "us"),
    ("nn.quant.us_per_window", "us"),
    ("nn.quant.macs_per_window", "count"),
    ("core.filter.us_per_window", "us"),
    ("core.filter.marked_frac", "ratio"),
    ("core.pipeline.relayed_frac", "ratio"),
    ("core.pipeline.glue_ms", "ms"),
    ("cep.nfa.ms", "ms"),
    ("cep.nfa.events_processed", "count"),
    ("cep.nfa.partials_created", "count"),
    ("cep.nfa.condition_evals", "count"),
    ("cep.nfa.match_yield", "ratio"),
    ("cep.share.attribute_ms", "ms"),
    ("cep.share.units", "count"),
    ("cep.share.branches_merged", "count"),
    ("cep.share.compile_ms", "ms"),
    ("core.trainer.train_s", "s"),
    ("core.trainer.epochs", "count"),
    ("core.quantized.quantize_ms", "ms"),
    ("cep.ecep.ms", "ms"),
    ("cep.ecep.partials_created", "count"),
    ("cep.ecep.gain", "ratio"),
    ("par.speedup_2t", "ratio"),
    ("serve.wire.encode_ns_per_event", "ns"),
    ("serve.wire.decode_ns_per_event", "ns"),
    ("serve.wire.bytes_per_event", "B"),
    ("serve.channel.ingest_ns_per_event", "ns"),
    ("serve.channel.sync_us", "us"),
    ("serve.channel.queue_depth_max", "count"),
    ("serve.fleet.ingest_ns_per_event", "ns"),
    ("serve.fleet.sync_us", "us"),
    ("serve.fleet.checkpoint_ms", "ms"),
    ("serve.fleet.shard_skew", "ratio"),
    ("serve.fleet.wal_appends", "count"),
    ("serve.fleet.checkpoints", "count"),
    ("core.runtime.ingest_ns_per_event", "ns"),
    ("serve.server.shed_events", "count"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run found: the correctness verdict, operation counts, the
/// metrics, and JSON note lines printed ahead of the result line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
        }
    }

    /// Record an output check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.notes
                .push(format!("{{\"check_failed\": {}}}", json_str(what)));
        }
    }

    /// Attach a named JSON value (a distribution, a base, a config).
    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push(format!("{{{}: {json}}}", json_str(key)));
    }
}

impl Default for Outcome {
    fn default() -> Self {
        Self::new()
    }
}

/// What a workload is asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub budget: Duration,
    /// `Some` in the traced run.
    pub trace: Option<Arc<Recorder>>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    env::pin();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The metric names are part of the contract with BENCHMARK.json.
    let declared = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let undeclared: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .filter(|n| !declared.contains(&format!("\"name\": \"{n}\"")))
        .collect();
    if !undeclared.is_empty() {
        eprintln!("perfbench: metrics missing from ./BENCHMARK.json: {undeclared:?}");
        return ExitCode::from(2);
    }
    println!(
        "{}",
        env::stamp(&args.workload, args.seed, args.seconds, args.trace)
    );
    let cfg = RunConfig {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace.then(|| Arc::new(Recorder::new())),
    };
    let mut out = match args.workload.as_str() {
        "filter_int8" => batch::filter_int8(&cfg),
        "cep_multiquery" => batch::cep_multiquery(&cfg),
        "serve_wire" => serve::serve_wire(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    out.check(
        out.attempted > 0,
        "the run attempted at least one operation",
    );

    // The metric set is part of the contract: exactly the listed names,
    // each a finite number.
    let expected: Vec<&str> = if args.trace { PER_LAYER } else { END_TO_END }
        .iter()
        .map(|(n, _)| *n)
        .collect();
    let got: Vec<&str> = out.metrics.names().collect();
    let mut want = expected.clone();
    want.sort_unstable();
    if got != want {
        eprintln!("perfbench: metric set mismatch: got {got:?}, want {want:?}");
        return ExitCode::from(3);
    }
    let bad = out.metrics.non_finite();
    if !bad.is_empty() {
        eprintln!("perfbench: non-finite metrics {bad:?}");
        return ExitCode::from(3);
    }
    if let Some(rec) = &cfg.trace {
        let path = std::path::PathBuf::from(".perfbench_out")
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        match rec.write_json(&path) {
            Ok(()) => out.note("spans_file", json_str(&path.to_string_lossy())),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(3);
            }
        }
        out.note("spans_recorded", rec.len().to_string());
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    ExitCode::SUCCESS
}
