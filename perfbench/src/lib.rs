//! A seeded benchmark of PassFlow's three uses — guessing, training and
//! serving — measured end to end and, in a traced run, layer by layer
//! through the program's public seams only.
//!
//! Run it with `python3 perfbench/run.py --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` from the repository root; `README.md` next
//! to this crate describes the workloads and metrics.

pub mod attack;
pub mod measure;
pub mod serve;
pub mod setup;
pub mod timed;
pub mod train;

use std::path::PathBuf;
use std::time::Instant;

use measure::{median, Report};

/// Set-ups per run, each in its own process; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["attack_static", "attack_dynamic_gs", "train", "serve_mixed"];

/// End-to-end metrics (untraced runs) and their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics (traced runs) and their units. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("engine.generate_s", "s"),
    ("engine.generate_calls", "count"),
    ("engine.rows_per_call", "count"),
    ("engine.self_s", "s"),
    ("engine.shard_busy_share", "share"),
    ("engine.shard_skew", "ratio"),
    ("engine.core_idle_share", "share"),
    ("engine.unique_guesses", "count"),
    ("engine.unique_rate", "share"),
    ("fastpath.gflops", "GFLOP/s"),
    ("fastpath.inverse_s", "s"),
    ("fastpath.inverse_rows_per_call", "count"),
    ("passwords.decode_s", "s"),
    ("passwords.encode_s", "s"),
    ("train.nll_grad_s", "s"),
    ("nn.optim_step_s", "s"),
    ("train.other_s", "s"),
    ("train.final_nll", "nats"),
    ("serve.p99_ms", "ms"),
    ("serve.score_p50_ms", "ms"),
    ("serve.logprob_p50_ms", "ms"),
    ("serve.screen_p50_ms", "ms"),
    ("serve.http_rtt_p50_ms", "ms"),
    ("serve.batch_rows_mean", "count"),
    ("serve.ticks", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.generator_late_p99_ms", "ms"),
    ("strength.scorer_us_per_pw", "us"),
    ("store.read_s", "s"),
    ("store.reads", "count"),
    ("proc.cpu_share", "share"),
    ("failed_frac", "share"),
    ("trace.items_per_s_ratio", "ratio"),
    ("trace.op_p50_ms_ratio", "ratio"),
];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Scratch directory for this run (removed by the caller).
    pub tmp: PathBuf,
    /// Build the workload's state once, print the set-up time and exit.
    pub setup_only: bool,
}

/// Builds a workload's state from the run's seed and records `setup_s`:
/// the median over [`SETUPS`] set-ups, each in a fresh process (this one
/// and `SETUPS - 1` children started with `--setup-only 1`), so no set-up
/// inherits another's heap and `peak_rss_mb` reflects a single one. Every
/// set-up must produce the same state, by `digest`.
///
/// With `args.setup_only`, builds once, prints `setup <seconds> <digest>`
/// and exits the process.
pub fn set_up<T>(
    report: &mut Report,
    args: &Args,
    build: impl FnOnce(u64) -> T,
    digest: impl Fn(&T) -> u64,
) -> T {
    let name = &args.workload;
    let mut secs = Vec::with_capacity(SETUPS);
    let mut digests = Vec::with_capacity(SETUPS);
    if !args.setup_only {
        for i in 1..SETUPS {
            match setup_in_child(args, i) {
                Ok((s, d)) => {
                    secs.push(s);
                    digests.push(d);
                }
                Err(e) => report.gate(false, || format!("{name}: set-up {i} failed: {e}")),
            }
        }
    }
    let t0 = Instant::now();
    let state = build(args.seed);
    let own_secs = t0.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup {own_secs:?} {:016x}", digest(&state));
        drop(state);
        std::process::exit(0);
    }
    secs.push(own_secs);
    digests.push(digest(&state));
    report.gate(digests.iter().all(|d| *d == digests[0]), || {
        format!("{name}: set-ups from one seed differ ({digests:016x?})")
    });
    report.set("setup_s", median(&secs));
    state
}

/// Runs one set-up in a child process: (seconds, digest).
fn setup_in_child(args: &Args, index: usize) -> Result<(f64, u64), String> {
    let tmp = args.tmp.join(format!("setup-{index}"));
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--setup-only", "1", "--tmp"])
        .arg(&tmp)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let mut fields = line.strip_prefix("setup ").unwrap_or_default().split(' ');
    let secs = fields.next().and_then(|v| v.parse::<f64>().ok());
    let digest = fields.next().and_then(|v| u64::from_str_radix(v, 16).ok());
    match (output.status.success(), secs, digest) {
        (true, Some(secs), Some(digest)) => Ok((secs, digest)),
        _ => Err(format!(
            "child exited with {} and printed {line:?}",
            output.status
        )),
    }
}

/// Runs `args.workload` and returns its report, holding exactly the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "attack_static" => attack::run(attack::Strategy::Static, args, &mut report),
        "attack_dynamic_gs" => attack::run(attack::Strategy::DynamicGs, args, &mut report),
        "train" => train::run(args, &mut report),
        "serve_mixed" => serve::run(args, &mut report),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    report.set("peak_rss_mb", measure::peak_rss_mb());
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("failed_frac", failed_frac);
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    Ok(report.only(wanted))
}
