//! `passflow-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> --tmp <dir>`: runs one workload and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Progress goes to standard error.

use std::path::PathBuf;
use std::process::ExitCode;

use passflow_perfbench::{run, Args};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tmp = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--tmp" => tmp = Some(PathBuf::from(value)),
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        tmp: tmp.ok_or("--tmp is required")?,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("passflow-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.setup_only {
        print_provenance();
    }
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("passflow-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !report.named.is_empty() {
        let named: Vec<String> = report
            .named
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        println!("{}: {}", args.workload, named.join(" "));
    }
    const SHOWN: usize = 20;
    for mismatch in report.mismatches.iter().take(SHOWN) {
        eprintln!("correctness gate failed: {mismatch}");
    }
    if report.mismatches.len() > SHOWN {
        eprintln!(
            "... and {} more gate failures",
            report.mismatches.len() - SHOWN
        );
    }
    println!("{}", report.to_json());
    if report.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Build and host provenance: nproc, compiler, flags, SIMD tile, revision.
fn print_provenance() {
    println!(
        "provenance: nproc={} rustc=\"{}\" rustflags=\"{}\" simd_tile={} git_rev={}",
        passflow_perfbench::measure::nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_RUSTFLAGS"),
        if passflow_nn::kernels::simd_tile_available() {
            "avx2-fma-16"
        } else {
            "scalar"
        },
        std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string()),
    );
}
