//! `attack_static` and `attack_dynamic_gs`: PassFlow-Static and
//! PassFlow-Dynamic+GS against the paper-protocol test split, one shard per
//! core.

use std::time::Instant;

use passflow_core::{Attack, AttackOutcome, Guesser, GuessingStrategy, PassFlow};

use crate::measure::{fnv1a, median, nproc, CpuWindow, Report};
use crate::setup::{self, Corpus};
use crate::timed::{union_secs, SpanKind, TimedGuesser};
use crate::{set_up, Args};

/// Guesses per static attack.
const STATIC_BUDGET: u64 = 200_000;
/// Guesses per Dynamic+GS attack (per-batch feedback serialises it).
const DYNAMIC_BUDGET: u64 = 100_000;

/// Which of the paper's strategies the workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// PassFlow-Static.
    Static,
    /// PassFlow-Dynamic+GS with the paper's parameters.
    DynamicGs,
}

impl Strategy {
    fn budget(self) -> u64 {
        match self {
            Strategy::Static => STATIC_BUDGET,
            Strategy::DynamicGs => DYNAMIC_BUDGET,
        }
    }

    fn guessing(self) -> GuessingStrategy {
        match self {
            Strategy::Static => GuessingStrategy::Static,
            Strategy::DynamicGs => GuessingStrategy::paper_default(self.budget()),
        }
    }
}

/// Runs one attack of `budget` guesses.
fn attack(
    corpus: &Corpus,
    guesser: &dyn Guesser,
    strategy: Strategy,
    budget: u64,
    seed: u64,
) -> passflow_core::Result<AttackOutcome> {
    Attack::new(&corpus.targets)
        .budget(budget)
        .strategy(strategy.guessing())
        .seed(seed)
        .shards(nproc())
        .run(guesser)
}

/// The outcome digest the gates compare: the final report, every
/// checkpoint, the matched list and the non-matched samples.
fn outcome_digest(outcome: &AttackOutcome) -> u64 {
    fnv1a(format!("{outcome:?}").as_bytes())
}

/// Per-attack layer figures from one traced attack.
struct Layers {
    wall_s: f64,
    union_s: f64,
    generate_s: f64,
    generate_calls: f64,
    rows_per_call: f64,
    inverse_s: f64,
    inverse_rows_per_call: f64,
    decode_s: f64,
    self_s: f64,
    busy_share: f64,
    skew: f64,
    core_idle_share: f64,
    gflops: f64,
}

fn layers(timed: &TimedGuesser<'_>, wall: f64, shards: usize, flops_per_row: f64) -> Layers {
    let spans = timed.log().spans();
    let of = |kind| spans.iter().filter(move |s| s.kind == kind);
    let sum = |kind| of(kind).map(|s| s.secs()).sum::<f64>();
    let rows = |kind| of(kind).map(|s| s.rows).sum::<usize>() as f64;
    let calls = |kind| of(kind).count() as f64;
    let per_call = |kind| rows(kind) / calls(kind).max(1.0);

    let generate_s = sum(SpanKind::Generate);
    let inverse_s = sum(SpanKind::Inverse);
    let decode_s = timed.log().decode_secs();
    // Decode calls sit outside the inverse spans on the generating thread,
    // so on the serial Dynamic+GS path they add to the spans' union.
    let union_s = union_secs(&spans);
    let self_s = (wall - union_s - decode_s).max(0.0);

    let mut per_session = vec![0.0f64; shards.max(1)];
    for span in &spans {
        if let Some(busy) = per_session.get_mut(span.session as usize) {
            *busy += span.secs();
        }
    }
    let mean = per_session.iter().sum::<f64>() / per_session.len() as f64;
    let busy = generate_s + inverse_s + decode_s;
    // Static batches include the prior draw and decode, so their rate is a
    // lower bound on the inverse's own.
    let (flop_rows, flop_secs) = if inverse_s > 0.0 {
        (rows(SpanKind::Inverse), inverse_s)
    } else {
        (rows(SpanKind::Generate), generate_s)
    };
    Layers {
        wall_s: wall,
        union_s,
        generate_s,
        generate_calls: calls(SpanKind::Generate),
        rows_per_call: per_call(SpanKind::Generate),
        inverse_s,
        inverse_rows_per_call: per_call(SpanKind::Inverse),
        decode_s,
        self_s,
        busy_share: busy / (wall * shards as f64),
        skew: per_session.iter().copied().fold(0.0, f64::max) / mean.max(f64::MIN_POSITIVE),
        core_idle_share: (1.0 - (busy + self_s) / (wall * nproc() as f64)).max(0.0),
        gflops: flops_per_row * flop_rows / flop_secs.max(f64::MIN_POSITIVE) * 1e-9,
    }
}

/// Attacks of one phase: wall times, outcome digests and the last outcome.
#[derive(Default)]
struct Phase {
    secs: Vec<f64>,
    digests: Vec<u64>,
    unique: u64,
    matched: u64,
    layers: Vec<Layers>,
}

/// Runs the workload and fills `report`.
pub fn run(strategy: Strategy, args: &Args, report: &mut Report) {
    let name = args.workload.as_str();
    let workers = nproc();
    let (corpus, flow) = set_up(
        report,
        args,
        |seed| {
            let corpus = setup::corpus(seed);
            let flow = setup::trained_flow(&corpus, seed, workers);
            (corpus, flow)
        },
        |(_, flow)| setup::weights_digest(flow),
    );

    let budget = strategy.budget();
    // Warm-up: the first attack exports the weight snapshot the sessions
    // share; users pay that once per model, not per attack.
    let _ = attack(&corpus, &flow, strategy, budget / 10, args.seed);

    let phase_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let cpu = CpuWindow::start();
    let untraced = measure(
        &corpus, &flow, strategy, args.seed, phase_secs, false, report,
    );
    let traced = args.trace.then(|| {
        measure(
            &corpus, &flow, strategy, args.seed, phase_secs, true, report,
        )
    });
    let cpu_share = cpu.share();

    let reference = untraced.digests.first().copied();
    let all = untraced
        .digests
        .iter()
        .chain(traced.iter().flat_map(|t| &t.digests));
    for (i, digest) in all.enumerate() {
        report.gate(Some(*digest) == reference, || {
            format!(
                "{name}: attack {i} outcome digest {digest:016x} differs from {reference:016x?}"
            )
        });
    }
    if let Some(digest) = reference {
        eprintln!(
            "{name}: outcome digest {digest:016x}, {} unique guesses, {} targets matched, \
             attack seconds {:.3?}",
            untraced.unique, untraced.matched, untraced.secs
        );
    }

    let rate = |phase: &Phase| {
        median(
            &phase
                .secs
                .iter()
                .map(|t| budget as f64 / t)
                .collect::<Vec<_>>(),
        )
    };
    let op_ms = |phase: &Phase| median(&phase.secs) * 1e3;
    report.set("items_per_s", rate(&untraced));
    report.set("op_p50_ms", op_ms(&untraced));
    report.named("guesses_per_s", rate(&untraced));
    report.named("unique_guesses", untraced.unique as f64);

    if let Some(traced) = traced {
        let m = |f: fn(&Layers) -> f64| median(&traced.layers.iter().map(f).collect::<Vec<_>>());
        report.set("engine.generate_s", m(|l| l.generate_s));
        report.set("engine.generate_calls", m(|l| l.generate_calls));
        report.set("engine.rows_per_call", m(|l| l.rows_per_call));
        report.set("engine.self_s", m(|l| l.self_s));
        report.set("engine.shard_busy_share", m(|l| l.busy_share));
        report.set("engine.shard_skew", m(|l| l.skew));
        report.set("engine.core_idle_share", m(|l| l.core_idle_share));
        report.set("fastpath.gflops", m(|l| l.gflops));
        report.set("fastpath.inverse_s", m(|l| l.inverse_s));
        report.set(
            "fastpath.inverse_rows_per_call",
            m(|l| l.inverse_rows_per_call),
        );
        report.set("passwords.decode_s", m(|l| l.decode_s));
        report.set("engine.unique_guesses", untraced.unique as f64);
        report.set("engine.unique_rate", untraced.unique as f64 / budget as f64);
        report.set("trace.items_per_s_ratio", rate(&traced) / rate(&untraced));
        report.set("trace.op_p50_ms_ratio", op_ms(&traced) / op_ms(&untraced));
        report.set("proc.cpu_share", cpu_share);
        println!(
            "{name}: traced attack wall {:.3} s = span union {:.3} s + decode {:.3} s + engine \
             self {:.3} s (medians over {} attacks)",
            m(|l| l.wall_s),
            m(|l| l.union_s),
            m(|l| l.decode_s),
            m(|l| l.self_s),
            traced.layers.len()
        );
        println!(
            "{name}: fastpath.gflops counts 2 FLOPs per multiply-accumulate of the \
             architecture's linear layers ({:.0} per row){}",
            setup::inverse_flops_per_row(flow.config()),
            if strategy == Strategy::Static {
                ", over whole generate_batch calls"
            } else {
                ""
            }
        );
    }
}

/// Repeats the attack for `phase_secs` (at least twice), through a
/// [`TimedGuesser`] when `traced`.
fn measure(
    corpus: &Corpus,
    flow: &PassFlow,
    strategy: Strategy,
    seed: u64,
    phase_secs: f64,
    traced: bool,
    report: &mut Report,
) -> Phase {
    let flops_per_row = setup::inverse_flops_per_row(flow.config());
    let budget = strategy.budget();
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.secs.len() < 2 || start.elapsed().as_secs_f64() < phase_secs {
        let timed = TimedGuesser::new(flow);
        let guesser: &dyn Guesser = if traced { &timed } else { flow };
        report.attempted += 1;
        let t0 = Instant::now();
        let outcome = attack(corpus, guesser, strategy, budget, seed);
        let secs = t0.elapsed().as_secs_f64();
        match outcome {
            Ok(outcome) => {
                phase.secs.push(secs);
                phase.digests.push(outcome_digest(&outcome));
                phase.unique = outcome.final_report().unique;
                phase.matched = outcome.final_report().matched;
                if traced {
                    phase
                        .layers
                        .push(layers(&timed, secs, nproc(), flops_per_row));
                }
            }
            Err(e) => {
                eprintln!("attack failed: {e}");
                report.failed += 1;
                if report.failed > 3 {
                    break;
                }
            }
        }
    }
    phase
}
