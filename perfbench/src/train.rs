//! `train`: one-epoch `Trainer::train` calls from a fixed init, one
//! gradient worker per core, constant learning rate.
//!
//! The trainer has no public seam inside an epoch, so the traced run
//! replays its epoch through public layer calls, each timed: encode, the
//! per-epoch shuffle, dequantization noise, the micro-batch gradient
//! fan-out through `PassFlow::nll_grad_sum`, the fixed-order reduction and
//! the Adam steps. The replay draws from the trainer's RNG streams, so its
//! epoch mean loss must equal the trainer's `final_nll` bit for bit; a run
//! whose replay drifts from the trainer fails that gate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use passflow_core::{PassFlow, TrainConfig, Trainer};
use passflow_nn::rng as nnrng;
use passflow_nn::{Adam, GradBatch, Optimizer, Tensor};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::measure::{median, nproc, CpuWindow, Report};
use crate::setup::{self};
use crate::{set_up, Args};

/// Passwords per training call (one epoch).
const EPOCH_PASSWORDS: usize = 8_192;

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let name = args.workload.as_str();
    let workers = nproc();
    let passwords = set_up(
        report,
        args,
        |seed| {
            let mut train = setup::corpus(seed).train;
            train.truncate(EPOCH_PASSWORDS);
            train
        },
        |passwords| crate::measure::fnv1a(passwords.join("\n").as_bytes()),
    );
    let config = setup::train_config(args.seed, 1, workers);

    // Warm-up call: first-touch page faults and thread start-up.
    let _ = train_once(&passwords, &config, args.seed);

    // The traced run alternates trainer calls with replayed epochs, so
    // both see the same host conditions and their walls compare.
    let cpu = CpuWindow::start();
    let mut secs = Vec::new();
    let mut nlls = Vec::new();
    let mut epochs = Vec::new();
    let start = Instant::now();
    while secs.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        report.attempted += 1;
        match train_once(&passwords, &config, args.seed) {
            Ok((t, nll)) => {
                secs.push(t);
                nlls.push(nll);
            }
            Err(e) => {
                eprintln!("{name}: training failed: {e}");
                report.failed += 1;
                if report.failed > 3 {
                    break;
                }
            }
        }
        if args.trace {
            epochs.push(shadow_epoch(&passwords, &config, args.seed, workers));
        }
    }
    let shadow = args.trace.then_some(epochs);
    let cpu_share = cpu.share();

    let reference = nlls.first().map(|n| n.to_bits());
    for (i, nll) in nlls.iter().enumerate() {
        report.gate(Some(nll.to_bits()) == reference, || {
            format!("{name}: call {i} final_nll {nll} differs from the first call's")
        });
    }
    let final_nll = nlls.first().copied().unwrap_or(0.0);
    eprintln!(
        "{name}: final_nll {final_nll} after one epoch of {} passwords",
        passwords.len()
    );

    let rates: Vec<f64> = secs.iter().map(|t| passwords.len() as f64 / t).collect();
    report.set("items_per_s", median(&rates));
    report.set("op_p50_ms", median(&secs) * 1e3);
    report.named("train_passwords_per_s", median(&rates));
    report.named("final_nll", f64::from(final_nll));

    if let Some(epochs) = shadow {
        for (i, epoch) in epochs.iter().enumerate() {
            report.gate(epoch.mean_loss.to_bits() == final_nll.to_bits(), || {
                format!(
                    "{name}: replayed epoch {i} mean loss {} differs from the trainer's \
                     final_nll {final_nll}: the replay no longer computes what Trainer::train does",
                    epoch.mean_loss
                )
            });
        }
        let m = |f: fn(&Shadow) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
        let (encode, grads, optim) = (m(|e| e.encode_s), m(|e| e.nll_grad_s), m(|e| e.optim_s));
        let replay_wall = m(|e| e.wall_s);
        let other = (replay_wall - encode - grads - optim).max(0.0);
        let trainer_wall = median(&secs);
        println!(
            "{name}: replayed epoch wall {replay_wall:.3} s = encode {encode:.3} s + nll_grad \
             {grads:.3} s + optim {optim:.3} s + other {other:.3} s; replay/trainer wall ratio \
             {:.3} (Trainer::train call wall {trainer_wall:.3} s)",
            replay_wall / trainer_wall
        );
        report.set("passwords.encode_s", encode);
        report.set("train.nll_grad_s", grads);
        report.set("nn.optim_step_s", optim);
        report.set("train.other_s", other);
        report.set("train.final_nll", f64::from(final_nll));
        // The trainer itself runs unwrapped in the traced run: no overhead.
        report.set("trace.items_per_s_ratio", 1.0);
        report.set("trace.op_p50_ms_ratio", 1.0);
        report.set("proc.cpu_share", cpu_share);
    }
}

/// One `Trainer::train` call from the fixed init: (wall seconds, final NLL).
fn train_once(
    passwords: &[String],
    config: &TrainConfig,
    seed: u64,
) -> passflow_core::Result<(f64, f32)> {
    let flow = setup::fresh_flow(seed);
    let trainer = Trainer::new(&flow, config.clone())?;
    let t0 = Instant::now();
    let training = trainer.train(passwords)?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((secs, training.final_nll().unwrap_or(f32::NAN)))
}

/// Layer times of one replayed epoch.
struct Shadow {
    encode_s: f64,
    nll_grad_s: f64,
    optim_s: f64,
    wall_s: f64,
    /// The epoch's mean loss, as `TrainingReport::final_nll` reports it.
    mean_loss: f32,
}

/// The trainer's RNG stream offsets (`crates/core/src/train/trainer.rs`):
/// epoch shuffles and per-batch dequantization noise.
const STREAM_SHUFFLE: u64 = 1 << 41;
const STREAM_NOISE: u64 = 1 << 42;

/// Replays the first training epoch through public layer calls, timing
/// each: the same shuffle and noise streams, micro-batch partition,
/// fixed-order reduction and Adam steps as `Trainer::train`, for a
/// configuration without validation split, accumulation or schedule.
fn shadow_epoch(passwords: &[String], config: &TrainConfig, seed: u64, workers: usize) -> Shadow {
    let flow = setup::fresh_flow(seed);
    let parameters = flow.parameters();
    let mut optimizer = Adam::new(config.learning_rate);
    if let Some(clip) = config.clip_norm {
        optimizer = optimizer.with_clip_norm(clip);
    }
    let workers = passflow_nn::clamp_threads(workers);
    let amplitude = config.dequantization * flow.encoder().quantization_step();
    let wall = Instant::now();

    let t0 = Instant::now();
    let data = flow
        .encode_batch(passwords)
        .expect("the setup corpus encodes");
    let encode_s = t0.elapsed().as_secs_f64();

    let mut order: Vec<usize> = (0..data.rows()).collect();
    order.shuffle(&mut nnrng::derived(config.seed, STREAM_SHUFFLE));

    let mut nll_grad_s = 0.0;
    let mut optim_s = 0.0;
    let mut epoch_loss = 0.0f64;
    let batches = order.chunks(config.batch_size);
    let batch_count = batches.len();
    for (b, rows) in batches.enumerate() {
        let mut batch = data.select_rows(rows);
        let mut noise = nnrng::derived(config.seed, STREAM_NOISE + b as u64);
        if amplitude != 0.0 {
            for v in batch.as_mut_slice() {
                *v += noise.gen_range(-amplitude..amplitude);
            }
        }

        let t0 = Instant::now();
        let grads = micro_grads(&flow, &batch, config.micro_batch, workers);
        nll_grad_s += t0.elapsed().as_secs_f64();

        let mut pending = GradBatch::new();
        let mut loss_sum = 0.0f64;
        for (loss, g) in &grads {
            loss_sum += f64::from(*loss);
            pending.merge(g);
        }
        epoch_loss += f64::from((loss_sum / rows.len() as f64) as f32);
        pending.scale(1.0 / rows.len() as f32);
        pending.apply();
        let t0 = Instant::now();
        optimizer.step(&parameters);
        optim_s += t0.elapsed().as_secs_f64();
    }
    Shadow {
        encode_s,
        nll_grad_s,
        optim_s,
        wall_s: wall.elapsed().as_secs_f64(),
        mean_loss: (epoch_loss / batch_count.max(1) as f64) as f32,
    }
}

/// `nll_grad_sum` over every micro-batch of `batch` on `workers` threads
/// pulling from a shared counter, as the trainer fans them out.
fn micro_grads(
    flow: &PassFlow,
    batch: &Tensor,
    micro: usize,
    workers: usize,
) -> Vec<(f32, GradBatch)> {
    let cols = batch.cols();
    let ranges: Vec<(usize, usize)> = (0..batch.rows())
        .step_by(micro.max(1))
        .map(|s| (s, micro.min(batch.rows() - s)))
        .collect();
    let grad = |(start, len): (usize, usize)| {
        let rows = batch.as_slice()[start * cols..(start + len) * cols].to_vec();
        flow.nll_grad_sum(&Tensor::from_vec(len, cols, rows).expect("micro-batch shape"))
    };
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, (f32, GradBatch))> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(ranges.len()).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&range) = ranges.get(i) else {
                            return mine;
                        };
                        mine.push((i, grad(range)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("gradient thread"))
            .collect()
    });
    out.sort_unstable_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, g)| g).collect()
}
