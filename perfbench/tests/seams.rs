//! The timing seams must not change results: an attack through
//! `TimedGuesser` and store reads through `TimedStoreIo` give exactly what
//! the unwrapped program gives.

use std::collections::HashSet;

use passflow_core::{Attack, FlowConfig, Guesser, GuessingStrategy, PassFlow};
use passflow_perfbench::timed::{SpanKind, TimedGuesser, TimedStoreIo};
use passflow_store::{DigestConfig, DigestStore, DigestStoreBuilder, FileIo};

fn flow() -> PassFlow {
    PassFlow::new(FlowConfig::tiny(), &mut passflow_nn::rng::seeded(7)).unwrap()
}

/// Targets drawn from the flow itself, so attacks match some of them and
/// Dynamic Sampling's feedback actually runs.
fn targets(flow: &PassFlow) -> HashSet<String> {
    flow.sample_passwords(300, &mut passflow_nn::rng::seeded(8))
        .into_iter()
        .collect()
}

fn attack(targets: &HashSet<String>, strategy: GuessingStrategy, shards: usize) -> Attack<'_> {
    Attack::new(targets)
        .budget(6_000)
        .batch_size(256)
        .checkpoints(vec![1_000, 3_000])
        .strategy(strategy)
        .seed(3)
        .shards(shards)
}

#[test]
fn wrapped_attacks_match_unwrapped_ones() {
    let flow = flow();
    let targets = targets(&flow);
    for strategy in [
        GuessingStrategy::Static,
        GuessingStrategy::paper_default(6_000),
    ] {
        for shards in [1, 2] {
            let plain = attack(&targets, strategy.clone(), shards)
                .run(&flow)
                .unwrap();
            let timed = TimedGuesser::new(&flow);
            let wrapped = attack(&targets, strategy.clone(), shards)
                .run(&timed)
                .unwrap();
            assert_eq!(wrapped, plain, "{strategy:?} at {shards} shards");
            assert!(
                plain.final_report().matched > 0,
                "the fixture must match targets"
            );

            let spans = timed.log().spans();
            let rows: usize = spans.iter().map(|s| s.rows).sum();
            assert_eq!(rows, 6_000, "every guess passes through a timed span");
            let kind = if strategy == GuessingStrategy::Static {
                SpanKind::Generate
            } else {
                SpanKind::Inverse
            };
            assert!(spans.iter().all(|s| s.kind == kind));
            if kind == SpanKind::Inverse {
                assert!(timed.log().decode_calls() >= 6_000);
            }
        }
    }
}

#[test]
fn wrapped_guesser_keeps_the_guessers_identity() {
    let flow = flow();
    let timed = TimedGuesser::new(&flow);
    assert_eq!(timed.name(), flow.name());
    assert_eq!(timed.state_digest(), flow.state_digest());
    assert!(timed.as_latent().is_some());
    let mut a = passflow_nn::rng::seeded(1);
    let mut b = passflow_nn::rng::seeded(1);
    assert_eq!(
        timed.generate_batch(64, &mut a),
        flow.generate_batch(64, &mut b)
    );
}

#[test]
fn range_and_contains_match_through_the_timed_store_io() {
    let dir = std::env::temp_dir().join(format!("perfbench-seams-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default()).with_scratch_dir(&dir);
    for i in 0..5_000 {
        builder.add_password(&format!("password{i}")).unwrap();
    }
    builder.finish(&path).unwrap();

    let plain = DigestStore::open(&path).unwrap();
    let io = TimedStoreIo::new(Box::new(FileIo::open(&path).unwrap()));
    let stats = io.stats();
    let timed = DigestStore::open_with_io(&path, Box::new(io)).unwrap();

    for prefix in ["00000", "5BAA6", "7C4A8", "ABCDE", "FFFFF"] {
        assert_eq!(
            timed.range(prefix).unwrap(),
            plain.range(prefix).unwrap(),
            "{prefix}"
        );
    }
    for pw in ["password0", "password4999", "password5000", "hunter2"] {
        assert_eq!(
            timed.contains_password(pw).unwrap(),
            plain.contains_password(pw).unwrap(),
            "{pw}"
        );
    }
    assert!(stats.reads() > 0 && stats.read_secs() > 0.0);

    stats.set_enabled(false);
    let reads = stats.reads();
    assert_eq!(timed.range("5BAA6").unwrap(), plain.range("5BAA6").unwrap());
    assert_eq!(stats.reads(), reads, "a disabled wrapper only forwards");
    std::fs::remove_dir_all(&dir).unwrap();
}
