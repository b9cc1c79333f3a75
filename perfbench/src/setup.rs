//! The seeded inputs every workload shares: one synthetic corpus, split
//! the paper's way, and the 8×64 evaluation flow trained on it.

use std::collections::HashSet;

use passflow_core::{FlowConfig, Guesser, PassFlow, TrainConfig, Trainer};
use passflow_passwords::{CorpusConfig, SyntheticCorpusGenerator};

/// Password instances in the synthetic corpus.
pub const CORPUS_SIZE: usize = 30_000;
/// Training passwords the setup flow sees.
pub const SETUP_TRAIN_PASSWORDS: usize = 4_096;
/// Epochs the setup flow trains for.
pub const SETUP_EPOCHS: usize = 2;

/// The corpus after the paper's 80/20 split.
pub struct Corpus {
    /// Training instances (with duplicates, like a leak).
    pub train: Vec<String>,
    /// The cleaned, unique test set the attacks target.
    pub targets: HashSet<String>,
}

/// Generates the corpus for `seed` and splits it 80/20.
pub fn corpus(seed: u64) -> Corpus {
    let corpus =
        SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(CORPUS_SIZE)).generate(seed);
    let split = corpus.paper_split(0.8, usize::MAX, seed);
    Corpus {
        targets: split.test_set(),
        train: split.train,
    }
}

/// The untrained evaluation flow every workload starts from.
pub fn fresh_flow(seed: u64) -> PassFlow {
    PassFlow::new(
        FlowConfig::evaluation(),
        &mut passflow_nn::rng::seeded(seed),
    )
    .expect("the evaluation architecture is valid")
}

/// The training configuration: the evaluation setup (constant learning
/// rate) with one gradient worker per core.
pub fn train_config(seed: u64, epochs: usize, workers: usize) -> TrainConfig {
    TrainConfig::evaluation()
        .with_epochs(epochs)
        .with_grad_workers(workers)
        .with_seed(seed)
}

/// Trains the attack/serve flow on the first training passwords.
pub fn trained_flow(corpus: &Corpus, seed: u64, workers: usize) -> PassFlow {
    let flow = fresh_flow(seed);
    let passwords = &corpus.train[..SETUP_TRAIN_PASSWORDS.min(corpus.train.len())];
    Trainer::new(&flow, train_config(seed, SETUP_EPOCHS, workers))
        .and_then(|trainer| trainer.train(passwords))
        .expect("setup training converges");
    flow
}

/// A digest of the flow's weights, compared across repeated set-ups.
pub fn weights_digest(flow: &PassFlow) -> u64 {
    flow.state_digest().expect("flows have a weight digest")
}

/// FLOPs of one row through the flow inverse, counted from the
/// architecture's tensor sizes: every coupling layer runs a scale and a
/// translation ResNet of `dim → hidden`, `blocks × (hidden → hidden →
/// hidden)` and `hidden → dim` linear layers, two FLOPs per
/// multiply-accumulate. Element-wise work is not counted.
pub fn inverse_flops_per_row(config: &FlowConfig) -> f64 {
    let dim = config.max_len as f64;
    let hidden = config.hidden_size as f64;
    let blocks = config.residual_blocks as f64;
    let macs_per_net = dim * hidden + blocks * 2.0 * hidden * hidden + hidden * dim;
    2.0 * 2.0 * macs_per_net * config.coupling_layers as f64
}
