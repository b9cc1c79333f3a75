//! Timing seams built on the program's public traits.
//!
//! [`TimedGuesser`] wraps any [`Guesser`] (and its [`LatentGuesser`] view)
//! and [`TimedStoreIo`] wraps any [`StoreIo`]. Both forward every call
//! unchanged and only record how long it took, so an attack or a store
//! lookup through a wrapper gives exactly the result it gives without one
//! (`tests/seams.rs` checks this).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use passflow_core::{GuessSession, Guesser, LatentGuesser, LatentSession};
use passflow_nn::Tensor;
use passflow_store::StoreIo;
use rand::RngCore;

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// `GuessSession::generate_batch`: prior draw, inverse and decode.
    Generate,
    /// `LatentSession::latents_to_features_into`: the flow inverse.
    Inverse,
}

/// One timed call into the guesser.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call that was timed.
    pub kind: SpanKind,
    /// The session (one per engine shard) that made the call.
    pub session: u32,
    /// Rows the call produced.
    pub rows: usize,
    /// When the call started.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Everything a [`TimedGuesser`] recorded.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
    decode_ns: AtomicU64,
    decode_calls: AtomicU64,
}

impl SpanLog {
    /// The recorded spans, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Total seconds spent in `decode_features`, summed over threads.
    pub fn decode_secs(&self) -> f64 {
        self.decode_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of `decode_features` calls.
    pub fn decode_calls(&self) -> u64 {
        self.decode_calls.load(Ordering::Relaxed)
    }

    fn push(&self, kind: SpanKind, session: u32, rows: usize, start: Instant) {
        let end = Instant::now();
        self.spans.lock().expect("span log lock").push(Span {
            kind,
            session,
            rows,
            start,
            end,
        });
    }
}

/// Session id given to calls made outside any session.
pub const NO_SESSION: u32 = u32::MAX;

/// A [`Guesser`] that forwards to `inner` and times every batch.
pub struct TimedGuesser<'g> {
    inner: &'g dyn Guesser,
    log: Arc<SpanLog>,
    next_session: AtomicU32,
}

impl<'g> TimedGuesser<'g> {
    /// Wraps `inner`, recording into a fresh [`SpanLog`].
    pub fn new(inner: &'g dyn Guesser) -> Self {
        TimedGuesser {
            inner,
            log: Arc::new(SpanLog::default()),
            next_session: AtomicU32::new(0),
        }
    }

    /// The log this wrapper records into.
    pub fn log(&self) -> &SpanLog {
        &self.log
    }

    fn session_id(&self) -> u32 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    fn latent(&self) -> &'g dyn LatentGuesser {
        self.inner
            .as_latent()
            .expect("latent calls are only reachable through as_latent")
    }
}

impl Guesser for TimedGuesser<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        let start = Instant::now();
        let out = self.inner.generate_batch(n, rng);
        self.log.push(SpanKind::Generate, NO_SESSION, n, start);
        out
    }

    fn as_latent(&self) -> Option<&dyn LatentGuesser> {
        self.inner.as_latent().map(|_| self as &dyn LatentGuesser)
    }

    fn start_session(&self) -> Option<Box<dyn GuessSession + '_>> {
        // The engine falls back to calling `generate_batch` on a guesser
        // without sessions; wrapping that fallback here keeps every batch
        // attributed to the shard that made it.
        let inner = self
            .inner
            .start_session()
            .unwrap_or_else(|| Box::new(passflow_core::engine::StatelessSession(self.inner)));
        Some(Box::new(TimedSession {
            inner,
            id: self.session_id(),
            log: &self.log,
        }))
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

impl LatentGuesser for TimedGuesser<'_> {
    fn latent_dim(&self) -> usize {
        self.latent().latent_dim()
    }

    fn latents_to_features(&self, z: &Tensor) -> Tensor {
        let start = Instant::now();
        let out = self.latent().latents_to_features(z);
        self.log
            .push(SpanKind::Inverse, NO_SESSION, z.rows(), start);
        out
    }

    fn decode_features(&self, features: &[f32]) -> String {
        let start = Instant::now();
        let out = self.latent().decode_features(features);
        let ns = start.elapsed().as_nanos() as u64;
        self.log.decode_ns.fetch_add(ns, Ordering::Relaxed);
        self.log.decode_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn start_latent_session(&self) -> Option<Box<dyn LatentSession + '_>> {
        let latent = self.latent();
        let inner = latent
            .start_latent_session()
            .unwrap_or_else(|| Box::new(passflow_core::engine::StatelessLatentSession(latent)));
        Some(Box::new(TimedLatentSession {
            inner,
            id: self.session_id(),
            log: &self.log,
        }))
    }
}

struct TimedSession<'s> {
    inner: Box<dyn GuessSession + 's>,
    id: u32,
    log: &'s SpanLog,
}

impl GuessSession for TimedSession<'_> {
    fn generate_batch(&mut self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        let start = Instant::now();
        let out = self.inner.generate_batch(n, rng);
        self.log.push(SpanKind::Generate, self.id, n, start);
        out
    }
}

struct TimedLatentSession<'s> {
    inner: Box<dyn LatentSession + 's>,
    id: u32,
    log: &'s SpanLog,
}

impl LatentSession for TimedLatentSession<'_> {
    fn latents_to_features_into(&mut self, z: &Tensor, out: &mut Tensor) {
        let start = Instant::now();
        self.inner.latents_to_features_into(z, out);
        self.log.push(SpanKind::Inverse, self.id, z.rows(), start);
    }
}

/// Read counters shared between a [`TimedStoreIo`] and its owner.
#[derive(Debug, Default)]
pub struct IoStats {
    enabled: AtomicBool,
    read_ns: AtomicU64,
    reads: AtomicU64,
}

impl IoStats {
    /// Starts or stops timing; a stopped wrapper only forwards.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Seconds spent in `read_at` while enabled.
    pub fn read_secs(&self) -> f64 {
        self.read_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// `read_at` calls while enabled.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

/// A [`StoreIo`] that forwards to `inner` and times each positioned read.
#[derive(Debug)]
pub struct TimedStoreIo {
    inner: Box<dyn StoreIo>,
    stats: Arc<IoStats>,
}

impl TimedStoreIo {
    /// Wraps `inner`; timing starts enabled.
    pub fn new(inner: Box<dyn StoreIo>) -> Self {
        let stats = Arc::new(IoStats::default());
        stats.set_enabled(true);
        TimedStoreIo { inner, stats }
    }

    /// The counters, which stay readable after the store takes the wrapper.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

impl StoreIo for TimedStoreIo {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        if !self.stats.enabled.load(Ordering::Relaxed) {
            return self.inner.read_at(buf, offset);
        }
        let start = Instant::now();
        let out = self.inner.read_at(buf, offset);
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.read_ns.fetch_add(ns, Ordering::Relaxed);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn byte_len(&self) -> std::io::Result<u64> {
        self.inner.byte_len()
    }
}

/// Total length in seconds of the union of `[start, end)` intervals.
pub fn union_secs(spans: &[Span]) -> f64 {
    let mut intervals: Vec<(Instant, Instant)> = spans.iter().map(|s| (s.start, s.end)).collect();
    intervals.sort_unstable_by_key(|&(start, _)| start);
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += (e - s).as_secs_f64();
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += (e - s).as_secs_f64();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(start: Instant, from_ms: u64, to_ms: u64) -> Span {
        Span {
            kind: SpanKind::Generate,
            session: 0,
            rows: 1,
            start: start + Duration::from_millis(from_ms),
            end: start + Duration::from_millis(to_ms),
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        let t = Instant::now();
        let spans = [span(t, 0, 10), span(t, 5, 20), span(t, 30, 40)];
        assert!((union_secs(&spans) - 0.030).abs() < 1e-9);
        assert_eq!(union_secs(&[]), 0.0);
    }
}
