//! Worker-count policy for batch scoring, and the one fan-out that
//! applies it.
//!
//! [`Parallelism`] is configured once, validated at construction, and
//! resolved to a concrete worker count only where threads are spawned —
//! in `fan_out`, which every batch-scoring entry point
//! ([`crate::mgd::hotspot_probs`], [`crate::HotspotDetector::predict_batch`],
//! [`crate::HotspotDetector::evaluate`]) splits its input through. Scoring
//! is per-sample exact (see [`hotspot_nn::engine::BatchScorer`]), so the
//! chosen worker count never changes results — only latency.

use crate::CoreError;
use serde::{Deserialize, Serialize};
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum Mode {
    Auto,
    Fixed(usize),
}

/// How many workers batch scoring fans out over.
///
/// Construct with [`Parallelism::auto`] (one worker per available core —
/// the default), [`Parallelism::serial`], or [`Parallelism::fixed`]
/// (validated: a zero worker count is rejected at construction instead of
/// surfacing at every call site).
///
/// # Examples
///
/// ```
/// use hotspot_core::Parallelism;
///
/// assert_eq!(Parallelism::serial().workers(), 1);
/// assert_eq!(Parallelism::fixed(4).unwrap().workers(), 4);
/// assert!(Parallelism::fixed(0).is_err());
/// assert!(Parallelism::default().workers() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism(Mode);

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism(Mode::Auto)
    }
}

impl Parallelism {
    /// One worker per available CPU core, resolved at use time.
    pub fn auto() -> Self {
        Parallelism(Mode::Auto)
    }

    /// Exactly one worker (no threads spawned).
    pub fn serial() -> Self {
        Parallelism(Mode::Fixed(1))
    }

    /// Exactly `workers` workers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `workers == 0`.
    pub fn fixed(workers: usize) -> Result<Self, CoreError> {
        if workers == 0 {
            return Err(CoreError::InvalidConfig(
                "parallelism requires at least one worker",
            ));
        }
        Ok(Parallelism(Mode::Fixed(workers)))
    }

    /// The concrete worker count: the fixed count, or the number of
    /// available cores (at least 1) for [`Parallelism::auto`].
    pub fn workers(&self) -> usize {
        match self.0 {
            Mode::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Mode::Fixed(n) => n,
        }
    }

    /// Whether this policy never spawns worker threads.
    pub fn is_serial(&self) -> bool {
        matches!(self.0, Mode::Fixed(1))
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Mode::Auto => write!(f, "auto"),
            Mode::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Splits `items` into one contiguous, ceil-divided chunk per worker
/// (never more workers than items), runs `work` on each chunk on a
/// crossbeam scope, and returns the per-chunk results in input order. One
/// worker runs inline on the calling thread. A worker panic is re-raised
/// with its original payload.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    parallelism: Parallelism,
    work: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    let workers = parallelism.workers().min(items.len()).max(1);
    if workers == 1 {
        return vec![work(items)];
    }
    let work = &work;
    match crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(workers))
            .map(|chunk| scope.spawn(move |_| work(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }) {
        Ok(results) => results,
        // A worker panic is a bug, not a recoverable condition: propagate
        // the original payload instead of wrapping it in a second panic.
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_resolution() {
        assert_eq!(Parallelism::serial().workers(), 1);
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::fixed(3).unwrap().workers(), 3);
        assert!(!Parallelism::fixed(3).unwrap().is_serial());
        assert!(Parallelism::auto().workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert!(matches!(
            Parallelism::fixed(0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn displays_policy() {
        assert_eq!(Parallelism::auto().to_string(), "auto");
        assert_eq!(Parallelism::fixed(8).unwrap().to_string(), "8");
    }

    #[test]
    fn fan_out_covers_every_item_in_order() {
        let items: Vec<usize> = (0..13).collect();
        for workers in [1, 2, 3, 8, 64] {
            let par = Parallelism::fixed(workers).unwrap();
            let chunks = fan_out(&items, par, |chunk| chunk.to_vec());
            // Ceil-division chunking: never more chunks than items, and
            // no trailing empty chunk (13 items / 8 workers -> 7 chunks).
            assert!(chunks.len() <= workers.min(13));
            assert!(chunks.iter().all(|c| !c.is_empty()));
            assert_eq!(chunks.concat(), items, "workers = {workers}");
        }
        assert_eq!(
            fan_out(&[] as &[u8], Parallelism::auto(), <[u8]>::len),
            vec![0]
        );
    }

    #[test]
    #[should_panic(expected = "worker bug")]
    fn fan_out_reraises_worker_panics() {
        let items = [0u8, 1, 2, 3];
        let _ = fan_out(&items, Parallelism::fixed(2).unwrap(), |chunk| {
            if chunk.contains(&3) {
                panic!("worker bug");
            }
        });
    }
}
