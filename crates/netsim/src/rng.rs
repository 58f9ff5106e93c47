//! Per-node deterministic RNG streams.
//!
//! The historical engine drew every random decision — timer stagger, link
//! loss, mobility steps, state corruption — from one shared `ChaCha8Rng`,
//! which made the *consumption order* part of the pinned traces and forced
//! every phase that touches randomness into one global order. This module
//! is the alternative: each `(node, purpose)` pair owns an independent ChaCha8
//! stream whose seed is a pure function of `(run_seed, node_id, tag)`, so a
//! node's draws are identical no matter when the stream is first touched or
//! what the rest of the population does.
//!
//! Streams are created lazily and keyed in a `BTreeMap`, so the *set* of
//! streams a run materialises may depend on the schedule but their contents
//! never do. Seeds are derived through the same canonical SHA-256 the trace
//! digests use ([`CanonicalHasher`]), keeping the derivation stable across
//! platforms and refactors.

use crate::digest::CanonicalHasher;
use dyngraph::NodeId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Which RNG regime the simulator runs under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RngStreams {
    /// One shared `ChaCha8Rng` seeded from `SimConfig::seed`; every draw
    /// site consumes the same stream in event order. This reproduces the
    /// historical traces bit-for-bit and is the default for embedders.
    #[default]
    Legacy,
    /// Independent per-`(node, tag)` ChaCha8 streams seeded as
    /// `hash(run_seed, node_id, tag)`. A node's randomness no longer
    /// depends on how many draws the rest of the population made before
    /// it.
    PerNode,
}

/// Stream tag for the initial timer-phase stagger draws.
pub const TAG_PHASE: &str = "phase";
/// Stream tag for channel/link decisions (drawn on the *sender's* stream).
pub const TAG_CHANNEL: &str = "channel";
/// Stream tag for mobility-model draws.
pub const TAG_MOBILITY: &str = "mobility";
/// Stream tag for fault-injection (state corruption) draws.
pub const TAG_FAULT: &str = "fault";

/// Derive the seed of one per-node stream. Pure function of its inputs:
/// the canonical SHA-256 of `(domain, run_seed, node, tag)`, truncated to
/// the first eight bytes little-endian.
pub fn stream_seed(run_seed: u64, node: NodeId, tag: &str) -> u64 {
    let mut hasher = CanonicalHasher::new();
    hasher.feed_str("netsim-rng-stream");
    hasher.feed_u64(run_seed);
    hasher.feed_u64(node.raw());
    hasher.feed_str(tag);
    let digest = hasher.finalize();
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&digest.0[..8]);
    u64::from_le_bytes(bytes)
}

/// Lazily-materialised collection of per-node streams for one run.
///
/// Lookup is keyed (`BTreeMap`) and creation is lazy, so streams are
/// independent of the order in which the engine first touches them.
#[derive(Debug)]
pub struct NodeStreams {
    run_seed: u64,
    streams: BTreeMap<(NodeId, &'static str), ChaCha8Rng>,
}

impl NodeStreams {
    /// Create the (empty) stream set for a run seed.
    pub fn new(run_seed: u64) -> Self {
        NodeStreams {
            run_seed,
            streams: BTreeMap::new(),
        }
    }

    /// Borrow the stream for `(node, tag)`, creating it at its derived
    /// seed on first use.
    pub fn stream(&mut self, node: NodeId, tag: &'static str) -> &mut ChaCha8Rng {
        let run_seed = self.run_seed;
        self.streams
            .entry((node, tag))
            .or_insert_with(|| ChaCha8Rng::seed_from_u64(stream_seed(run_seed, node, tag)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn stream_seed_is_a_pure_function() {
        let a = stream_seed(7, NodeId(3), TAG_CHANNEL);
        let b = stream_seed(7, NodeId(3), TAG_CHANNEL);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_seed_separates_nodes_tags_and_runs() {
        let base = stream_seed(7, NodeId(3), TAG_CHANNEL);
        assert_ne!(base, stream_seed(7, NodeId(4), TAG_CHANNEL));
        assert_ne!(base, stream_seed(7, NodeId(3), TAG_MOBILITY));
        assert_ne!(base, stream_seed(8, NodeId(3), TAG_CHANNEL));
    }

    #[test]
    fn streams_are_independent_of_first_touch_order() {
        // touching B before A must not change A's draws
        let mut forward = NodeStreams::new(42);
        let a_first: u64 = forward.stream(NodeId(1), TAG_CHANNEL).gen();

        let mut reversed = NodeStreams::new(42);
        let _ = reversed.stream(NodeId(2), TAG_CHANNEL).gen::<u64>();
        let _ = reversed.stream(NodeId(2), TAG_MOBILITY).gen::<u64>();
        let a_second: u64 = reversed.stream(NodeId(1), TAG_CHANNEL).gen();

        assert_eq!(a_first, a_second);
    }
}
