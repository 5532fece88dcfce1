//! The warm sentinel inventory: memoized sentinel graphs keyed by their
//! generation identity.
//!
//! PR 6 makes sentinel content a *pure function* of a [`SentinelKey`]
//! (topology pool position, operator regime, variant index) and the
//! trained state: [`crate::SentinelFactory::build_sentinel`] seeds a fresh
//! generator from the factory's generation seed and the key, so the same
//! key always yields the same graph, bit for bit. The session's
//! per-request randomness only *selects* keys (band sampling + variant
//! draws) and shuffles buckets — it never feeds graph content.
//!
//! That purity is what makes this inventory safe: it is plain
//! memoization. A warm hit returns exactly the bytes the inline path
//! would have built, so enabling or disabling the inventory — or racing
//! any number of concurrent requests through it — cannot change a single
//! wire byte. `tests/serve_latency.rs` and `tests/sentinel_pool.rs`
//! assert this across the model zoo and under concurrent interleavings.
//!
//! The inventory is bounded (capacity defaults to the full key space,
//! `topology_pool x 2 regimes x sentinel_variants`), can be disabled at
//! runtime (every draw then falls back to inline generation), and its
//! entries — memoized failures included — persist across restarts via
//! the `PRTA` artifact's sentinel section ([`crate::artifact`]).

use crate::operators::Regime;
use proteus_graph::Graph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::RwLock;

/// The generation identity of one sentinel graph. Two draws with equal
/// keys produce identical graphs (given the same trained factory), which
/// is the invariant the warm inventory and the optimized-member cache
/// both rest on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SentinelKey {
    /// Position in the trained topology pool
    /// ([`proteus_graphgen::TopologySampler::topology`]).
    pub topo: u32,
    /// Operator regime the sentinel is populated under. Ordered after
    /// `topo` so snapshots sort deterministically.
    pub regime: RegimeTag,
    /// Variant index below [`crate::ProteusConfig::sentinel_variants`],
    /// decorrelating sentinels that share a topology and regime.
    pub variant: u32,
}

/// [`Regime`] with the ordering/compactness the inventory needs for
/// canonical snapshots and the artifact codec. Kept separate so the
/// protocol-facing `Regime` stays a plain two-state enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegimeTag {
    /// [`Regime::Cnn`].
    Cnn = 0,
    /// [`Regime::Transformer`].
    Transformer = 1,
}

impl From<Regime> for RegimeTag {
    fn from(r: Regime) -> RegimeTag {
        match r {
            Regime::Cnn => RegimeTag::Cnn,
            Regime::Transformer => RegimeTag::Transformer,
        }
    }
}

impl From<RegimeTag> for Regime {
    fn from(t: RegimeTag) -> Regime {
        match t {
            RegimeTag::Cnn => Regime::Cnn,
            RegimeTag::Transformer => Regime::Transformer,
        }
    }
}

impl SentinelKey {
    /// Builds a key from its parts.
    pub fn new(topo: u32, regime: Regime, variant: u32) -> SentinelKey {
        SentinelKey {
            topo,
            regime: regime.into(),
            variant,
        }
    }
}

/// Inventory hit/miss counters and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InventoryStats {
    /// Entries currently memoized (including negative entries for keys
    /// whose population failed).
    pub len: usize,
    /// Maximum entries the inventory will hold.
    pub capacity: usize,
    /// Draws answered from the inventory.
    pub hits: usize,
    /// Draws that had to build inline (then memoized when space allowed).
    pub misses: usize,
}

/// A bounded, concurrent memo of sentinel graphs by [`SentinelKey`].
///
/// Negative results are memoized too (`None`: the keyed topology admits
/// no valid operator assignment), so a failing key costs its population
/// attempt once, not once per request.
#[derive(Debug)]
pub struct SentinelInventory {
    capacity: usize,
    enabled: AtomicBool,
    entries: RwLock<HashMap<SentinelKey, Option<Graph>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SentinelInventory {
    /// An enabled, empty inventory holding at most `capacity` entries.
    pub fn new(capacity: usize) -> SentinelInventory {
        SentinelInventory {
            capacity,
            enabled: AtomicBool::new(true),
            entries: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Whether draws consult the inventory. When disabled every draw
    /// falls back to inline generation — byte-identical output, inline
    /// cost.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables the inventory at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Maximum entries this inventory will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently memoized.
    pub fn len(&self) -> usize {
        self.entries.read().expect("inventory poisoned").len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn stats(&self) -> InventoryStats {
        InventoryStats {
            len: self.len(),
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Looks up a key, counting a hit or miss. `Some(None)` is a memoized
    /// population failure; `None` means the key has not been built yet.
    pub fn lookup(&self, key: &SentinelKey) -> Option<Option<Graph>> {
        let entries = self.entries.read().expect("inventory poisoned");
        match entries.get(key) {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a built value when capacity allows (a full inventory
    /// keeps serving what it has; new keys stay inline — the bounded,
    /// no-eviction policy keeps warm entries stable and the memory
    /// ceiling hard). Returns whether the entry was stored.
    pub fn store(&self, key: SentinelKey, value: Option<Graph>) -> bool {
        let mut entries = self.entries.write().expect("inventory poisoned");
        if entries.contains_key(&key) {
            return true;
        }
        if entries.len() >= self.capacity {
            return false;
        }
        entries.insert(key, value);
        true
    }

    /// Every memoized entry, sorted by key — the canonical order the
    /// artifact's sentinel section is encoded in. Failures are kept
    /// (`None`: the key admits no valid operator assignment), so an
    /// artifact written from a fully warmed inventory covers the whole
    /// key space and a restarted process re-proves nothing.
    pub fn snapshot(&self) -> Vec<(SentinelKey, Option<Graph>)> {
        let entries = self.entries.read().expect("inventory poisoned");
        let mut out: Vec<(SentinelKey, Option<Graph>)> =
            entries.iter().map(|(k, v)| (*k, v.clone())).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Seeds the inventory from persisted entries (the artifact's
    /// sentinel section, in [`SentinelInventory::snapshot`]'s shape:
    /// `None` is a memoized population failure), respecting capacity.
    /// Returns how many entries were stored.
    pub fn prefill(
        &self,
        entries: impl IntoIterator<Item = (SentinelKey, Option<Graph>)>,
    ) -> usize {
        let mut stored = 0;
        for (key, graph) in entries {
            if self.store(key, graph) {
                stored += 1;
            }
        }
        stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::{Activation, Op};

    fn tiny_graph(tag: u64) -> Graph {
        let mut g = Graph::new(format!("t{tag}"));
        let x = g.input([1, 3, 4, 4]);
        let r = g.add(Op::Activation(Activation::Relu), [x]);
        g.set_outputs([r]);
        g
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let inv = SentinelInventory::new(8);
        let key = SentinelKey::new(0, Regime::Cnn, 0);
        assert!(inv.lookup(&key).is_none());
        assert!(inv.store(key, Some(tiny_graph(1))));
        assert!(matches!(inv.lookup(&key), Some(Some(_))));
        let stats = inv.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn capacity_bounds_entries_without_evicting() {
        let inv = SentinelInventory::new(2);
        for topo in 0..4u32 {
            inv.store(
                SentinelKey::new(topo, Regime::Cnn, 0),
                Some(tiny_graph(topo as u64)),
            );
        }
        assert_eq!(inv.len(), 2);
        // the first two keys stayed; later stores were refused
        assert!(inv.lookup(&SentinelKey::new(0, Regime::Cnn, 0)).is_some());
        assert!(inv.lookup(&SentinelKey::new(3, Regime::Cnn, 0)).is_none());
        // re-storing an existing key reports success and changes nothing
        assert!(inv.store(SentinelKey::new(0, Regime::Cnn, 0), None));
        assert_eq!(inv.len(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_keeps_failures() {
        let inv = SentinelInventory::new(8);
        inv.store(
            SentinelKey::new(2, Regime::Transformer, 1),
            Some(tiny_graph(1)),
        );
        inv.store(SentinelKey::new(0, Regime::Cnn, 3), Some(tiny_graph(2)));
        inv.store(SentinelKey::new(1, Regime::Cnn, 0), None);
        let snap = inv.snapshot();
        let shape: Vec<(SentinelKey, bool)> = snap.iter().map(|(k, g)| (*k, g.is_some())).collect();
        assert_eq!(
            shape,
            vec![
                (SentinelKey::new(0, Regime::Cnn, 3), true),
                (SentinelKey::new(1, Regime::Cnn, 0), false),
                (SentinelKey::new(2, Regime::Transformer, 1), true),
            ]
        );
        // prefill round-trips the snapshot, failures included: the
        // memoized failure answers its key without a miss
        let other = SentinelInventory::new(8);
        assert_eq!(other.prefill(snap), 3);
        assert_eq!(other.len(), 3);
        assert_eq!(
            other.lookup(&SentinelKey::new(1, Regime::Cnn, 0)),
            Some(None)
        );
        assert_eq!(other.stats().misses, 0);
        let again: Vec<(SentinelKey, bool)> = other
            .snapshot()
            .iter()
            .map(|(k, g)| (*k, g.is_some()))
            .collect();
        assert_eq!(again, shape);
    }
}
