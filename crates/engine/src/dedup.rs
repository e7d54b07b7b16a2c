//! De-duplication (paper §3.1.4), including the signature partitioning
//! that splits the engine's dedup state into independent partitions.
//!
//! Two passes, in the paper's order:
//!
//! 1. **Exact body** — a dox whose body byte-equals a previously seen dox
//!    is a duplicate (214 files, 3.9 %, in the paper).
//! 2. **Account set** — a dox whose extracted OSN account set is non-empty
//!    and identical to a previously seen dox's set targets the same victim
//!    (788 files, 14.2 %). The paper "saw no instances of dox files which
//!    had overlapping but non-identical sets".
//!
//! ## Partitioning
//!
//! [`Deduplicator`] is stateful and order-sensitive, so the engine runs
//! it serially, in stream order, in its commit pass. The state two
//! documents share is fully determined by their *routing signature*
//! ([`shard_signature`]): the account-set key when one is extracted,
//! otherwise the body hash. Extraction is a pure function of the body, so
//! byte-identical bodies always carry identical account sets — every pair
//! of documents that could ever match lands on the same signature, and
//! therefore in the same partition under [`shard_of`]. Running one
//! `Deduplicator` per partition over its documents *in stream order*
//! yields verdicts bit-identical to one global deduplicator over the
//! whole stream, while each partition snapshots and spills on its own.

use dox_extract::record::ExtractedDox;
use dox_osn::network::Network;
use dox_store::{Store, Table};
use dox_textkit::hashing::fnv1a;
use serde::{Deserialize, Serialize};
// dox-lint:allow(determinism) see the field-level justifications on `Deduplicator`
use std::collections::HashMap;
use std::sync::Arc;

/// Why a document was marked a duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DuplicateKind {
    /// Byte-identical body.
    ExactBody,
    /// Identical extracted OSN account set.
    AccountSet,
}

/// The stable routing signature of one classified dox: the hash of its
/// non-empty account-set key, else the hash of its body.
///
/// Two documents that the §3.1.4 rules could ever pair (equal bodies or
/// equal non-empty account sets) always produce the same signature, so
/// routing by `signature % shards` never splits a duplicate pair across
/// de-duplication shards.
pub fn shard_signature(body: &str, extracted: &ExtractedDox) -> u64 {
    let key = extracted.account_set_key();
    if key.is_empty() {
        fnv1a(body.as_bytes())
    } else {
        account_set_signature(&key)
    }
}

/// The stable hash of a (sorted) account-set key.
pub fn account_set_signature(key: &[(Network, String)]) -> u64 {
    let mut bytes = Vec::with_capacity(key.len() * 16);
    for (network, handle) in key {
        bytes.extend_from_slice(network.name().as_bytes());
        bytes.push(0x1F);
        bytes.extend_from_slice(handle.as_bytes());
        bytes.push(0x1E);
    }
    fnv1a(&bytes)
}

/// The shard a signature routes to, for an `shards`-way split.
pub fn shard_of(signature: u64, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard counts are validated at engine build");
    (signature % shards.max(1) as u64) as usize
}

/// Injective byte encoding of an account-set key, used as the store key
/// for spilled entries. Length-prefixed so handles containing separator
/// bytes can never alias a different set.
pub fn account_set_key_bytes(key: &[(Network, String)]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(key.len() * 24);
    for (network, handle) in key {
        let name = network.name().as_bytes();
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name);
        bytes.extend_from_slice(&(handle.len() as u32).to_le_bytes());
        bytes.extend_from_slice(handle.as_bytes());
    }
    bytes
}

/// Configuration for store-backed dedup spill, handed to
/// [`SessionBuilder::spill`](crate::SessionBuilder::spill).
#[derive(Debug, Clone)]
pub struct DedupSpillConfig {
    /// The store every partition spills into (distinct tables per
    /// partition).
    pub store: Arc<Store>,
    /// In-memory entry cap per partition; past it, entries drain to the
    /// store and memory is cleared.
    pub cap_entries: usize,
}

/// Store-backed overflow for one dedup partition's [`Deduplicator`].
///
/// Lookups go memory-first, then to the partition's store tables; when
/// the in-memory maps grow past `cap_entries`, everything drains to the
/// store in sorted key order and memory starts empty again, so the
/// spilled bytes are a pure function of the stream. Store appends are
/// buffered in memory until the owning coordinator calls
/// [`Store::checkpoint`], so the dedup hot path never does file I/O.
///
/// Verdicts are unaffected: the union of memory and store entries is
/// exactly what the unbounded in-memory maps would hold, and a key is
/// never present in both (inserts happen only after both lookups miss).
#[derive(Debug)]
pub struct DedupSpill {
    bodies: Table<u64, u64>,
    sets: Table<Vec<u8>, u64>,
    cap_entries: usize,
}

impl DedupSpill {
    /// Spill for partition `shard`, capped at `cap_entries` in-memory
    /// entries. Partitions get disjoint tables so they stay isolated.
    pub fn new(store: Arc<Store>, shard: usize, cap_entries: usize) -> Self {
        Self {
            bodies: Table::new(Arc::clone(&store), &format!("dedup.bodies.{shard}")),
            sets: Table::new(store, &format!("dedup.sets.{shard}")),
            cap_entries,
        }
    }
}

/// Streaming de-duplicator.
///
/// ```
/// use dox_engine::dedup::{Deduplicator, DuplicateKind};
/// use dox_extract::extract;
///
/// let body = "Name: A Person\nfb: a.person9";
/// let record = extract(body);
/// let mut dedup = Deduplicator::new();
/// assert!(dedup.check(1, body, &record).is_none(), "first sighting");
/// assert_eq!(
///     dedup.check(2, body, &record),
///     Some((DuplicateKind::ExactBody, 1))
/// );
/// ```
#[derive(Debug, Default)]
pub struct Deduplicator {
    /// Hash of every body seen → first doc id.
    // dox-lint:allow(determinism) iterated only by `snapshot` and the spill drain, which both sort first; inserts follow commit order
    bodies: HashMap<u64, u64>,
    /// Account-set key → first doc id.
    // dox-lint:allow(determinism) iterated only by `snapshot` and the spill drain, which both sort first; inserts follow commit order
    account_sets: HashMap<Vec<(Network, String)>, u64>,
    /// Store-backed overflow; `None` keeps the classic all-in-memory
    /// behaviour.
    spill: Option<DedupSpill>,
}

/// A serializable snapshot of one [`Deduplicator`]'s state.
///
/// The live deduplicator keys its maps by hash for speed; the snapshot
/// flattens them into **sorted** entry lists so the serialized form is a
/// pure function of the state (the hash maps iterate in nondeterministic
/// order) and checkpoint files stay byte-stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DedupSnapshot {
    /// `(body hash, first doc id)` pairs, sorted by hash.
    pub bodies: Vec<(u64, u64)>,
    /// `(account-set key, first doc id)` pairs, sorted by key.
    pub account_sets: Vec<(Vec<(Network, String)>, u64)>,
}

impl Deduplicator {
    /// An empty deduplicator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capture this deduplicator's state as a stable snapshot (entries
    /// sorted, see [`DedupSnapshot`]).
    pub fn snapshot(&self) -> DedupSnapshot {
        let mut bodies: Vec<(u64, u64)> = self.bodies.iter().map(|(&k, &v)| (k, v)).collect();
        bodies.sort_unstable();
        let mut account_sets: Vec<(Vec<(Network, String)>, u64)> = self
            .account_sets
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        account_sets.sort();
        DedupSnapshot {
            bodies,
            account_sets,
        }
    }

    /// Rebuild a deduplicator from a snapshot. Verdicts after the restore
    /// are identical to what the snapshotted instance would have produced.
    pub fn restore(snapshot: DedupSnapshot) -> Self {
        Self {
            bodies: snapshot.bodies.into_iter().collect(),
            account_sets: snapshot.account_sets.into_iter().collect(),
            spill: None,
        }
    }

    /// Attach store-backed overflow to this deduplicator.
    ///
    /// [`snapshot`](Self::snapshot) then carries only the in-memory
    /// remainder: the full dedup state is the union of the snapshot and
    /// the store's committed tables, which the owning coordinator makes
    /// atomic by checkpointing the store and the session snapshot in one
    /// store commit.
    pub fn attach_spill(&mut self, spill: DedupSpill) {
        self.spill = Some(spill);
    }

    /// Look `body_hash` up across memory and the spill tables.
    fn lookup_body(&self, body_hash: u64) -> Option<u64> {
        if let Some(&orig) = self.bodies.get(&body_hash) {
            return Some(orig);
        }
        let spill = self.spill.as_ref()?;
        // dox-lint:allow(panic-hygiene) spill reads hit memory or an already-validated segment; failure means the store directory was yanked mid-run, which the engine surfaces as a stage panic
        spill.bodies.get(&body_hash).expect("dedup spill read")
    }

    /// Look an account-set key up across memory and the spill tables.
    fn lookup_set(&self, key: &[(Network, String)]) -> Option<u64> {
        if let Some(&orig) = self.account_sets.get(key) {
            return Some(orig);
        }
        let spill = self.spill.as_ref()?;
        spill
            .sets
            .get(&account_set_key_bytes(key))
            // dox-lint:allow(panic-hygiene) spill reads hit memory or an already-validated segment; failure means the store directory was yanked mid-run, which the engine surfaces as a stage panic
            .expect("dedup spill read")
    }

    /// Drain all in-memory entries to the spill tables once past the
    /// cap. Store puts are buffered appends (no file I/O); durability
    /// comes from the coordinator's store checkpoint.
    fn maybe_spill(&mut self) {
        let Some(spill) = &self.spill else { return };
        if self.bodies.len() + self.account_sets.len() <= spill.cap_entries {
            return;
        }
        // Sorted before the puts, like `snapshot`: the maps drain in
        // nondeterministic order, and the puts become segment bytes.
        let mut bodies: Vec<(u64, u64)> = self.bodies.drain().collect();
        bodies.sort_unstable();
        for (hash, orig) in bodies {
            // dox-lint:allow(panic-hygiene) put only appends to the store's in-memory pending buffer; it cannot do I/O
            spill.bodies.put(&hash, &orig).expect("dedup spill write");
        }
        let mut sets: Vec<(Vec<u8>, u64)> = self
            .account_sets
            .drain()
            .map(|(key, orig)| (account_set_key_bytes(&key), orig))
            .collect();
        sets.sort_unstable();
        for (key, orig) in sets {
            // dox-lint:allow(panic-hygiene) put only appends to the store's in-memory pending buffer; it cannot do I/O
            spill.sets.put(&key, &orig).expect("dedup spill write");
        }
    }

    /// Check one classified dox. Returns `Some((kind, original_doc_id))`
    /// when it duplicates an earlier document, else `None` and the
    /// document is recorded as an original.
    pub fn check(
        &mut self,
        doc_id: u64,
        body: &str,
        extracted: &ExtractedDox,
    ) -> Option<(DuplicateKind, u64)> {
        let body_hash = fnv1a(body.as_bytes());
        if let Some(orig) = self.lookup_body(body_hash) {
            return Some((DuplicateKind::ExactBody, orig));
        }

        let key = extracted.account_set_key();
        if !key.is_empty() {
            if let Some(orig) = self.lookup_set(&key) {
                // Remember the body so an exact repost of this duplicate is
                // still caught by pass 1.
                self.bodies.insert(body_hash, orig);
                self.maybe_spill();
                return Some((DuplicateKind::AccountSet, orig));
            }
        }

        self.bodies.insert(body_hash, doc_id);
        if !key.is_empty() {
            self.account_sets.insert(key, doc_id);
        }
        self.maybe_spill();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_extract::record::extract;

    const DOX_A: &str = "Name: A Person\nFacebook: facebook.com/person.a1\ntwitter: person_a1";
    const DOX_A_REWORDED: &str =
        "[posted later]\nfull dox again\nFB person.a1\ntwitter; person_a1\nUPDATE: lol";
    const DOX_B: &str = "Name: B Person\nFacebook: facebook.com/person.b2";

    type Verdict = Option<(DuplicateKind, u64)>;

    /// Feed `bodies` to `d` as docs `1..`, returning every verdict.
    fn run(d: &mut Deduplicator, bodies: &[&str]) -> Vec<Verdict> {
        (1u64..)
            .zip(bodies)
            .map(|(id, body)| d.check(id, body, &extract(body)))
            .collect()
    }

    /// The Figure 1 split of `verdicts`: `(exact, account_set, unique)`.
    fn tally(verdicts: &[Verdict]) -> (usize, usize, usize) {
        let count = |want: Option<DuplicateKind>| {
            verdicts
                .iter()
                .filter(|v| v.map(|(kind, _)| kind) == want)
                .count()
        };
        (
            count(Some(DuplicateKind::ExactBody)),
            count(Some(DuplicateKind::AccountSet)),
            count(None),
        )
    }

    #[test]
    fn exact_body_caught() {
        let mut d = Deduplicator::new();
        let verdicts = run(&mut d, &[DOX_A, DOX_A]);
        assert_eq!(verdicts, [None, Some((DuplicateKind::ExactBody, 1))]);
        assert_eq!(tally(&verdicts), (1, 0, 1));
    }

    #[test]
    fn account_set_caught_across_rewording() {
        let mut d = Deduplicator::new();
        assert!(d.check(1, DOX_A, &extract(DOX_A)).is_none());
        let dup = d.check(2, DOX_A_REWORDED, &extract(DOX_A_REWORDED));
        assert_eq!(dup, Some((DuplicateKind::AccountSet, 1)));
    }

    #[test]
    fn different_victims_not_duplicates() {
        let mut d = Deduplicator::new();
        assert_eq!(tally(&run(&mut d, &[DOX_A, DOX_B])), (0, 0, 2));
    }

    #[test]
    fn empty_account_sets_never_match_each_other() {
        let mut d = Deduplicator::new();
        let x = "no accounts here just text one";
        let y = "no accounts here either, two";
        assert!(d.check(1, x, &extract(x)).is_none());
        assert!(d.check(2, y, &extract(y)).is_none());
    }

    #[test]
    fn exact_repost_of_a_duplicate_still_caught() {
        let mut d = Deduplicator::new();
        d.check(1, DOX_A, &extract(DOX_A));
        d.check(2, DOX_A_REWORDED, &extract(DOX_A_REWORDED));
        // Repost the reworded duplicate byte-exactly.
        let again = d.check(3, DOX_A_REWORDED, &extract(DOX_A_REWORDED));
        assert_eq!(again, Some((DuplicateKind::ExactBody, 1)));
    }

    #[test]
    fn near_duplicates_without_accounts_stay_unique() {
        let mut d = Deduplicator::new();
        let base = "text without any osn accounts mentioned at all padding";
        let near = format!("{base} x");
        d.check(1, base, &extract(base));
        assert!(d.check(2, &near, &extract(&near)).is_none());
    }

    #[test]
    fn counters_add_up() {
        let mut d = Deduplicator::new();
        let verdicts = run(&mut d, &[DOX_A, DOX_A, DOX_A_REWORDED, DOX_B]);
        assert_eq!(verdicts.len(), 4);
        assert_eq!(tally(&verdicts), (1, 1, 2));
    }

    #[test]
    fn matching_docs_share_a_signature_and_shard() {
        // Reworded duplicates (same account set, different bodies).
        let a = extract(DOX_A);
        let b = extract(DOX_A_REWORDED);
        assert_eq!(a.account_set_key(), b.account_set_key());
        assert_eq!(
            shard_signature(DOX_A, &a),
            shard_signature(DOX_A_REWORDED, &b)
        );
        // Exact reposts (same body, extraction is pure so same record).
        assert_eq!(shard_signature(DOX_A, &a), shard_signature(DOX_A, &a));
        // Different victims usually diverge.
        let c = extract(DOX_B);
        assert_ne!(shard_signature(DOX_A, &a), shard_signature(DOX_B, &c));
        for shards in [1usize, 2, 7, 8] {
            assert_eq!(
                shard_of(shard_signature(DOX_A, &a), shards),
                shard_of(shard_signature(DOX_A_REWORDED, &b), shards)
            );
            assert!(shard_of(shard_signature(DOX_B, &c), shards) < shards);
        }
    }

    #[test]
    fn snapshot_restore_round_trips_state_and_verdicts() {
        let mut live = Deduplicator::new();
        live.check(1, DOX_A, &extract(DOX_A));
        live.check(2, "plain paste", &extract("plain paste"));
        live.check(3, DOX_A_REWORDED, &extract(DOX_A_REWORDED));

        let snap = live.snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let parsed: DedupSnapshot = serde_json::from_str(&json).expect("parses back");
        assert_eq!(parsed, snap);

        let mut restored = Deduplicator::restore(parsed);
        // Both instances must agree on every future verdict.
        let later = [DOX_A, DOX_A_REWORDED, DOX_B, DOX_B];
        let verdicts = run(&mut restored, &later);
        assert_eq!(verdicts, run(&mut live, &later));
        assert_eq!(tally(&verdicts), (3, 0, 1));
    }

    #[test]
    fn snapshots_are_byte_stable() {
        // HashMap iteration order varies run to run; the snapshot must not.
        let build = || {
            let mut d = Deduplicator::new();
            for (i, body) in [DOX_A, DOX_B, DOX_A_REWORDED, "x", "y", "z"]
                .iter()
                .enumerate()
            {
                d.check(i as u64, body, &extract(body));
            }
            d.snapshot()
        };
        let a = serde_json::to_string(&build()).expect("serializes");
        let b = serde_json::to_string(&build()).expect("serializes");
        assert_eq!(a, b);
    }

    #[test]
    fn spilled_dedup_matches_in_memory_verdicts() {
        let dir = std::env::temp_dir().join(format!("dox_dedup_spill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            Arc::new(Store::open(&dir, &dox_obs::Registry::new()).expect("open spill store"));

        let docs: Vec<String> = (0..24)
            .map(|i| match i % 4 {
                0 => DOX_A.to_string(),
                1 => DOX_A_REWORDED.to_string(),
                2 => DOX_B.to_string(),
                // A run of distinct originals to push past the cap.
                _ => format!("unique paste number {i} with no accounts"),
            })
            .collect();
        let docs: Vec<&str> = docs.iter().map(String::as_str).collect();

        let mut plain = Deduplicator::new();
        let mut spilled = Deduplicator::new();
        // A tiny cap forces several drain cycles over this stream.
        spilled.attach_spill(DedupSpill::new(Arc::clone(&store), 0, 3));

        let verdicts = run(&mut spilled, &docs);
        assert_eq!(verdicts, run(&mut plain, &docs));
        assert_eq!(tally(&verdicts), (15, 1, 8));
        // The snapshot carries only the in-memory remainder; the drained
        // entries live in the store.
        let remainder = spilled.snapshot();
        let full = plain.snapshot();
        assert!(remainder.bodies.len() < full.bodies.len());
        assert!(!store.is_empty(), "entries drained to the store");

        // Store survives a checkpoint + reopen and still backs verdicts.
        store.checkpoint().expect("store checkpoint");
        drop(spilled);
        drop(store);
        let store =
            Arc::new(Store::open(&dir, &dox_obs::Registry::new()).expect("reopen spill store"));
        let mut restored = Deduplicator::restore(remainder);
        restored.attach_spill(DedupSpill::new(store, 0, 3));
        for (i, body) in docs.iter().enumerate() {
            let rec = extract(body);
            let verdict = restored.check(100 + i as u64, body, &rec);
            assert!(verdict.is_some(), "doc {i} was seen before the reopen");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_dedup_matches_global_dedup() {
        // The soundness claim behind the engine: per-shard deduplicators,
        // each fed its shard's documents in stream order, reproduce the
        // global deduplicator's verdicts exactly.
        let docs: Vec<&str> = vec![
            DOX_A,
            "random paste with no accounts",
            DOX_A_REWORDED,
            DOX_B,
            DOX_A_REWORDED,
            "random paste with no accounts",
            DOX_B,
        ];
        let records: Vec<ExtractedDox> = docs.iter().map(|d| extract(d)).collect();

        let mut global = Deduplicator::new();
        let global_verdicts: Vec<_> = docs
            .iter()
            .zip(&records)
            .enumerate()
            .map(|(i, (body, rec))| global.check(i as u64, body, rec))
            .collect();

        for shards in [1usize, 2, 3, 8] {
            let mut pool: Vec<Deduplicator> = (0..shards).map(|_| Deduplicator::new()).collect();
            let sharded: Vec<_> = docs
                .iter()
                .zip(&records)
                .enumerate()
                .map(|(i, (body, rec))| {
                    let shard = shard_of(shard_signature(body, rec), shards);
                    pool[shard].check(i as u64, body, rec)
                })
                .collect();
            assert_eq!(sharded, global_verdicts, "shards = {shards}");
        }
    }
}
