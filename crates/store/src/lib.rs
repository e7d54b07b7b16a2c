//! dox-store: a dependency-free embedded log-structured segment store.
//!
//! The crash-safety workhorse behind the pipeline's hot state: dedup
//! shard spill, study checkpoints and serve tenant sessions all persist
//! through this crate. Data lives in
//! append-only segments of CRC-framed records (see [`scan`]); the single
//! durable commit point is an atomically swapped manifest
//! (see [`Manifest`]); recovery truncates torn tails instead of failing
//! ([`Store::open`]); and compaction runs only at checkpoint boundaries
//! — no background threads, no non-vendored dependencies.
//!
//! Raw byte access is [`Store`]; applications use [`Table`] for typed
//! keys and values with a per-table key prefix.

#![forbid(unsafe_code)]

mod manifest;
mod segment;
mod store;

pub use manifest::{Manifest, SegmentMeta, MANIFEST_NAME, MANIFEST_VERSION};
pub use segment::{crc32, decode_record, encode_record, scan, Record, Scan};
pub use store::{RawEntry, Store, StoreOptions};

use std::borrow::Cow;
use std::sync::Arc;

/// Everything that can go wrong inside the store.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure, tagged with what the store was doing.
    Io {
        /// What the store was doing when the error hit.
        context: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// On-disk state that fails validation and cannot be recovered by
    /// truncating a tail — e.g. a tampered manifest or missing
    /// committed bytes.
    Corrupt {
        /// Human-readable description of what failed validation.
        detail: String,
    },
    /// An armed fault-drill kill fired (see [`Store::arm_kill`]); the
    /// process should treat this as its simulated death.
    Killed {
        /// 1-based checkpoint ordinal the kill was armed for.
        ordinal: u64,
        /// Where inside the commit the kill landed.
        point: dox_fault::StoreKillPoint,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "store i/o ({context}): {source}"),
            StoreError::Corrupt { detail } => write!(f, "store corrupt: {detail}"),
            StoreError::Killed { ordinal, point } => {
                write!(f, "store kill drill fired at commit {ordinal} ({point:?})")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// How a type is used as a table key.
///
/// Key encodings must be order-preserving within a table when scan
/// order matters (hence big-endian integers) and must never produce a
/// byte string containing the table separator semantics — keys are
/// length-delimited by the record frame, so any bytes are safe.
pub trait KeyCodec: Sized {
    /// Append the encoded key to `out`.
    fn encode_key(&self, out: &mut Vec<u8>);
    /// Decode a key previously produced by [`KeyCodec::encode_key`].
    fn decode_key(bytes: &[u8]) -> Option<Self>;
}

/// How a type is stored as a table value.
pub trait ValueCodec: Sized {
    /// The value's bytes, borrowed when the value already holds them.
    fn encode_value(&self) -> Cow<'_, [u8]>;
    /// Decode a value previously produced by [`ValueCodec::encode_value`].
    fn decode_value(bytes: &[u8]) -> Option<Self>;
}

impl KeyCodec for u64 {
    fn encode_key(&self, out: &mut Vec<u8>) {
        // Big-endian so lexicographic key order is numeric order.
        out.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_key(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_be_bytes(bytes.try_into().ok()?))
    }
}

impl KeyCodec for Vec<u8> {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode_key(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl KeyCodec for String {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_key(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl ValueCodec for u64 {
    fn encode_value(&self) -> Cow<'_, [u8]> {
        Cow::Owned(self.to_be_bytes().to_vec())
    }
    fn decode_value(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_be_bytes(bytes.try_into().ok()?))
    }
}

impl ValueCodec for Vec<u8> {
    fn encode_value(&self) -> Cow<'_, [u8]> {
        Cow::Borrowed(self)
    }
    fn decode_value(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl ValueCodec for String {
    fn encode_value(&self) -> Cow<'_, [u8]> {
        Cow::Borrowed(self.as_bytes())
    }
    fn decode_value(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// A typed view over a [`Store`], namespaced by a table name.
///
/// Keys are stored as `<table name> 0x00 <encoded key>`; the `0x00`
/// separator keeps `dedup.sets.1` from shadowing `dedup.sets.10`
/// because table names never contain NUL.
#[derive(Debug, Clone)]
pub struct Table<K, V> {
    store: Arc<Store>,
    prefix: Vec<u8>,
    _marker: std::marker::PhantomData<fn(&K) -> V>,
}

impl<K: KeyCodec, V: ValueCodec> Table<K, V> {
    /// A typed table named `name` over `store`.
    ///
    /// # Panics
    /// If `name` contains a NUL byte (it is the key-space separator).
    pub fn new(store: Arc<Store>, name: &str) -> Table<K, V> {
        assert!(
            !name.as_bytes().contains(&0),
            "table names must not contain NUL"
        );
        let mut prefix = name.as_bytes().to_vec();
        prefix.push(0);
        Table {
            store,
            prefix,
            _marker: std::marker::PhantomData,
        }
    }

    fn full_key(&self, key: &K) -> Vec<u8> {
        let mut full = self.prefix.clone();
        key.encode_key(&mut full);
        full
    }

    /// Insert or replace `key`.
    pub fn put(&self, key: &K, value: &V) -> Result<(), StoreError> {
        self.store.put(&self.full_key(key), &value.encode_value())
    }

    /// Fetch the current value of `key`.
    pub fn get(&self, key: &K) -> Result<Option<V>, StoreError> {
        match self.store.get(&self.full_key(key))? {
            Some(bytes) => match V::decode_value(&bytes) {
                Some(v) => Ok(Some(v)),
                None => Err(StoreError::Corrupt {
                    detail: "table value failed to decode".to_string(),
                }),
            },
            None => Ok(None),
        }
    }

    /// Delete `key`; returns whether it existed.
    pub fn delete(&self, key: &K) -> Result<bool, StoreError> {
        self.store.delete(&self.full_key(key))
    }

    /// Every `(key, value)` in this table, in encoded-key order.
    pub fn scan(&self) -> Result<Vec<(K, V)>, StoreError> {
        let raw = self.store.scan_prefix(&self.prefix)?;
        let mut out = Vec::with_capacity(raw.len());
        for (full_key, bytes) in raw {
            let key = K::decode_key(&full_key[self.prefix.len()..]);
            let value = V::decode_value(&bytes);
            match (key, value) {
                (Some(k), Some(v)) => out.push((k, v)),
                _ => {
                    return Err(StoreError::Corrupt {
                        detail: "table entry failed to decode".to_string(),
                    })
                }
            }
        }
        Ok(out)
    }

    /// The underlying store (for checkpointing alongside other tables).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_obs::Registry;

    #[test]
    fn typed_tables_round_trip_and_stay_namespaced() {
        let dir = std::env::temp_dir().join(format!("dox_store_{}_table", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir, &Registry::new()).expect("open"));
        let nums: Table<u64, u64> = Table::new(Arc::clone(&store), "nums");
        let texts: Table<String, String> = Table::new(Arc::clone(&store), "texts");
        nums.put(&7, &70).expect("put");
        nums.put(&2, &20).expect("put");
        texts
            .put(&"seven".to_string(), &"7".to_string())
            .expect("put");
        assert_eq!(nums.get(&7).expect("get"), Some(70));
        assert_eq!(nums.get(&9).expect("get"), None);
        let all = nums.scan().expect("scan");
        assert_eq!(
            all,
            vec![(2, 20), (7, 70)],
            "big-endian keys scan in numeric order"
        );
        assert_eq!(texts.scan().expect("scan").len(), 1, "tables do not bleed");
        assert!(nums.delete(&2).expect("delete"));
        assert_eq!(nums.scan().expect("scan"), vec![(7, 70)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
