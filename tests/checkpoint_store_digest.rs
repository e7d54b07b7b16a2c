//! Pins the bytes a store-backed study leaves in its checkpoint store.
//!
//! A study with a `checkpoint_dir` spills dedup entries and appends its
//! detected rows and checkpoint headers to one segment store. Those bytes
//! are a pure function of the document stream: the worker count, the
//! chunking and whether the producer waited for a checkpoint must never
//! show in them. This test runs a small store-backed study at three
//! checkpoint cadences (one below the engine's chunk size, two above it)
//! and three worker counts, folds every file under `store/` in name
//! order into a hand-written FNV-1a digest (the same fold as
//! `crates/core/tests/stream_digest.rs`), and compares it with constants
//! recorded before the checkpoint encoder and the store's put path were
//! last rewritten. One changed escape, one reordered row `put` or one
//! reframed record fails here.
//!
//! A *deliberate* format change updates the constants below and records
//! the change, with the reason, in CHANGES.md.

use dox_core::study::{Study, StudyConfig};
use dox_engine::EngineConfig;
use dox_obs::Registry;
use std::path::PathBuf;

/// 64-bit FNV-1a, folded incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so adjacent fields cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Run the test-scale study store-backed at `workers` workers, spill cap
/// 8 and a checkpoint every `every` documents; return the digest of its
/// store directory and the number of files in it.
fn store_digest(workers: usize, every: u64) -> (u64, usize) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "dox_checkpoint_store_digest_{}_w{workers}_e{every}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StudyConfig::builder()
        .seed(7)
        .scale(0.005)
        .engine(EngineConfig {
            workers,
            shards: 4,
            ..EngineConfig::default()
        })
        .checkpoint_dir(&dir)
        .checkpoint_every(every)
        .spill_cap(8)
        .build();
    Study::with_registry(cfg, Registry::new())
        .run()
        .expect("store-backed study runs");
    let store = dir.join("store");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&store)
        .expect("store dir")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    files.sort();
    let mut digest = Fnv::new();
    for path in &files {
        let name = path.file_name().expect("file name").to_string_lossy();
        digest.feed(name.as_bytes());
        digest.feed(&std::fs::read(path).expect("store file"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (digest.0, files.len())
}

/// Every worker count must leave the pinned bytes.
fn assert_pinned(every: u64, expected: (u64, usize)) {
    for workers in [1, 2, 4] {
        assert_eq!(
            store_digest(workers, every),
            expected,
            "checkpoint every {every} docs at w{workers}"
        );
    }
}

#[test]
fn store_bytes_are_pinned_checkpointing_every_200_docs() {
    assert_pinned(200, (2_072_154_823_534_440_735, 2));
}

#[test]
fn store_bytes_are_pinned_checkpointing_every_333_docs() {
    assert_pinned(333, (1_814_429_398_731_256_886, 2));
}

#[test]
fn store_bytes_are_pinned_checkpointing_every_1000_docs() {
    assert_pinned(1000, (3_256_486_420_552_207_000, 2));
}
