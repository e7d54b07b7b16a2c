//! Chan-board structure.
//!
//! 4chan and 8ch serve posts grouped into threads on boards; postings are
//! HTML fragments. The measurement pipeline consumes post bodies, but
//! modeling threads keeps ingestion realistic (posts arrive as replies to
//! live threads; threads fall off the board) and gives the example
//! applications something board-shaped to work with.

use dox_osn::clock::SimTime;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// A post on a board.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ChanPost {
    /// Document id (shared with the synthetic stream).
    pub id: u64,
    /// Thread the post belongs to.
    pub thread: u64,
    /// Posting time.
    pub posted_at: SimTime,
    /// Whether this post opened its thread.
    pub is_op: bool,
}

/// A simulated board: posts assigned to threads, bounded catalog.
#[derive(Debug, Clone)]
pub struct SimChanBoard {
    /// Board name, e.g. "pol".
    pub name: &'static str,
    /// Maximum live threads; the oldest thread 404s beyond this.
    pub catalog_limit: usize,
    posts: Vec<ChanPost>,
    live_threads: Vec<u64>,
    next_thread: u64,
    rng: ChaCha8Rng,
}

impl SimChanBoard {
    /// Create a board.
    pub fn new(name: &'static str, catalog_limit: usize, seed: u64) -> Self {
        assert!(catalog_limit > 0, "catalog must hold at least one thread");
        Self {
            name,
            catalog_limit,
            posts: Vec::new(),
            live_threads: Vec::new(),
            next_thread: 1,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xC4A2),
        }
    }

    /// Ingest a posting: 20 % of posts (or any post when the catalog is
    /// empty) open a new thread, the rest reply to a random live thread.
    /// Returns the stored post record.
    pub fn post(&mut self, id: u64, posted_at: SimTime) -> ChanPost {
        let open_new = self.live_threads.is_empty() || self.rng.random_range(0.0..1.0) < 0.2;
        let (thread, is_op) = if open_new {
            let t = self.next_thread;
            self.next_thread += 1;
            self.live_threads.push(t);
            if self.live_threads.len() > self.catalog_limit {
                self.live_threads.remove(0); // oldest thread 404s
            }
            (t, true)
        } else {
            let i = self.rng.random_range(0..self.live_threads.len());
            (self.live_threads[i], false)
        };
        let post = ChanPost {
            id,
            thread,
            posted_at,
            is_op,
        };
        self.posts.push(post.clone());
        post
    }

    /// All posts ever made (the scrape archive).
    pub fn posts(&self) -> &[ChanPost] {
        &self.posts
    }

    /// Threads currently in the catalog.
    pub fn live_threads(&self) -> &[u64] {
        &self.live_threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_post_opens_a_thread() {
        let mut b = SimChanBoard::new("b", 10, 1);
        let p = b.post(1, SimTime::EPOCH);
        assert!(p.is_op);
        assert_eq!(b.live_threads().len(), 1);
    }

    #[test]
    fn replies_attach_to_live_threads() {
        let mut b = SimChanBoard::new("pol", 10, 2);
        for i in 0..200 {
            b.post(i, SimTime(i));
        }
        let replies = b.posts().iter().filter(|p| !p.is_op).count();
        assert!(replies > 100, "most posts should be replies: {replies}");
        for p in b.posts() {
            assert!(p.thread >= 1);
        }
    }

    #[test]
    fn catalog_is_bounded() {
        let mut b = SimChanBoard::new("baphomet", 5, 3);
        for i in 0..500 {
            b.post(i, SimTime(i));
        }
        assert!(b.live_threads().len() <= 5);
    }

    #[test]
    fn thread_ids_monotonic() {
        let mut b = SimChanBoard::new("b", 10, 4);
        let mut last_op = 0;
        for i in 0..100 {
            let p = b.post(i, SimTime(i));
            if p.is_op {
                assert!(p.thread > last_op);
                last_op = p.thread;
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_catalog_panics() {
        SimChanBoard::new("x", 0, 0);
    }
}
