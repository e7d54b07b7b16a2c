//! Deterministic dataset splitting.
//!
//! The paper evaluates the classifier with "a randomly selected two-thirds
//! training set, one-third evaluation set" (§3.1.2). The study draws that
//! split with [`stratified_split`], so the rare dox class keeps its share
//! in both halves. [`shuffle`] is the one Fisher–Yates shuffle, which the
//! split and the SGD epochs both draw from.

use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Index sets produced by a split: `(train, test)`.
pub type SplitIndices = (Vec<usize>, Vec<usize>);

/// Split preserving the label ratio in both halves.
///
/// Each class's indices are shuffled and split at `train_fraction`
/// independently, so a rare positive class (749 doxes vs 4,220 negatives in
/// the paper's training data) is represented proportionally in both sets.
pub fn stratified_split(labels: &[bool], train_fraction: f64, seed: u64) -> SplitIndices {
    let pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (salt, mut class) in [(1u64, pos), (2u64, neg)] {
        shuffle(&mut class, &mut rng(seed.wrapping_add(salt)));
        let cut = ((class.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
        let cut = cut.min(class.len());
        test.extend_from_slice(&class[cut..]);
        train.extend_from_slice(&class[..cut]);
    }
    // Keep downstream iteration order independent of class grouping.
    shuffle(&mut train, &mut rng(seed.wrapping_add(3)));
    shuffle(&mut test, &mut rng(seed.wrapping_add(4)));
    (train, test)
}

/// Fisher–Yates shuffle of `order`, drawing from `rng`.
pub fn shuffle(order: &mut [usize], rng: &mut ChaCha8Rng) {
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
}

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Select the elements of `items` at `indices` (cloning).
pub fn take<T: Clone>(items: &[T], indices: &[usize]) -> Vec<T> {
    indices.iter().map(|&i| items[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stratified_preserves_ratio() {
        // 100 pos, 900 neg
        let labels: Vec<bool> = (0..1000).map(|i| i < 100).collect();
        let (train, test) = stratified_split(&labels, 2.0 / 3.0, 5);
        let pos_train = train.iter().filter(|&&i| labels[i]).count();
        let pos_test = test.iter().filter(|&&i| labels[i]).count();
        assert_eq!(pos_train, 67);
        assert_eq!(pos_test, 33);
        assert_eq!(train.len() + test.len(), 1000);
    }

    #[test]
    fn stratified_is_partition() {
        let labels: Vec<bool> = (0..97).map(|i| i % 7 == 0).collect();
        let (train, test) = stratified_split(&labels, 0.6, 11);
        let all: HashSet<usize> = train.iter().chain(&test).copied().collect();
        assert_eq!(all.len(), 97);
    }

    #[test]
    fn take_selects() {
        let items = vec!["a", "b", "c"];
        assert_eq!(take(&items, &[2, 0]), vec!["c", "a"]);
    }
}
