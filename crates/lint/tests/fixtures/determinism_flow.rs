//! Fixture: determinism-flow — HashMap iteration order reaching
//! serialization; sorting or collecting into a BTree container is clean.

use std::collections::{BTreeMap, HashMap};

pub fn leaks_unordered(counts: &HashMap<String, u64>) -> String {
    let mut rows = Vec::new();
    for (k, v) in counts.iter() {
        rows.push(format!("{k}={v}"));
    }
    serde_json::to_string(&rows).unwrap_or_default()
}

pub fn sorted_is_fine(counts: &HashMap<String, u64>) -> String {
    let mut rows = Vec::new();
    for (k, v) in counts.iter() {
        rows.push(format!("{k}={v}"));
    }
    rows.sort();
    serde_json::to_string(&rows).unwrap_or_default()
}

pub fn btree_is_fine(counts: &HashMap<String, u64>) -> String {
    let ordered: BTreeMap<&String, &u64> = counts.iter().collect();
    let mut rows = Vec::new();
    for (k, v) in ordered.iter() {
        rows.push(format!("{k}={v}"));
    }
    serde_json::to_string(&rows).unwrap_or_default()
}

pub fn enumerate_index_is_fine(counts: &HashMap<String, u64>) -> String {
    let mut idx = Vec::new();
    for (i, _e) in counts.iter().enumerate() {
        idx.push(i);
    }
    serde_json::to_string(&idx).unwrap_or_default()
}
