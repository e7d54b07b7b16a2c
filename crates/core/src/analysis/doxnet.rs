//! Doxer network analysis (paper Figure 2).
//!
//! Nodes are the doxer aliases mentioned in dox "credits"; undirected
//! edges connect aliases credited together on a dox or following each
//! other on Twitter. The paper reports 251 credited doxers (213 with
//! Twitter handles), with the cliques of size ≥ 4 spanning 61 doxers and
//! the largest clique containing 11.
//!
//! Maximal cliques come from Bron–Kerbosch with pivoting — exact, and fast
//! at this graph size.

use crate::pipeline::DetectedDox;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// An undirected graph over doxer aliases.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct DoxerGraph {
    /// Alias per node index.
    pub aliases: Vec<String>,
    /// Twitter handle per node, when one was seen in credits.
    pub twitter: Vec<Option<String>>,
    /// Adjacency sets (indices into `aliases`).
    pub adj: Vec<BTreeSet<usize>>,
}

impl DoxerGraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.aliases.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.aliases.is_empty()
    }

    /// Node index for `alias`, inserting if new.
    fn node(&mut self, alias: &str, index: &mut BTreeMap<String, usize>) -> usize {
        let key = alias.to_lowercase();
        if let Some(&i) = index.get(&key) {
            return i;
        }
        let i = self.aliases.len();
        index.insert(key, i);
        self.aliases.push(alias.to_string());
        self.twitter.push(None);
        self.adj.push(BTreeSet::new());
        i
    }

    fn connect(&mut self, a: usize, b: usize) {
        if a != b {
            self.adj[a].insert(b);
            self.adj[b].insert(a);
        }
    }

    /// Doxers with a Twitter handle.
    pub fn with_twitter(&self) -> usize {
        self.twitter.iter().filter(|t| t.is_some()).count()
    }
}

/// Build the Figure 2 graph from detected doxes plus a Twitter-follow
/// oracle (the stand-in for the paper's Twitter API queries): given two
/// Twitter handles, does each follow the other?
pub fn build_graph(
    detected: &[DetectedDox],
    mutual_follow: &dyn Fn(&str, &str) -> bool,
) -> DoxerGraph {
    let mut g = DoxerGraph::default();
    let mut index = BTreeMap::new();
    // Pass 1: nodes and co-credit edges.
    for d in detected {
        let ids: Vec<usize> = d
            .extracted
            .credits
            .iter()
            .map(|c| {
                let i = g.node(&c.alias, &mut index);
                if g.twitter[i].is_none() {
                    g.twitter[i] = c.twitter.clone();
                }
                i
            })
            .collect();
        for (k, &a) in ids.iter().enumerate() {
            for &b in &ids[k + 1..] {
                g.connect(a, b);
            }
        }
    }
    // Pass 2: Twitter mutual-follow edges among credited doxers.
    let handles: Vec<(usize, String)> = g
        .twitter
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.clone().map(|h| (i, h)))
        .collect();
    for (k, (a, ha)) in handles.iter().enumerate() {
        for (b, hb) in &handles[k + 1..] {
            if mutual_follow(ha, hb) {
                g.connect(*a, *b);
            }
        }
    }
    g
}

/// All maximal cliques (Bron–Kerbosch with pivoting).
pub fn maximal_cliques(g: &DoxerGraph) -> Vec<Vec<usize>> {
    let mut cliques = Vec::new();
    let mut r = Vec::new();
    let p: BTreeSet<usize> = (0..g.len()).collect();
    let x = BTreeSet::new();
    bron_kerbosch(g, &mut r, p, x, &mut cliques);
    cliques
}

fn bron_kerbosch(
    g: &DoxerGraph,
    r: &mut Vec<usize>,
    mut p: BTreeSet<usize>,
    mut x: BTreeSet<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if p.is_empty() && x.is_empty() {
        if !r.is_empty() {
            out.push(r.clone());
        }
        return;
    }
    // Pivot: the vertex of P ∪ X with the most neighbours in P. The
    // emptiness guard above makes this `Some`; an empty union simply ends
    // the branch.
    let Some(pivot) = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| g.adj[u].intersection(&p).count())
    else {
        return;
    };
    let candidates: Vec<usize> = p.difference(&g.adj[pivot]).copied().collect();
    for v in candidates {
        r.push(v);
        let p_next: BTreeSet<usize> = p.intersection(&g.adj[v]).copied().collect();
        let x_next: BTreeSet<usize> = x.intersection(&g.adj[v]).copied().collect();
        bron_kerbosch(g, r, p_next, x_next, out);
        r.pop();
        p.remove(&v);
        x.insert(v);
    }
}

/// The Figure 2 summary statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct DoxerNetworkSummary {
    /// Credited doxer aliases (the paper's 251).
    pub total_doxers: usize,
    /// Doxers with Twitter handles (213).
    pub with_twitter: usize,
    /// Doxers covered by some clique of size ≥ 4 (61).
    pub in_big_cliques: usize,
    /// The largest clique size (11).
    pub max_clique: usize,
    /// Count of maximal cliques of size ≥ 4.
    pub big_clique_count: usize,
}

/// Summarize a graph the way Figure 2's caption does.
pub fn summarize(g: &DoxerGraph) -> DoxerNetworkSummary {
    let cliques = maximal_cliques(g);
    let mut covered: BTreeSet<usize> = BTreeSet::new();
    let mut max_clique = 0;
    let mut big = 0;
    for c in &cliques {
        max_clique = max_clique.max(c.len());
        if c.len() >= 4 {
            big += 1;
            covered.extend(c.iter().copied());
        }
    }
    DoxerNetworkSummary {
        total_doxers: g.len(),
        with_twitter: g.with_twitter(),
        in_big_cliques: covered.len(),
        max_clique,
        big_clique_count: big,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::clock::SimTime;
    use dox_synth::corpus::Source;

    fn detected(text: &str) -> DetectedDox {
        DetectedDox {
            doc_id: 0,
            source: Source::Pastebin,
            period: 1,
            posted_at: SimTime::EPOCH,
            observed_at: SimTime::EPOCH,
            text: text.to_string(),
            extracted: dox_extract::record::extract(text),
            duplicate: None,
            truth: None,
        }
    }

    #[test]
    fn co_credits_form_edges() {
        let docs = vec![
            detected("dropped by AliceX1 and BobY2"),
            detected("dropped by BobY2 and CarolZ3"),
        ];
        let g = build_graph(&docs, &|_, _| false);
        assert_eq!(g.len(), 3);
        let bob = g.aliases.iter().position(|a| a == "BobY2").unwrap();
        assert_eq!(g.adj[bob].len(), 2);
        let alice = g.aliases.iter().position(|a| a == "AliceX1").unwrap();
        let carol = g.aliases.iter().position(|a| a == "CarolZ3").unwrap();
        assert!(!g.adj[alice].contains(&carol), "no transitive edge");
    }

    #[test]
    fn twitter_follows_add_edges() {
        let docs = vec![
            detected("dropped by @alice_tw"),
            detected("dropped by @bob_tw"),
        ];
        let g = build_graph(&docs, &|a, b| {
            (a == "alice_tw" && b == "bob_tw") || (a == "bob_tw" && b == "alice_tw")
        });
        assert_eq!(g.len(), 2);
        assert_eq!(g.with_twitter(), 2);
        assert!(g.adj[0].contains(&1));
    }

    #[test]
    fn bron_kerbosch_finds_known_cliques() {
        // Triangle 0-1-2 plus pendant 3 attached to 2.
        let mut g = DoxerGraph::default();
        let mut index = BTreeMap::new();
        for name in ["a0", "b1", "c2", "d3"] {
            g.node(name, &mut index);
        }
        g.connect(0, 1);
        g.connect(1, 2);
        g.connect(0, 2);
        g.connect(2, 3);
        let mut cliques = maximal_cliques(&g);
        for c in &mut cliques {
            c.sort_unstable();
        }
        cliques.sort();
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![2, 3]]);
    }

    #[test]
    fn summary_counts_big_clique_coverage() {
        // K4 on 0..4 plus an isolated pair.
        let mut g = DoxerGraph::default();
        let mut index = BTreeMap::new();
        for i in 0..6 {
            g.node(&format!("d{i}"), &mut index);
        }
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.connect(a, b);
            }
        }
        g.connect(4, 5);
        let s = summarize(&g);
        assert_eq!(s.total_doxers, 6);
        assert_eq!(s.max_clique, 4);
        assert_eq!(s.in_big_cliques, 4);
        assert_eq!(s.big_clique_count, 1);
    }

    #[test]
    fn isolated_nodes_are_their_own_cliques() {
        let mut g = DoxerGraph::default();
        let mut index = BTreeMap::new();
        g.node("solo1", &mut index);
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques, vec![vec![0]]);
        let s = summarize(&g);
        assert_eq!(s.max_clique, 1);
        assert_eq!(s.in_big_cliques, 0);
    }

    #[test]
    fn aliases_case_insensitive_dedup() {
        let docs = vec![
            detected("dropped by GhostWolf_1"),
            detected("dropped by ghostwolf_1"),
        ];
        let g = build_graph(&docs, &|_, _| false);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = build_graph(&[], &|_, _| false);
        assert!(g.is_empty());
        assert!(maximal_cliques(&g).is_empty());
        let s = summarize(&g);
        assert_eq!(s.total_doxers, 0);
    }
}
