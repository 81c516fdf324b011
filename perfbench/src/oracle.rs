//! The independent truth served answers are checked against: a
//! `PathMaxIndex` (sparse-table path max/min and LCA) over Kruskal's
//! tree of the graph, plus weighted depths for `DIST`. It shares no
//! code with the label decoders it checks.

use mstv_graph::{Graph, NodeId, Weight};
use mstv_labels::FLOW_INFINITY;
use mstv_store::{Answer, Query};
use mstv_trees::{PathMaxIndex, RootedTree};
use rand::rngs::StdRng;
use rand::Rng;

use crate::util::MAX_WEIGHT;

pub struct PathOracle {
    idx: PathMaxIndex,
    wdepth: Vec<u64>,
}

impl PathOracle {
    /// The oracle over Kruskal's tree of `g`, rooted at node 0 as every
    /// snapshot build in the workspace roots it.
    pub fn for_graph(g: &Graph) -> PathOracle {
        let tree = RootedTree::from_graph_edges(g, &mstv_mst::kruskal(g), NodeId(0))
            .expect("kruskal spans a connected graph");
        PathOracle::new(&tree)
    }

    pub fn new(tree: &RootedTree) -> PathOracle {
        let mut wdepth = vec![0u64; tree.num_nodes()];
        for &v in tree.order() {
            if let Some(p) = tree.parent(v) {
                wdepth[v.index()] = wdepth[p.index()] + tree.parent_weight(v).0;
            }
        }
        PathOracle {
            idx: PathMaxIndex::new(tree),
            wdepth,
        }
    }

    fn max(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            Weight::ZERO
        } else {
            self.idx.max_on_path(u, v)
        }
    }

    /// Whether `a` is the correct answer to `q`.
    pub fn agrees(&self, q: &Query, a: &Answer) -> bool {
        match (*q, *a) {
            (Query::Max { u, v }, Answer::Max(w)) => w == self.max(u, v),
            (Query::Flow { u, v }, Answer::Flow(w)) => {
                w == if u == v {
                    FLOW_INFINITY
                } else {
                    self.idx.min_on_path(u, v)
                }
            }
            (Query::Dist { u, v }, Answer::Dist(d)) => {
                let x = self.idx.lca(u, v);
                d == self.wdepth[u.index()] + self.wdepth[v.index()] - 2 * self.wdepth[x.index()]
            }
            (
                Query::VerifyEdge { u, v, w },
                Answer::VerifyEdge {
                    accept,
                    max_on_path,
                },
            ) => {
                let want = self.max(u, v);
                max_on_path == want && accept == (w >= want)
            }
            _ => false,
        }
    }
}

/// A batch of `len` queries cycling MAX, FLOW, DIST and VERIFY, with
/// endpoints drawn by `endpoint` and VERIFY weights uniform in
/// `1..=MAX_WEIGHT`.
pub fn batch(len: usize, rng: &mut StdRng, endpoint: impl Fn(&mut StdRng) -> u32) -> Vec<Query> {
    (0..len)
        .map(|i| {
            let u = NodeId(endpoint(rng));
            let v = NodeId(endpoint(rng));
            match i % 4 {
                0 => Query::Max { u, v },
                1 => Query::Flow { u, v },
                2 => Query::Dist { u, v },
                _ => Query::VerifyEdge {
                    u,
                    v,
                    w: Weight(rng.gen_range(1..=MAX_WEIGHT)),
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::instance;

    #[test]
    fn a_wrong_answer_is_caught() {
        let g = instance(200, 5);
        let oracle = PathOracle::for_graph(&g);
        let q = Query::Max {
            u: NodeId(3),
            v: NodeId(150),
        };
        let right = Answer::Max(oracle.max(NodeId(3), NodeId(150)));
        assert!(oracle.agrees(&q, &right));
        let Answer::Max(w) = right else {
            unreachable!()
        };
        assert!(!oracle.agrees(&q, &Answer::Max(Weight(w.0 + 1))));
        assert!(!oracle.agrees(&q, &Answer::Dist(0)), "kind mismatch");
    }
}
