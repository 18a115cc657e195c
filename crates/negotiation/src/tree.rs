//! Negotiation trees.
//!
//! "To maintain the progress of a negotiation and help detecting a
//! potential trust sequence a tree structure is used. … a negotiation tree
//! is a labeled tree rooted at the resource that initially started the
//! negotiation. Each node corresponds to a term, whereas edges correspond
//! to policy rules. A negotiation tree is characterized by two different
//! kinds of edges: simple edges and multiedges. A simple edge denotes a
//! policy having only one term on the left side component of the rule. By
//! contrast, a multiedge links several simple edges to represent policy
//! rules having more than one term … Nodes belonging to a multiedge are
//! thus considered as a whole during the negotiation." (§4.2)

use crate::message::Side;
use std::sync::Arc;
use trust_vo_credential::CredentialId;
use trust_vo_policy::DisclosurePolicy;

/// Index of a node in a [`NegotiationTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Index of an edge in a [`NegotiationTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub usize);

/// Satisfaction state of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeStatus {
    /// Still being explored.
    Open,
    /// Satisfied by a delivery rule (or an ungoverned, freely-released
    /// resource).
    Deliv,
    /// Satisfiable by disclosing a specific credential.
    SatisfiedBy(CredentialId),
    /// This branch cannot be satisfied.
    Failed,
}

/// A node: a term (or the root resource), owned by the side that would
/// have to disclose it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Display label (term key or resource name).
    pub label: String,
    /// The side that controls/would disclose this node's resource.
    pub owner: Side,
    /// Satisfaction state.
    pub status: NodeStatus,
}

/// An edge: a policy rule expanding a node into the terms of its body.
/// `to.len() > 1` makes it a multiedge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeEdge {
    /// The expanded node.
    pub from: NodeId,
    /// The term nodes of the policy body (as a whole, for multiedges).
    pub to: Vec<NodeId>,
    /// The policy rule this edge represents, shared with the policy set
    /// of the party that disclosed it.
    pub policy: Arc<DisclosurePolicy>,
    /// Whether this edge is part of the chosen (successful) view.
    pub chosen: bool,
}

impl TreeEdge {
    /// Is this a multiedge (conjunctive policy with several terms)?
    pub fn is_multiedge(&self) -> bool {
        self.to.len() > 1
    }
}

/// The negotiation tree built during the policy evaluation phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegotiationTree {
    nodes: Vec<TreeNode>,
    edges: Vec<TreeEdge>,
}

impl NegotiationTree {
    /// Create a tree rooted at the requested resource, controlled by
    /// `owner` (normally [`Side::Controller`]).
    pub fn new(root_label: impl Into<String>, owner: Side) -> Self {
        NegotiationTree {
            nodes: vec![TreeNode {
                label: root_label.into(),
                owner,
                status: NodeStatus::Open,
            }],
            edges: Vec::new(),
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Add a policy edge expanding `from` into one child node per term of
    /// `policy`, labelled with the term's key and owned by the side
    /// opposite to `from`'s owner (terms of my policy are satisfied by
    /// *your* credentials). Returns the new edge.
    pub fn expand(&mut self, from: NodeId, policy: &Arc<DisclosurePolicy>) -> EdgeId {
        let child_owner = self.nodes[from.0].owner.other();
        let first = self.nodes.len();
        self.nodes
            .extend(policy.terms().iter().map(|term| TreeNode {
                label: term.key(),
                owner: child_owner,
                status: NodeStatus::Open,
            }));
        self.edges.push(TreeEdge {
            from,
            to: (first..self.nodes.len()).map(NodeId).collect(),
            policy: Arc::clone(policy),
            chosen: false,
        });
        EdgeId(self.edges.len() - 1)
    }

    /// Set a node's status.
    pub fn set_status(&mut self, node: NodeId, status: NodeStatus) {
        self.nodes[node.0].status = status;
    }

    /// Mark an edge as part of the chosen view.
    pub fn choose(&mut self, edge: EdgeId) {
        self.edges[edge.0].chosen = true;
    }

    /// Edge accessor.
    pub fn edge(&self, id: EdgeId) -> &TreeEdge {
        &self.edges[id.0]
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id.0]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[TreeEdge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: a tree has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Depth of the tree (root = 1).
    pub fn depth(&self) -> usize {
        self.depth_from(self.root())
    }

    fn depth_from(&self, node: NodeId) -> usize {
        1 + self
            .edges
            .iter()
            .filter(|e| e.from == node)
            .flat_map(|e| e.to.iter())
            .map(|&c| self.depth_from(c))
            .max()
            .unwrap_or(0)
    }

    /// Render the tree as indented ASCII (used by the Fig. 2 example).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root(), 0, &mut out);
        out
    }

    fn render_node(&self, node: NodeId, depth: usize, out: &mut String) {
        let n = self.node(node);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let status = match &n.status {
            NodeStatus::Open => "",
            NodeStatus::Deliv => " [DELIV]",
            NodeStatus::SatisfiedBy(id) => {
                out.push_str(&format!("{} <{}> ok:{}\n", n.label, n.owner, id));
                for edge in self.edges.iter().filter(|e| e.from == node) {
                    self.render_edge(edge, depth + 1, out);
                }
                return;
            }
            NodeStatus::Failed => " [failed]",
        };
        out.push_str(&format!("{} <{}>{}\n", n.label, n.owner, status));
        for edge in self.edges.iter().filter(|e| e.from == node) {
            self.render_edge(edge, depth + 1, out);
        }
    }

    fn render_edge(&self, edge: &TreeEdge, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let kind = if edge.is_multiedge() {
            "multiedge"
        } else {
            "edge"
        };
        let chosen = if edge.chosen { " *" } else { "" };
        out.push_str(&format!("[{kind} {}{}]\n", edge.policy.id, chosen));
        for &child in &edge.to {
            self.render_node(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_policy::{Resource, Term};

    fn rule(id: &str, target: &str, terms: &[&str]) -> Arc<DisclosurePolicy> {
        Arc::new(DisclosurePolicy::rule(
            id,
            Resource::credential(target),
            terms.iter().map(|t| Term::of_type(*t)).collect(),
        ))
    }

    /// Build the Fig. 2 tree: the Aerospace company requests VOMembership;
    /// the Aircraft company requires WebDesignerQuality; the Aerospace
    /// company counter-requires AAACreditation OR a BalanceSheet.
    fn fig2() -> NegotiationTree {
        let mut t = NegotiationTree::new("VoMembership", Side::Controller);
        let edge = t.expand(
            t.root(),
            &rule("p1", "VoMembership", &["WebDesignerQuality"]),
        );
        let quality = t.edge(edge).to[0];
        t.expand(
            quality,
            &rule("p2", "WebDesignerQuality", &["AAACreditation"]),
        );
        t.expand(
            quality,
            &rule("p3", "WebDesignerQuality", &["BalanceSheet"]),
        );
        t
    }

    #[test]
    fn fig2_structure() {
        let t = fig2();
        assert_eq!(t.len(), 4);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.edges().len(), 3);
        assert!(t.edges().iter().all(|e| !e.is_multiedge()));
        // Ownership alternates: root is controller-owned, its term child is
        // requester-owned, the grandchildren controller-owned again.
        assert_eq!(t.node(NodeId(0)).owner, Side::Controller);
        assert_eq!(t.node(NodeId(1)).owner, Side::Requester);
        assert_eq!(t.node(NodeId(2)).owner, Side::Controller);
        assert_eq!(t.node(NodeId(2)).label, "AAACreditation");
    }

    #[test]
    fn multiedge_detection() {
        let mut t = NegotiationTree::new("R", Side::Controller);
        let edge = t.expand(t.root(), &rule("p", "R", &["A", "B"]));
        assert_eq!(t.edge(edge).to, [NodeId(1), NodeId(2)]);
        assert!(t.edges()[0].is_multiedge());
    }

    #[test]
    fn choose_marks_only_the_given_edge() {
        let mut t = fig2();
        // Two alternatives with the same id: the handle, not the id,
        // decides which one is chosen.
        let quality = NodeId(1);
        let twin = t.expand(quality, &rule("p3", "WebDesignerQuality", &["Other"]));
        t.choose(twin);
        let chosen: Vec<_> = t.edges().iter().filter(|e| e.chosen).collect();
        assert_eq!(chosen.len(), 1);
        assert!(std::ptr::eq(chosen[0], t.edge(twin)));
        assert_eq!(chosen[0].policy.id.0, "p3");
    }

    #[test]
    fn render_shows_structure_and_status() {
        let mut t = fig2();
        t.set_status(
            NodeId(3),
            NodeStatus::SatisfiedBy(CredentialId("cred-7".into())),
        );
        t.set_status(NodeId(2), NodeStatus::Failed);
        let text = t.render();
        assert!(text.contains("VoMembership <controller>"));
        assert!(text.contains("WebDesignerQuality <requester>"));
        assert!(text.contains("[failed]"));
        assert!(text.contains("ok:cred-7"));
        assert!(text.contains("[edge p1]"));
    }

    #[test]
    fn depth_of_lone_root() {
        let t = NegotiationTree::new("R", Side::Controller);
        assert_eq!(t.depth(), 1);
        assert!(!t.is_empty());
    }
}
