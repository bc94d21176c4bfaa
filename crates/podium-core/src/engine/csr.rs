//! Compressed-sparse-row (CSR) storage of the bipartite user ↔ group graph.
//!
//! [`CsrGraph`] flattens both directions of §4's user ↔ group links into
//! two offset/adjacency array pairs (ids as `u32` newtypes), so a candidate
//! scan walks a single contiguous buffer. It is the only link storage of a
//! [`crate::group::GroupSet`]: the set's member lists and reverse links are
//! slices of its graph, built once per set (`O(|V| + |E|)`) and read in
//! place by the selection kernels.

use crate::group::GroupSet;
use crate::ids::{GroupId, UserId};

/// Flat bidirectional adjacency of users and groups.
///
/// Both directions are ascending: `groups_of(u)` lists group ids in
/// ascending order and `members_of(g)` lists user ids in ascending order,
/// so every traversal visits edges in one fixed sequence and the kernels'
/// selections are reproducible bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `user_adj[user_offsets[u]..user_offsets[u + 1]]` = groups of user `u`.
    user_offsets: Vec<u32>,
    user_adj: Vec<GroupId>,
    /// `group_adj[group_offsets[g]..group_offsets[g + 1]]` = members of `g`.
    group_offsets: Vec<u32>,
    group_adj: Vec<UserId>,
}

impl Default for CsrGraph {
    /// The empty graph: no users, no groups, no edges.
    fn default() -> Self {
        Self {
            user_offsets: vec![0],
            user_adj: Vec::new(),
            group_offsets: vec![0],
            group_adj: Vec::new(),
        }
    }
}

impl CsrGraph {
    /// A copy of the link graph a group set holds ([`GroupSet::csr`]).
    pub fn from_group_set(groups: &GroupSet) -> Self {
        groups.csr().clone()
    }

    /// Builds the CSR graph from one sorted member list per group (groups in
    /// id order) — the constructor behind every [`GroupSet`].
    pub fn from_member_lists(user_count: usize, lists: &[&[UserId]]) -> Self {
        let mut csr = Self::default();
        csr.assign_from_member_lists(user_count, lists);
        csr
    }

    /// In-place variant of [`CsrGraph::from_member_lists`]: overwrites `self`
    /// with the CSR of `lists`, reusing all four buffers. A writer that
    /// publishes one snapshot per epoch calls this on a recycled graph
    /// instead of allocating a fresh one. The result is exactly what
    /// `from_member_lists(user_count, lists)` returns.
    pub fn assign_from_member_lists(&mut self, user_count: usize, lists: &[&[UserId]]) {
        let edges: usize = lists.iter().map(|m| m.len()).sum();
        assert!(
            user_count < u32::MAX as usize,
            "user count exceeds u32 range"
        );
        assert!(
            lists.len() < u32::MAX as usize,
            "group count exceeds u32 range"
        );
        assert!(edges < u32::MAX as usize, "edge count exceeds u32 range");

        // Group side: concatenation of the member lists. Degrees accumulate
        // into `user_offsets[u + 1]` so no scratch vector is needed.
        self.group_offsets.clear();
        self.group_offsets.reserve(lists.len() + 1);
        self.group_offsets.push(0u32);
        self.group_adj.clear();
        self.group_adj.reserve(edges);
        self.user_offsets.clear();
        self.user_offsets.resize(user_count + 1, 0u32);
        for members in lists {
            for &u in *members {
                self.group_adj.push(u);
                self.user_offsets[u.index() + 1] += 1;
            }
            self.group_offsets.push(self.group_adj.len() as u32);
        }
        for i in 1..=user_count {
            self.user_offsets[i] += self.user_offsets[i - 1];
        }

        // User side: counting sort by user, using the offsets themselves as
        // write cursors. Groups are appended in ascending id order, so each
        // user's slice comes out ascending as well.
        self.user_adj.clear();
        self.user_adj.resize(edges, GroupId(0));
        for (g, members) in lists.iter().enumerate() {
            for &u in *members {
                let c = &mut self.user_offsets[u.index()];
                self.user_adj[*c as usize] = GroupId(g as u32);
                *c += 1;
            }
        }
        // Each cursor has advanced to the start of the next row; shift the
        // array right by one to restore the offset invariant.
        self.user_offsets.copy_within(0..user_count, 1);
        self.user_offsets[0] = 0;

        debug_assert!(
            self.validate().is_ok(),
            "CSR construction violated its invariants: {}",
            self.validate().unwrap_err()
        );
    }

    /// Patches `self` into the CSR of `lists` (the new epoch), using `base`
    /// — the CSR of the previous epoch over the *same* group universe and
    /// user count — to skip per-edge work for untouched users.
    ///
    /// `changed` names, in ascending user order, every user whose group row
    /// differs from `base`, paired with their new (strictly ascending) group
    /// row; users not listed must have rows identical to `base`. The group
    /// side is a bulk copy of `lists`; the user side splices the changed
    /// rows between `memcpy`s of the unchanged spans of `base`. The result
    /// is bit-identical to `from_member_lists(base.user_count(), lists)`.
    ///
    /// # Panics
    /// Panics if `lists` does not have exactly `base.group_count()` groups
    /// or the changed rows disagree with the member lists on the edge count.
    pub fn patch_from(
        &mut self,
        base: &CsrGraph,
        lists: &[&[UserId]],
        changed: &[(UserId, Vec<GroupId>)],
    ) {
        let user_count = base.user_count();
        assert_eq!(
            lists.len(),
            base.group_count(),
            "CSR patch requires an unchanged group universe"
        );
        let edges: usize = lists.iter().map(|m| m.len()).sum();
        assert!(edges < u32::MAX as usize, "edge count exceeds u32 range");
        debug_assert!(
            changed.windows(2).all(|w| w[0].0 < w[1].0),
            "changed rows must be strictly ascending by user"
        );

        // Group side: bulk copy of the new member lists.
        self.group_offsets.clear();
        self.group_offsets.reserve(lists.len() + 1);
        self.group_offsets.push(0u32);
        self.group_adj.clear();
        self.group_adj.reserve(edges);
        for members in lists {
            self.group_adj.extend_from_slice(members);
            self.group_offsets.push(self.group_adj.len() as u32);
        }

        // User offsets: degrees change only for the changed users.
        self.user_offsets.clear();
        self.user_offsets.reserve(user_count + 1);
        self.user_offsets.push(0u32);
        let mut ci = 0usize;
        let mut running = 0u32;
        for u in 0..user_count {
            let deg = match changed.get(ci) {
                Some(&(cu, ref row)) if cu.index() == u => {
                    ci += 1;
                    row.len() as u32
                }
                _ => base.user_degree(u) as u32,
            };
            running += deg;
            self.user_offsets.push(running);
        }
        assert_eq!(
            running as usize, edges,
            "changed rows disagree with the member lists on the edge count"
        );

        // User adjacency: memcpy the unchanged spans, splice changed rows.
        self.user_adj.clear();
        self.user_adj.reserve(edges);
        let mut next_unchanged = 0usize;
        for &(u, ref row) in changed {
            let u = u.index();
            let lo = base.user_offsets[next_unchanged] as usize;
            let hi = base.user_offsets[u] as usize;
            self.user_adj.extend_from_slice(&base.user_adj[lo..hi]);
            self.user_adj.extend_from_slice(row);
            next_unchanged = u + 1;
        }
        let lo = base.user_offsets[next_unchanged] as usize;
        self.user_adj.extend_from_slice(&base.user_adj[lo..]);

        debug_assert!(
            self.validate().is_ok(),
            "CSR patch violated the invariants: {}",
            self.validate().unwrap_err()
        );
    }

    /// Checks the structural invariants of the CSR representation: offset
    /// arrays start at zero, are non-decreasing, and terminate at their
    /// adjacency length; adjacency ids are in range; every row is strictly
    /// ascending; and the two directions encode the same edge set.
    ///
    /// `O(|E| log deg)`. Construction `debug_assert!`s this, so building the
    /// selection engine under `RUSTFLAGS="-C debug-assertions"` catches
    /// corrupted group data (unsorted or duplicated member lists) before the
    /// greedy loops consume it.
    pub fn validate(&self) -> Result<(), String> {
        let users = self.user_count();
        let groups = self.group_count();
        for (side, offsets, edges, max_id, fanout) in [
            (
                "user",
                &self.user_offsets,
                self.user_adj.len(),
                self.user_adj.iter().map(|g| g.0).max(),
                groups,
            ),
            (
                "group",
                &self.group_offsets,
                self.group_adj.len(),
                self.group_adj.iter().map(|u| u.0).max(),
                users,
            ),
        ] {
            if offsets.first() != Some(&0) {
                return Err(format!("{side} offsets do not start at 0"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{side} offsets are not non-decreasing"));
            }
            if *offsets.last().expect("offsets are non-empty") as usize != edges {
                return Err(format!(
                    "{side} offsets end at {} but adjacency has {edges} edges",
                    offsets.last().expect("offsets are non-empty"),
                ));
            }
            if let Some(x) = max_id.filter(|&x| x as usize >= fanout) {
                return Err(format!("{side} adjacency id {x} out of range ({fanout})"));
            }
        }
        if self.user_adj.len() != self.group_adj.len() {
            return Err(format!(
                "direction edge counts disagree: {} vs {}",
                self.user_adj.len(),
                self.group_adj.len()
            ));
        }
        for u in 0..users {
            if self.groups_of(u).windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("groups_of({u}) is not strictly ascending"));
            }
        }
        for g in 0..groups {
            let members = self.members_of(g);
            if members.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("members_of({g}) is not strictly ascending"));
            }
            // Transpose consistency: every (g, u) edge must appear as g in
            // u's (sorted) group row. Combined with equal edge counts this
            // makes the directions encode identical edge sets.
            for &u in members {
                if self
                    .groups_of(u.index())
                    .binary_search(&GroupId::from_index(g))
                    .is_err()
                {
                    return Err(format!("edge (g{g}, u{u}) missing from the user direction"));
                }
            }
        }
        Ok(())
    }

    /// Number of users (rows of the user → group direction).
    #[inline]
    pub fn user_count(&self) -> usize {
        self.user_offsets.len() - 1
    }

    /// Number of groups.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.group_offsets.len() - 1
    }

    /// Number of membership edges `Σ_G |G|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.user_adj.len()
    }

    /// The groups user `u` belongs to, ascending.
    #[inline]
    pub fn groups_of(&self, u: usize) -> &[GroupId] {
        let lo = self.user_offsets[u] as usize;
        let hi = self.user_offsets[u + 1] as usize;
        &self.user_adj[lo..hi]
    }

    /// The members of group `g`, ascending.
    #[inline]
    pub fn members_of(&self, g: usize) -> &[UserId] {
        let lo = self.group_offsets[g] as usize;
        let hi = self.group_offsets[g + 1] as usize;
        &self.group_adj[lo..hi]
    }

    /// `|{G | u ∈ G}|`.
    #[inline]
    pub fn user_degree(&self, u: usize) -> usize {
        (self.user_offsets[u + 1] - self.user_offsets[u]) as usize
    }

    /// `|G|` for group `g`.
    #[inline]
    pub fn group_size(&self, g: usize) -> usize {
        (self.group_offsets[g + 1] - self.group_offsets[g]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> GroupSet {
        // G0 = {0,1}, G1 = {1,2}, G2 = {3}, G3 = {} is impossible via
        // from_memberships (empty groups still get an id there).
        GroupSet::from_memberships(
            5,
            vec![
                vec![UserId(0), UserId(1)],
                vec![UserId(1), UserId(2)],
                vec![UserId(3)],
            ],
        )
    }

    #[test]
    fn links_transpose_the_member_lists() {
        let csr = CsrGraph::from_group_set(&demo());
        assert_eq!(csr.user_count(), 5);
        assert_eq!(csr.group_count(), 3);
        assert_eq!(csr.edge_count(), 5);
        let rows: [&[GroupId]; 5] = [
            &[GroupId(0)],
            &[GroupId(0), GroupId(1)],
            &[GroupId(1)],
            &[GroupId(2)],
            &[],
        ];
        for (u, row) in rows.iter().enumerate() {
            assert_eq!(csr.groups_of(u), *row, "user {u}");
            assert_eq!(csr.user_degree(u), row.len());
        }
        assert_eq!(csr.members_of(1), &[UserId(1), UserId(2)]);
        assert_eq!(csr.group_size(2), 1);
    }

    #[test]
    fn adjacency_is_sorted_both_ways() {
        let groups = demo();
        let csr = CsrGraph::from_group_set(&groups);
        for u in 0..csr.user_count() {
            assert!(csr.groups_of(u).windows(2).all(|w| w[0] < w[1]));
        }
        for g in 0..csr.group_count() {
            assert!(csr.members_of(g).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_graph() {
        let groups = GroupSet::from_memberships(0, vec![]);
        let csr = CsrGraph::from_group_set(&groups);
        assert_eq!(csr.user_count(), 0);
        assert_eq!(csr.group_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn validate_accepts_constructed_graphs() {
        for groups in [demo(), GroupSet::from_memberships(0, vec![])] {
            let csr = CsrGraph::from_group_set(&groups);
            assert_eq!(csr.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_corrupted_graphs() {
        let base = CsrGraph::from_group_set(&demo());
        // Out-of-range adjacency id.
        let mut bad = base.clone();
        bad.group_adj[0] = UserId(99);
        assert!(bad.validate().unwrap_err().contains("out of range"));
        // Unsorted member row (swap two members of G0 = {0, 1}).
        let mut bad = base.clone();
        bad.group_adj.swap(0, 1);
        assert!(bad.validate().is_err());
        // Offsets that no longer cover the adjacency.
        let mut bad = base;
        if let Some(o) = bad.user_offsets.last_mut() {
            *o += 1;
        }
        assert!(bad.validate().unwrap_err().contains("offsets"));
    }

    #[test]
    fn default_is_the_valid_empty_graph() {
        let csr = CsrGraph::default();
        assert_eq!(csr.user_count(), 0);
        assert_eq!(csr.group_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.validate(), Ok(()));
        assert_eq!(csr, CsrGraph::from_member_lists(0, &[]));
    }

    #[test]
    fn assign_into_reused_buffer_matches_fresh_build() {
        let big = demo();
        let small =
            GroupSet::from_memberships(2, vec![vec![UserId(0)], vec![UserId(0), UserId(1)]]);
        let mut out = CsrGraph::from_group_set(&big);
        // Overwrite a larger graph with a smaller one and vice versa.
        let small_lists: Vec<&[UserId]> = small.iter().map(|(_, g)| g.members).collect();
        out.assign_from_member_lists(small.user_count(), &small_lists);
        assert_eq!(out, CsrGraph::from_group_set(&small));
        let big_lists: Vec<&[UserId]> = big.iter().map(|(_, g)| g.members).collect();
        out.assign_from_member_lists(big.user_count(), &big_lists);
        assert_eq!(out, CsrGraph::from_group_set(&big));
    }

    #[test]
    fn patch_from_matches_fresh_build() {
        // Base: G0 = {0,1}, G1 = {1,2}, G2 = {3} over 5 users.
        let base = CsrGraph::from_group_set(&demo());
        // New epoch, same universe: user 1 leaves G1, user 4 joins G1 and
        // G2. Changed rows: user 1 -> [0], user 4 -> [1, 2].
        let g0 = [UserId(0), UserId(1)];
        let g1 = [UserId(2), UserId(4)];
        let g2 = [UserId(3), UserId(4)];
        let lists: Vec<&[UserId]> = vec![&g0, &g1, &g2];
        let mut patched = CsrGraph::default();
        patched.patch_from(
            &base,
            &lists,
            &[
                (UserId(1), vec![GroupId(0)]),
                (UserId(4), vec![GroupId(1), GroupId(2)]),
            ],
        );
        assert_eq!(patched, CsrGraph::from_member_lists(5, &lists));

        // An empty delta is the identity.
        let b0 = [UserId(0), UserId(1)];
        let b1 = [UserId(1), UserId(2)];
        let b2 = [UserId(3)];
        let base_lists: Vec<&[UserId]> = vec![&b0, &b1, &b2];
        let mut same = CsrGraph::default();
        same.patch_from(&base, &base_lists, &[]);
        assert_eq!(same, base);
    }

    #[test]
    #[should_panic(expected = "unchanged group universe")]
    fn patch_from_rejects_a_changed_universe() {
        let base = CsrGraph::from_group_set(&demo());
        let g0 = [UserId(0)];
        let lists: Vec<&[UserId]> = vec![&g0];
        CsrGraph::default().patch_from(&base, &lists, &[]);
    }

    #[test]
    fn isolated_users_have_empty_slices() {
        let groups = GroupSet::from_memberships(3, vec![vec![UserId(1)]]);
        let csr = CsrGraph::from_group_set(&groups);
        assert!(csr.groups_of(0).is_empty());
        assert_eq!(csr.groups_of(1), &[GroupId(0)]);
        assert!(csr.groups_of(2).is_empty());
    }
}
