//! Simple and complex user groups (paper §3.2, Definitions 3.4–3.5).
//!
//! A *simple group* `G_{p,b}` is the set of users whose score for property
//! `p` falls in bucket `b`. A [`GroupSet`] materializes all non-empty simple
//! groups of a repository under a given bucketing. It stores each group's
//! definition ([`GroupKind`]) and one [`CsrGraph`] holding the
//! bidirectional user ↔ group links of Algorithm 1's data structures (§4,
//! "Data Structures"): member lists and reverse links are both read from
//! that graph, and the selection kernels walk it in place
//! ([`GroupSet::csr`]).
//!
//! Complex groups — intersections and unions of simple groups — are modeled
//! by [`GroupExpr`] and can either be evaluated on the fly (used by the
//! intersected-property-coverage metric, §8.2) or materialized into the set.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bucket::{Bucket, PropertyBuckets};
use crate::engine::CsrGraph;
use crate::error::{CoreError, Result};
use crate::ids::{BucketIdx, GroupId, PropertyId, UserId};
use crate::profile::UserRepository;

/// How a group came to be: a simple property × bucket group, or a
/// materialized complex group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroupKind {
    /// `G_{p,b}`: users whose score for `property` lies in `bucket`.
    Simple {
        /// The defining property.
        property: PropertyId,
        /// Index of the bucket within the property's bucket set.
        bucket: BucketIdx,
    },
    /// A materialized complex group with a free-form label.
    Complex {
        /// Human-readable description, e.g. `"Tokyo residents ∩ Mexican lovers"`.
        label: String,
    },
}

/// A borrowed view of one group of a [`GroupSet`]: its definition plus
/// its sorted member list, read from the set's CSR graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Group<'a> {
    /// What defines the group.
    pub kind: &'a GroupKind,
    /// Members, sorted by [`UserId`].
    pub members: &'a [UserId],
}

impl Group<'_> {
    /// Group size `|G|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether user `u` belongs to the group (binary search).
    pub fn contains(&self, u: UserId) -> bool {
        self.members.binary_search(&u).is_ok()
    }
}

/// The set of groups `𝒢` over a repository, with bidirectional links.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupSet {
    /// One definition per group, in group-id order.
    pub(crate) kinds: Vec<GroupKind>,
    /// The user ↔ group links: `members_of(g)` and `groups_of(u)`, both
    /// ascending. Its group count always equals `kinds.len()`.
    pub(crate) csr: CsrGraph,
    /// The bucket definitions, for label rendering; shared by every set
    /// built from the same bucketing.
    pub(crate) buckets: Arc<PropertyBuckets>,
}

impl GroupSet {
    /// Materializes all non-empty simple groups `G_{p,b}` of `repo` under the
    /// bucketing `buckets` (the paper's default `𝒢`, §3.2).
    pub fn build(repo: &UserRepository, buckets: &PropertyBuckets) -> Self {
        Self::build_filtered(repo, buckets, &|_| true)
    }

    /// Like [`GroupSet::build`], but only over properties accepted by
    /// `filter`. This backs the §7 "initial diversification configurations"
    /// feature — e.g. the UI's *Summer Pavilion* configuration "only
    /// considers properties related to a restaurant in that name".
    pub fn build_filtered(
        repo: &UserRepository,
        buckets: &PropertyBuckets,
        filter: &dyn Fn(PropertyId) -> bool,
    ) -> Self {
        let mut kinds = Vec::new();
        let mut lists: Vec<Vec<UserId>> = Vec::new();
        for p in 0..repo.property_count() {
            let pid = PropertyId::from_index(p);
            if !filter(pid) {
                continue;
            }
            let set = buckets.of(pid);
            if set.is_empty() {
                continue;
            }
            // One membership list per bucket of this property.
            let mut memberships: Vec<Vec<UserId>> = vec![Vec::new(); set.len()];
            for (u, s) in repo.property_values(pid) {
                if let Some(b) = set.bucket_of(s) {
                    memberships[b.index()].push(u);
                }
            }
            for (b, members) in memberships.into_iter().enumerate() {
                if !members.is_empty() {
                    kinds.push(GroupKind::Simple {
                        property: pid,
                        bucket: BucketIdx::from_index(b),
                    });
                    lists.push(members);
                }
            }
        }
        Self::from_lists(repo.user_count(), kinds, &lists, Arc::new(buckets.clone()))
    }

    /// Builds a group set directly from member lists (tests, synthetic
    /// instances such as the Set-Cover reduction of Proposition 4.1).
    pub fn from_memberships(user_count: usize, mut memberships: Vec<Vec<UserId>>) -> Self {
        for members in &mut memberships {
            members.sort();
            members.dedup();
        }
        let kinds = (0..memberships.len())
            .map(|i| GroupKind::Complex {
                label: format!("G{i}"),
            })
            .collect();
        Self::from_lists(user_count, kinds, &memberships, Arc::default())
    }

    /// The set of `kinds[i]` with sorted, deduplicated member list
    /// `lists[i]`.
    fn from_lists(
        user_count: usize,
        kinds: Vec<GroupKind>,
        lists: &[Vec<UserId>],
        buckets: Arc<PropertyBuckets>,
    ) -> Self {
        let lists: Vec<&[UserId]> = lists.iter().map(Vec::as_slice).collect();
        Self {
            kinds,
            csr: CsrGraph::from_member_lists(user_count, &lists),
            buckets,
        }
    }

    /// Number of groups `|𝒢|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of users the set was built over.
    #[inline]
    pub fn user_count(&self) -> usize {
        self.csr.user_count()
    }

    /// The user ↔ group links as the flat graph the selection kernels
    /// walk.
    #[inline]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Borrows a group.
    pub fn group(&self, g: GroupId) -> Result<Group<'_>> {
        match self.kinds.get(g.index()) {
            Some(kind) => Ok(Group {
                kind,
                members: self.csr.members_of(g.index()),
            }),
            None => Err(CoreError::UnknownGroup(g)),
        }
    }

    /// Iterates over `(id, group)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, Group<'_>)> {
        self.kinds.iter().enumerate().map(|(i, kind)| {
            let members = self.csr.members_of(i);
            (GroupId::from_index(i), Group { kind, members })
        })
    }

    /// All group ids.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = GroupId> {
        (0..self.kinds.len()).map(GroupId::from_index)
    }

    /// The groups user `u` belongs to (the forward links of §4),
    /// ascending; empty for a user outside the set.
    pub fn groups_of(&self, u: UserId) -> &[GroupId] {
        if u.index() < self.user_count() {
            self.csr.groups_of(u.index())
        } else {
            &[]
        }
    }

    /// `max_G |G|` — appears in the complexity bound of Proposition 4.4.
    pub fn max_group_size(&self) -> usize {
        (0..self.len())
            .map(|g| self.csr.group_size(g))
            .max()
            .unwrap_or(0)
    }

    /// `max_u |{G | u ∈ G}|` — the other factor of the complexity bound.
    pub fn max_groups_per_user(&self) -> usize {
        (0..self.user_count())
            .map(|u| self.csr.user_degree(u))
            .max()
            .unwrap_or(0)
    }

    /// The bucket that defines simple group `g`, if it is simple.
    pub fn bucket_of_group(&self, g: GroupId) -> Option<&Bucket> {
        match self.kinds.get(g.index())? {
            GroupKind::Simple { property, bucket } => self.buckets.of(*property).bucket(*bucket),
            GroupKind::Complex { .. } => None,
        }
    }

    /// A human-readable label for group `g`, combining the property label and
    /// bucket label as §5 prescribes (e.g. `"high avgRating Mexican"`).
    pub fn label(&self, g: GroupId, repo: &UserRepository) -> String {
        match self.kinds.get(g.index()) {
            Some(GroupKind::Simple { property, bucket }) => {
                let prop = repo
                    .property_label(*property)
                    .unwrap_or("<unknown property>");
                match self.buckets.of(*property).bucket(*bucket) {
                    Some(b) if b.label.is_empty() => prop.to_owned(),
                    Some(b) => format!("{} {}", b.label, prop),
                    None => prop.to_owned(),
                }
            }
            Some(GroupKind::Complex { label }) => label.clone(),
            None => format!("<unknown group {g}>"),
        }
    }

    /// Materializes a complex group from an expression and appends it,
    /// returning its id. The expression is evaluated against the *current*
    /// groups of the set. Rebuilds the link graph (`O(|V| + |E|)`), so it
    /// belongs to offline set construction, not the serving path.
    pub fn add_complex(&mut self, label: impl Into<String>, expr: &GroupExpr) -> Result<GroupId> {
        let members = expr.evaluate(self)?;
        let gid = GroupId::from_index(self.len());
        let mut lists: Vec<&[UserId]> = (0..self.len()).map(|g| self.csr.members_of(g)).collect();
        lists.push(&members);
        let csr = CsrGraph::from_member_lists(self.user_count(), &lists);
        self.csr = csr;
        self.kinds.push(GroupKind::Complex {
            label: label.into(),
        });
        Ok(gid)
    }

    /// Returns a pruned copy keeping only groups with at least `min_size`
    /// members, and — if `max_groups` is set — only the largest `max_groups`
    /// of those (ties broken by group id). Group ids are re-assigned densely
    /// in the *original* id order of the survivors.
    ///
    /// This is the practical §2 dimensionality lever: dropping near-empty
    /// niche groups shrinks `|𝒢|` (and thus the greedy's update cost)
    /// without materially changing which users cover the population.
    pub fn prune(&self, min_size: usize, max_groups: Option<usize>) -> GroupSet {
        let mut keep: Vec<usize> = (0..self.len())
            .filter(|&g| self.csr.group_size(g) >= min_size)
            .collect();
        if let Some(cap) = max_groups {
            if keep.len() > cap {
                keep.sort_by_key(|&g| (std::cmp::Reverse(self.csr.group_size(g)), g));
                keep.truncate(cap);
                keep.sort();
            }
        }
        let lists: Vec<&[UserId]> = keep.iter().map(|&g| self.csr.members_of(g)).collect();
        GroupSet {
            kinds: keep.iter().map(|&g| self.kinds[g].clone()).collect(),
            csr: CsrGraph::from_member_lists(self.user_count(), &lists),
            buckets: Arc::clone(&self.buckets),
        }
    }

    /// Finds the simple group for `(property, bucket)` if it is non-empty.
    pub fn find_simple(&self, property: PropertyId, bucket: BucketIdx) -> Option<GroupId> {
        let kind = GroupKind::Simple { property, bucket };
        self.kinds
            .iter()
            .position(|k| *k == kind)
            .map(GroupId::from_index)
    }

    /// All simple groups defined over `property` (e.g. all buckets of
    /// `β(livesIn …)`), in bucket order.
    pub fn groups_of_property(&self, property: PropertyId) -> Vec<GroupId> {
        self.ids()
            .filter(|g| {
                matches!(self.kinds[g.index()], GroupKind::Simple { property: p, .. } if p == property)
            })
            .collect()
    }
}

/// A complex-group expression over existing groups (§3.2: "Simple user
/// groups can be used to define more complex ones as the intersection or
/// union of a few simple groups").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroupExpr {
    /// Reference to an existing group.
    Group(GroupId),
    /// Intersection of sub-expressions.
    And(Vec<GroupExpr>),
    /// Union of sub-expressions.
    Or(Vec<GroupExpr>),
}

impl GroupExpr {
    /// Evaluates to a sorted member list.
    pub fn evaluate(&self, set: &GroupSet) -> Result<Vec<UserId>> {
        match self {
            GroupExpr::Group(g) => Ok(set.group(*g)?.members.to_vec()),
            GroupExpr::And(parts) => {
                let mut iter = parts.iter();
                let mut acc = match iter.next() {
                    Some(e) => e.evaluate(set)?,
                    None => return Ok(Vec::new()),
                };
                for e in iter {
                    let other = e.evaluate(set)?;
                    acc = intersect_sorted(&acc, &other);
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(acc)
            }
            GroupExpr::Or(parts) => {
                let mut acc: Vec<UserId> = Vec::new();
                for e in parts {
                    acc.extend(e.evaluate(set)?);
                }
                acc.sort();
                acc.dedup();
                Ok(acc)
            }
        }
    }
}

/// Intersection of two sorted, deduplicated id lists.
pub fn intersect_sorted(a: &[UserId], b: &[UserId]) -> Vec<UserId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketingConfig;

    /// Builds the repository of the paper's Table 2 (used across tests).
    fn table2_like() -> (UserRepository, GroupSet) {
        let mut repo = UserRepository::new();
        let users: Vec<UserId> = ["Alice", "Bob", "Carol", "David", "Eve"]
            .iter()
            .map(|n| repo.add_user(*n))
            .collect();
        let lives_tokyo = repo.intern_property("livesIn Tokyo");
        let avg_mex = repo.intern_property("avgRating Mexican");
        repo.set_score(users[0], lives_tokyo, 1.0).unwrap();
        repo.set_score(users[3], lives_tokyo, 1.0).unwrap();
        repo.set_score(users[0], avg_mex, 0.95).unwrap();
        repo.set_score(users[1], avg_mex, 0.3).unwrap();
        repo.set_score(users[3], avg_mex, 0.75).unwrap();
        repo.set_score(users[4], avg_mex, 0.8).unwrap();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let groups = GroupSet::build(&repo, &buckets);
        (repo, groups)
    }

    #[test]
    fn builds_example_35_groups() {
        let (repo, groups) = table2_like();
        // Expected: livesIn Tokyo {Alice, David}; avgRating Mexican low {Bob};
        // avgRating Mexican high {Alice, David, Eve}.
        assert_eq!(groups.len(), 3);
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let tokyo_groups = groups.groups_of_property(tokyo);
        assert_eq!(tokyo_groups.len(), 1);
        let g = groups.group(tokyo_groups[0]).unwrap();
        assert_eq!(g.members, vec![UserId(0), UserId(3)]);

        let mex = repo.property_id("avgRating Mexican").unwrap();
        let mex_groups = groups.groups_of_property(mex);
        assert_eq!(mex_groups.len(), 2);
        let sizes: Vec<usize> = mex_groups
            .iter()
            .map(|&g| groups.group(g).unwrap().size())
            .collect();
        assert_eq!(sizes, vec![1, 3], "low {{Bob}}, high {{Alice, David, Eve}}");
    }

    #[test]
    fn bidirectional_links_consistent() {
        let (_, groups) = table2_like();
        for (gid, g) in groups.iter() {
            for &u in g.members {
                assert!(
                    groups.groups_of(u).contains(&gid),
                    "reverse link missing for {u} in {gid}"
                );
            }
        }
        for u in 0..groups.user_count() {
            let uid = UserId::from_index(u);
            for &gid in groups.groups_of(uid) {
                assert!(groups.group(gid).unwrap().contains(uid));
            }
        }
    }

    #[test]
    fn labels_combine_bucket_and_property() {
        let (repo, groups) = table2_like();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let labels: Vec<String> = groups
            .groups_of_property(mex)
            .into_iter()
            .map(|g| groups.label(g, &repo))
            .collect();
        assert!(labels.contains(&"low avgRating Mexican".to_owned()));
        assert!(labels.contains(&"high avgRating Mexican".to_owned()));
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let tg = groups.groups_of_property(tokyo)[0];
        assert_eq!(
            groups.label(tg, &repo),
            "livesIn Tokyo",
            "Boolean bucket label is empty (§5)"
        );
    }

    #[test]
    fn complex_group_example_35() {
        // "Tokyo residents who are also Mexican food lovers" = {Alice, David}.
        let (repo, mut groups) = table2_like();
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let tg = groups.groups_of_property(tokyo)[0];
        let high_mex = groups
            .groups_of_property(mex)
            .into_iter()
            .find(|&g| groups.group(g).unwrap().size() == 3)
            .unwrap();
        let expr = GroupExpr::And(vec![GroupExpr::Group(tg), GroupExpr::Group(high_mex)]);
        let gid = groups
            .add_complex("Tokyo residents ∩ Mexican food lovers", &expr)
            .unwrap();
        let g = groups.group(gid).unwrap();
        assert_eq!(g.members, vec![UserId(0), UserId(3)]);
        // Reverse links updated.
        assert!(groups.groups_of(UserId(0)).contains(&gid));
    }

    #[test]
    fn or_expression_unions() {
        let (_, groups) = table2_like();
        let expr = GroupExpr::Or(vec![
            GroupExpr::Group(GroupId(0)),
            GroupExpr::Group(GroupId(1)),
            GroupExpr::Group(GroupId(2)),
        ]);
        let members = expr.evaluate(&groups).unwrap();
        // Union of all groups = everyone except Carol (no scored property).
        assert_eq!(members.len(), 4);
        assert!(!members.contains(&UserId(2)));
    }

    #[test]
    fn empty_and_expression() {
        let (_, groups) = table2_like();
        assert!(GroupExpr::And(vec![]).evaluate(&groups).unwrap().is_empty());
    }

    #[test]
    fn unknown_group_errors() {
        let (_, groups) = table2_like();
        assert!(matches!(
            groups.group(GroupId(99)),
            Err(CoreError::UnknownGroup(_))
        ));
        assert!(GroupExpr::Group(GroupId(99)).evaluate(&groups).is_err());
    }

    #[test]
    fn from_memberships_dedups_and_sorts() {
        let set = GroupSet::from_memberships(
            3,
            vec![vec![UserId(2), UserId(0), UserId(2)], vec![UserId(1)]],
        );
        assert_eq!(
            set.group(GroupId(0)).unwrap().members,
            vec![UserId(0), UserId(2)]
        );
        assert_eq!(set.max_group_size(), 2);
        assert_eq!(set.max_groups_per_user(), 1);
    }

    #[test]
    fn intersect_sorted_basics() {
        let a = vec![UserId(1), UserId(3), UserId(5)];
        let b = vec![UserId(2), UserId(3), UserId(5), UserId(7)];
        assert_eq!(intersect_sorted(&a, &b), vec![UserId(3), UserId(5)]);
        assert!(intersect_sorted(&a, &[]).is_empty());
    }

    #[test]
    fn stats_on_table2() {
        let (_, groups) = table2_like();
        assert_eq!(groups.max_group_size(), 3);
        assert_eq!(groups.max_groups_per_user(), 2); // Alice, David
    }

    #[test]
    fn prune_by_min_size() {
        let (_, groups) = table2_like();
        // Sizes: 2 (Tokyo), 1 (mex low), 3 (mex high).
        let pruned = groups.prune(2, None);
        assert_eq!(pruned.len(), 2);
        assert_eq!(pruned.max_group_size(), 3);
        // Reverse links rebuilt consistently.
        for (gid, g) in pruned.iter() {
            for &u in g.members {
                assert!(pruned.groups_of(u).contains(&gid));
            }
        }
        // Bob (only in the size-1 group) now belongs to no group.
        assert!(pruned.groups_of(UserId(1)).is_empty());
    }

    #[test]
    fn prune_by_max_groups_keeps_largest() {
        let (_, groups) = table2_like();
        let pruned = groups.prune(0, Some(1));
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned.group(GroupId(0)).unwrap().size(), 3, "largest kept");
    }

    #[test]
    fn prune_noop_preserves_everything() {
        let (_, groups) = table2_like();
        let pruned = groups.prune(0, None);
        assert_eq!(pruned.len(), groups.len());
        for (gid, g) in groups.iter() {
            assert_eq!(pruned.group(gid).unwrap().members, g.members);
        }
    }
}
