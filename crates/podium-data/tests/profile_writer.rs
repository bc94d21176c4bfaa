//! Byte-identity of the direct profile writer against the value-tree
//! path it replaced.
//!
//! `profiles_to_json` writes the §7 document in one pass. Checkpoint
//! files embed its output, so it must produce exactly the bytes of the
//! old path — a `BTreeMap` per user, a `JsonRepository`, then
//! `serde_json::to_string_pretty` — which survives here only as the
//! oracle.

use std::collections::BTreeMap;

use podium_core::profile::UserRepository;
use podium_data::json::{profiles_to_json, JsonRepository, JsonStr, JsonUser};
use proptest::prelude::*;

/// The replaced serialization path: a value tree, pretty-printed.
fn tree_path(repo: &UserRepository) -> String {
    let mut doc = JsonRepository::default();
    for (u, profile) in repo.iter() {
        let mut properties = BTreeMap::new();
        for (p, s) in profile.iter() {
            properties.insert(repo.property_label(p).unwrap().to_owned(), s);
        }
        doc.users.push(JsonUser {
            name: repo.user_name(u).unwrap().to_owned(),
            properties,
        });
    }
    serde_json::to_string_pretty(&doc).unwrap()
}

/// Fragments names and labels are built from: every escape class
/// (quote, backslash, the named controls, other controls), DEL, a slash,
/// and multi-byte characters next to plain ASCII.
const FRAGMENTS: &[&str] = &[
    "a", "Zz", " ", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\u{7f}", "/", "é", "😀",
    "livesIn ", "0",
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FRAGMENTS.len(), 0..6)
        .prop_map(|picks| picks.iter().map(|&i| FRAGMENTS[i]).collect())
}

/// A score in `[0, 1]`: the endpoints, short decimals, and full-precision
/// fractions.
fn score() -> impl Strategy<Value = f64> {
    (0u8..4, any::<u64>()).prop_map(|(kind, bits)| match kind {
        0 => (bits % 2) as f64,
        1 => (bits % 1001) as f64 / 1000.0,
        _ => (bits >> 11) as f64 / (1u64 << 53) as f64,
    })
}

/// Users as `(name, [(label pick, score)])`. Picks index the label list
/// modulo its length, so some labels go unscored and some users get
/// empty profiles.
type UserSpec = (String, Vec<(usize, f64)>);

fn build(labels: &[String], users: &[UserSpec]) -> UserRepository {
    let mut repo = UserRepository::new();
    let props: Vec<_> = labels.iter().map(|l| repo.intern_property(l)).collect();
    for (name, scores) in users {
        let u = repo.add_user(name.clone());
        for &(pick, s) in scores {
            repo.set_score(u, props[pick % props.len()], s).unwrap();
        }
    }
    repo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn direct_writer_matches_the_tree_path(
        labels in prop::collection::vec(text(), 1..10),
        users in prop::collection::vec(
            (text(), prop::collection::vec((0usize..16, score()), 0..8)),
            0..8,
        ),
    ) {
        let repo = build(&labels, &users);
        prop_assert_eq!(profiles_to_json(&repo).unwrap(), tree_path(&repo));
    }

    #[test]
    fn json_str_matches_the_vendored_escaper(s in text()) {
        prop_assert_eq!(JsonStr(&s).to_string(), serde_json::to_string(&s).unwrap());
    }
}

#[test]
fn empty_repository_and_empty_profiles_match_the_tree_path() {
    let empty = UserRepository::new();
    assert_eq!(profiles_to_json(&empty).unwrap(), tree_path(&empty));

    let mut repo = UserRepository::new();
    repo.intern_property("unscored");
    repo.add_user("nobody");
    assert_eq!(profiles_to_json(&repo).unwrap(), tree_path(&repo));
}
