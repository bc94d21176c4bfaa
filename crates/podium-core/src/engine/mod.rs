//! The high-throughput selection engine: CSR group storage, heap-based
//! lazy greedy, and (optionally) multi-threaded marginal evaluation.
//!
//! The historical entry points — [`crate::greedy::greedy_select`],
//! [`crate::lazy_greedy::lazy_greedy_select`],
//! [`crate::stochastic_greedy::stochastic_greedy_select`] — remain the
//! stable API and now delegate here; their results are unchanged. This
//! module additionally exposes the pieces for callers that select
//! repeatedly from the same group set:
//!
//! * [`CsrGraph`] — the flat bipartite user ↔ group adjacency, built once
//!   from a [`GroupSet`] in `O(|V| + |E|)` and shared across runs;
//! * [`SelectionEngine`] — couples an instance with its CSR graph and runs
//!   any [`EngineVariant`];
//! * the `parallel` cargo feature (default **off**, zero new dependencies)
//!   — chunks marginal evaluations across `std::thread::scope` workers for
//!   the [`EngineVariant::LazyHeapParallel`] paths; with the feature off
//!   those paths fall back to the sequential implementation.
//!
//! Complexity: eager greedy is `O(|E| + B·n + Σ_{covered G} |G|)`, where
//! the `B·n` argmax scans are ceiling-bounded — a round whose maximum
//! equals the previous one stops at the first user reaching it, so
//! tie-heavy and post-saturation rounds end after a few users. The lazy heap
//! replaces the argmax scans and the member-side updates with `O(|E|)`
//! heapify plus `O(r·(log n + deg))` for the `r` entries it actually
//! refreshes. `r ≪ n` when bounds separate (the CELF effect); when many
//! near-tied bounds crowd the heap top, `r` grows to thousands per round
//! and the eager kernel wins — which is why [`eager_select_deadline`]
//! serves selects and [`lazy_select_csr`] stays the reference.

pub mod anneal;
pub mod constrained;
pub mod csr;
mod eager;
mod lazy;
mod par;
mod stochastic;

pub use anneal::{anneal_refine, splitmix64, AnnealSchedule};
pub use constrained::{
    constrained_lazy_select, constraint_fingerprint, feasible_by_brute_force, Infeasible, Quota,
    QuotaBound, QuotaError, QuotaSet,
};
pub use csr::CsrGraph;

use crate::greedy::{Selection, TieBreak};
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

/// Which selection algorithm the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineVariant {
    /// Algorithm 1 with decremental marginal maintenance (the paper's
    /// eager update scheme).
    Eager,
    /// CELF lazy greedy over a max-heap of stale upper bounds; selections
    /// are bit-identical to [`EngineVariant::Eager`] under the `FirstUser`
    /// tie-break and exact score arithmetic.
    LazyHeap,
    /// [`EngineVariant::LazyHeap`] with initial gains and large refresh
    /// bursts chunked across scoped threads (`parallel` feature; sequential
    /// fallback when the feature is off or the pool is small).
    LazyHeapParallel,
}

impl EngineVariant {
    /// Every variant, for benchmark sweeps.
    pub const ALL: [EngineVariant; 3] = [
        EngineVariant::Eager,
        EngineVariant::LazyHeap,
        EngineVariant::LazyHeapParallel,
    ];

    /// A stable snake_case label for reports and benchmark ids.
    pub fn label(self) -> &'static str {
        match self {
            EngineVariant::Eager => "eager",
            EngineVariant::LazyHeap => "lazy_heap",
            EngineVariant::LazyHeapParallel => "lazy_heap_parallel",
        }
    }
}

/// A diversification instance coupled with the CSR form of its group graph.
///
/// Building the engine performs the one-time `O(|V| + |E|)` CSR
/// construction; every selection after that walks flat arrays only.
#[derive(Debug, Clone)]
pub struct SelectionEngine<'i, W: ScoreValue> {
    inst: &'i DiversificationInstance<'i, W>,
    csr: CsrGraph,
}

impl<'i, W: ScoreValue> SelectionEngine<'i, W> {
    /// Builds the engine (and the CSR graph) for an instance.
    ///
    /// Under debug assertions the instance is structurally validated
    /// ([`DiversificationInstance::validate`]) and the freshly built CSR
    /// graph checks its own invariants — selector harnesses running with
    /// `RUSTFLAGS="-C debug-assertions"` therefore vet every instance they
    /// select from. Release builds skip both checks.
    pub fn new(inst: &'i DiversificationInstance<'i, W>) -> Self {
        debug_assert!(
            inst.validate().is_ok(),
            "refusing to build engine: {}",
            inst.validate().unwrap_err()
        );
        let csr = CsrGraph::from_group_set(inst.groups());
        Self { inst, csr }
    }

    /// The CSR graph, for callers that want raw adjacency access.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The underlying instance.
    pub fn instance(&self) -> &'i DiversificationInstance<'i, W> {
        self.inst
    }

    /// Runs `variant` with budget `b` (no eligibility filter, `FirstUser`
    /// ties).
    pub fn select(&self, variant: EngineVariant, b: usize) -> Selection<W> {
        match variant {
            EngineVariant::Eager => self.eager(b, None, TieBreak::FirstUser),
            EngineVariant::LazyHeap => self.lazy(b, None),
            EngineVariant::LazyHeapParallel => self.lazy_parallel(b, None),
        }
    }

    /// Eager greedy (Algorithm 1) with an optional eligibility filter and
    /// tie-break policy.
    pub fn eager(&self, b: usize, eligible: Option<&[bool]>, tie_break: TieBreak) -> Selection<W> {
        eager::eager_select(self.inst, &self.csr, b, eligible, tie_break, &mut |_| false).0
    }

    /// Sequential CELF lazy greedy. `FirstUser` tie-break only — for
    /// `Seeded` ties use [`SelectionEngine::eager`], whose reservoir
    /// sampling needs the full candidate scan.
    pub fn lazy(&self, b: usize, eligible: Option<&[bool]>) -> Selection<W> {
        lazy::lazy_select(self.inst, &self.csr, b, eligible)
    }

    /// CELF lazy greedy with multi-threaded marginal evaluation (`parallel`
    /// feature; sequential fallback otherwise). Same selection as
    /// [`SelectionEngine::lazy`].
    pub fn lazy_parallel(&self, b: usize, eligible: Option<&[bool]>) -> Selection<W> {
        lazy::lazy_select_parallel(self.inst, &self.csr, b, eligible)
    }

    /// Stochastic greedy (see [`crate::stochastic_greedy`]).
    pub fn stochastic(&self, b: usize, epsilon: f64, seed: u64) -> Selection<W> {
        stochastic::stochastic_select(self.inst, &self.csr, b, epsilon, seed)
    }
}

/// Sequential CELF lazy greedy against a caller-provided, prebuilt CSR
/// graph — the entry point for serving layers that keep one [`CsrGraph`]
/// per repository snapshot and select from it across many requests without
/// paying the `O(|V| + |E|)` rebuild that [`SelectionEngine::new`] performs.
///
/// `csr` must have been built from `inst.groups()` (or an equivalent
/// member-list ordering); this is checked under debug assertions.
pub fn lazy_select_csr<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
) -> Selection<W> {
    debug_assert_eq!(csr.user_count(), inst.user_count(), "csr/instance users");
    debug_assert_eq!(
        csr.group_count(),
        inst.groups().len(),
        "csr/instance groups"
    );
    lazy::lazy_select(inst, csr, b, eligible)
}

/// Eager greedy (Algorithm 1, `FirstUser` ties) against a prebuilt CSR
/// graph, with a deadline hook: `should_stop(selected)` is polled before
/// the initial candidate scan and after every committed greedy round, with
/// the number of users selected so far. Returning `true` stops the run;
/// the returned flag is `false` iff that happened.
///
/// An interrupted selection is still exactly the greedy *prefix* of the
/// full run — submodularity gives it the usual `(1 − 1/e)` guarantee for
/// its own (smaller) budget — so serving callers can either return the
/// partial result marked as truncated or map it to a deadline error.
/// Under exact score arithmetic the selection is bit-identical to
/// [`lazy_select_csr`].
pub fn eager_select_deadline<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    should_stop: &mut dyn FnMut(usize) -> bool,
) -> (Selection<W>, bool) {
    debug_assert_eq!(csr.user_count(), inst.user_count(), "csr/instance users");
    debug_assert_eq!(
        csr.group_count(),
        inst.groups().len(),
        "csr/instance groups"
    );
    eager::eager_select(inst, csr, b, None, TieBreak::FirstUser, should_stop)
}

/// Crate-internal one-shot helpers for the delegating legacy entry points
/// (they build the CSR graph per call; the engine type amortizes it).
pub(crate) fn eager_once<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    b: usize,
    eligible: Option<&[bool]>,
    tie_break: TieBreak,
) -> Selection<W> {
    debug_assert!(
        inst.validate().is_ok(),
        "invalid instance: {}",
        inst.validate().unwrap_err()
    );
    let csr = CsrGraph::from_group_set(inst.groups());
    eager::eager_select(inst, &csr, b, eligible, tie_break, &mut |_| false).0
}

/// One-shot sequential lazy greedy (see [`eager_once`]).
pub(crate) fn lazy_once<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    b: usize,
    eligible: Option<&[bool]>,
) -> Selection<W> {
    let csr = CsrGraph::from_group_set(inst.groups());
    lazy::lazy_select(inst, &csr, b, eligible)
}

/// One-shot stochastic greedy (see [`eager_once`]).
pub(crate) fn stochastic_once<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    b: usize,
    epsilon: f64,
    seed: u64,
) -> Selection<W> {
    let csr = CsrGraph::from_group_set(inst.groups());
    stochastic::stochastic_select(inst, &csr, b, epsilon, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupSet;
    use crate::ids::UserId;
    use crate::weights::{CovScheme, WeightScheme};

    fn random_groups(seed: u64, users: usize, groups: usize) -> GroupSet {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let memberships: Vec<Vec<UserId>> = (0..groups)
            .map(|_| {
                let size = 1 + next() % users;
                let mut m: Vec<UserId> = (0..size)
                    .map(|_| UserId::from_index(next() % users))
                    .collect();
                m.sort();
                m.dedup();
                m
            })
            .collect();
        GroupSet::from_memberships(users, memberships)
    }

    fn assert_same<W: ScoreValue + PartialEq>(a: &Selection<W>, b: &Selection<W>, ctx: &str) {
        assert_eq!(a.users, b.users, "{ctx}");
        assert_eq!(a.gains, b.gains, "{ctx}");
        assert_eq!(a.score, b.score, "{ctx}");
        assert_eq!(a.covered_counts, b.covered_counts, "{ctx}");
    }

    /// The ceiling-bounded eager kernel equals CELF bit for bit: both
    /// weight schemes (`Identical` makes ties the rule), budgets past
    /// saturation up to the whole population, and eligibility masks.
    #[test]
    fn all_variants_agree_exactly() {
        let n = 30;
        for seed in 0..12 {
            let g = random_groups(seed, n, 45);
            for (w, c) in [
                (WeightScheme::LinearBySize, CovScheme::Proportional),
                (WeightScheme::LinearBySize, CovScheme::Single),
                (WeightScheme::Identical, CovScheme::Single),
                (WeightScheme::Identical, CovScheme::Proportional),
            ] {
                for b in [1, 6, 15, n, n + 3] {
                    let inst = DiversificationInstance::from_schemes(&g, w, c, b);
                    let engine = SelectionEngine::new(&inst);
                    let lazy = engine.select(EngineVariant::LazyHeap, b);
                    let ctx = format!("seed {seed} {w:?}/{c:?} b={b}");
                    for variant in [EngineVariant::Eager, EngineVariant::LazyHeapParallel] {
                        let sel = engine.select(variant, b);
                        assert_same(&sel, &lazy, &format!("{ctx} {variant:?}"));
                    }
                    let (served, completed) =
                        eager_select_deadline(&inst, engine.csr(), b, &mut |_| false);
                    assert!(completed);
                    assert_same(&served, &lazy, &format!("{ctx} deadline"));
                    let mask: Vec<bool> = (0..n)
                        .map(|u| !(u * 7 + seed as usize).is_multiple_of(3))
                        .collect();
                    let eager = engine.eager(b, Some(&mask), TieBreak::FirstUser);
                    let lazy = engine.lazy(b, Some(&mask));
                    assert_same(&eager, &lazy, &format!("{ctx} masked"));
                    assert!(eager.users.iter().all(|u| mask[u.index()]), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn engine_matches_legacy_entry_points() {
        let g = random_groups(5, 20, 30);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            5,
        );
        let engine = SelectionEngine::new(&inst);
        let legacy = crate::greedy::greedy_select(&inst, 5);
        assert_eq!(engine.select(EngineVariant::Eager, 5), legacy);
        let legacy_lazy = crate::lazy_greedy::lazy_greedy_select(&inst, 5);
        assert_eq!(engine.select(EngineVariant::LazyHeap, 5), legacy_lazy);
        let legacy_stoch = crate::stochastic_greedy::stochastic_greedy_select(&inst, 5, 0.2, 9);
        assert_eq!(engine.stochastic(5, 0.2, 9), legacy_stoch);
    }

    #[test]
    fn eligibility_respected_by_every_variant() {
        let g = random_groups(2, 10, 15);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            3,
        );
        let engine = SelectionEngine::new(&inst);
        let mut eligible = vec![true; 10];
        eligible[0] = false;
        eligible[4] = false;
        let eager = engine.eager(3, Some(&eligible), TieBreak::FirstUser);
        let lazy = engine.lazy(3, Some(&eligible));
        let par = engine.lazy_parallel(3, Some(&eligible));
        assert_eq!(eager.users, lazy.users);
        assert_eq!(eager.users, par.users);
        for sel in [&eager, &lazy, &par] {
            assert!(!sel.contains(UserId(0)));
            assert!(!sel.contains(UserId(4)));
        }
    }

    #[test]
    fn csr_reuse_entry_point_matches_engine() {
        let g = random_groups(7, 25, 40);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            6,
        );
        let engine = SelectionEngine::new(&inst);
        let via_engine = engine.lazy(6, None);
        let csr = CsrGraph::from_group_set(&g);
        let via_csr = lazy_select_csr(&inst, &csr, 6, None);
        assert_eq!(via_csr, via_engine);
        let (complete, finished) = eager_select_deadline(&inst, &csr, 6, &mut |_| false);
        assert!(finished);
        assert_eq!(complete, via_engine);
        let (truncated, finished) = eager_select_deadline(&inst, &csr, 6, &mut |k| k >= 2);
        assert!(!finished);
        assert_eq!(truncated.users, via_engine.users[..2]);
    }

    /// Interrupting after `k` committed rounds must yield exactly the
    /// uninterrupted selection's length-`k` greedy prefix.
    #[test]
    fn interrupt_yields_exact_greedy_prefix() {
        let users = 25;
        let memberships: Vec<Vec<UserId>> = (0..30)
            .map(|g| {
                (0..users)
                    .filter(|u| (u * 7 + g * 3) % 5 == 0)
                    .map(|u| UserId(u as u32))
                    .collect()
            })
            .collect();
        let groups = GroupSet::from_memberships(users, memberships);
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            8,
        );
        let csr = CsrGraph::from_group_set(&groups);
        let full = lazy_select_csr(&inst, &csr, 8, None);
        for k in 0..full.users.len() {
            let (partial, completed) = eager_select_deadline(&inst, &csr, 8, &mut |done| done >= k);
            assert!(!completed, "stop at {k} must report incompletion");
            assert_eq!(partial.users, full.users[..k], "prefix at {k}");
            assert_eq!(partial.gains, full.gains[..k], "gains at {k}");
        }
        let (all, completed) = eager_select_deadline(&inst, &csr, 8, &mut |_| false);
        assert!(completed);
        assert_eq!(all.users, full.users);
        assert_eq!(all.score, full.score);
        assert_eq!(all.covered_counts, full.covered_counts);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = EngineVariant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["eager", "lazy_heap", "lazy_heap_parallel"]);
    }
}
