//! Acceptance-length modelling for speculative decoding.
//!
//! Two uses:
//!
//! * the **token-level** engine measures acceptance directly against the tiny model
//!   and records it into an [`AcceptanceProfile`] (`from_measured`);
//! * the **timing-level** simulations of the full-size models (Figures 13/14,
//!   Tables 1/2/4) need an analytic model of how per-position acceptance rates,
//!   draft depth, tree top-K and the verification budget combine into an expected
//!   accepted length per speculative step.

use serde::{Deserialize, Serialize};

/// Per-position acceptance probabilities of a drafter against its target: entry `i`
/// is the probability that the `(i+1)`-th drafted token is accepted, conditioned on
/// all earlier drafted tokens having been accepted (the quantity of Figure 16).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptanceProfile {
    per_position: Vec<f64>,
}

impl AcceptanceProfile {
    /// Builds a profile from measured per-position acceptance rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` or the profile is empty.
    pub fn from_measured(rates: Vec<f64>) -> Self {
        assert!(!rates.is_empty(), "empty acceptance profile");
        for &r in &rates {
            assert!((0.0..=1.0).contains(&r), "acceptance rate {r} out of range");
        }
        AcceptanceProfile {
            per_position: rates,
        }
    }

    /// Parametric profile: `p_i = base * decay^i`, clamped to `[0, 1]`, for
    /// `max_depth` positions. `base` captures drafter quality at position 1 and
    /// `decay` the compounding error accumulation with depth.
    pub fn parametric(base: f64, decay: f64, max_depth: usize) -> Self {
        assert!(max_depth > 0, "profile needs at least one position");
        let rates = (0..max_depth)
            .map(|i| (base * decay.powi(i as i32)).clamp(0.0, 1.0))
            .collect();
        AcceptanceProfile {
            per_position: rates,
        }
    }

    /// Profile of a well-adapted EAGLE drafter (calibrated to the paper's measured
    /// accept lengths of ~6.5 at depth 6-8 with tree drafting).
    pub fn adaptive_drafter() -> Self {
        AcceptanceProfile::parametric(0.92, 0.965, 16)
    }

    /// Profile of a stale (non-adapted) drafter after the target has drifted through
    /// RL updates; its acceptance decays much faster with position (Figure 16).
    pub fn stale_drafter() -> Self {
        AcceptanceProfile::parametric(0.72, 0.80, 16)
    }

    /// Profile of the model-free n-gram drafter (lower per-position quality).
    pub fn model_free_drafter() -> Self {
        AcceptanceProfile::parametric(0.55, 0.85, 16)
    }

    /// Maximum depth this profile describes.
    pub fn max_depth(&self) -> usize {
        self.per_position.len()
    }

    /// Acceptance probability at drafted position `i` (0-based); positions beyond the
    /// profile reuse the last entry.
    pub fn rate_at(&self, i: usize) -> f64 {
        let idx = i.min(self.per_position.len() - 1);
        self.per_position[idx]
    }

    /// Scales every per-position rate by `factor` (clamped to `[0,1]`) — used to
    /// model staleness accumulating as the target model drifts between drafter
    /// updates, and recovery after adaptive training.
    pub fn scaled(&self, factor: f64) -> AcceptanceProfile {
        AcceptanceProfile {
            per_position: self
                .per_position
                .iter()
                .map(|&p| (p * factor).clamp(0.0, 1.0))
                .collect(),
        }
    }

    /// Expected accepted tokens per speculative step with *linear* (single-chain)
    /// drafting of `depth` tokens: `1 + sum_k prod_{i<=k} p_i` (the `+1` is the bonus
    /// token the target emits at the first mismatch position).
    pub fn expected_accept_len_linear(&self, depth: usize) -> f64 {
        let mut total = 1.0;
        let mut running = 1.0;
        for i in 0..depth {
            running *= self.rate_at(i);
            total += running;
        }
        total
    }

    /// Expected accepted tokens per speculative step with *tree* drafting:
    /// `top_k` branches per expansion, `depth` levels, and a total verification
    /// budget of `tokens_to_verify` tree nodes submitted to the target.
    ///
    /// Candidate slots are allocated level by level proportionally to the
    /// probability that the level is reached; multiple candidates at a level raise
    /// the effective acceptance with diminishing returns.
    pub fn expected_accept_len_tree(
        &self,
        depth: usize,
        top_k: usize,
        tokens_to_verify: usize,
    ) -> f64 {
        if depth == 0 || tokens_to_verify == 0 {
            return 1.0;
        }
        let top_k = top_k.max(1);
        // Reach probabilities under single-candidate acceptance, used to split the
        // verification budget across levels (levels more likely to be reached get a
        // proportionally larger share of the tree's nodes). Level `i` is reached
        // with probability `prod_{j<i} p_j`; the first pass sums them and the
        // second recomputes each one in the same order, so no buffer is needed.
        let mut reach_sum = 0.0;
        let mut reach = 1.0;
        for i in 0..depth {
            reach_sum += reach;
            reach *= self.rate_at(i);
        }
        let reach_sum = f64::max(reach_sum, f64::EPSILON);
        // Candidates competing at each level along the accepted path: bounded below
        // by 1 (the chain always exists), above by the tree top-K, and by the level's
        // share of the verification budget.
        let mut total = 1.0;
        let mut running = 1.0;
        let mut reach = 1.0;
        for i in 0..depth {
            let share = tokens_to_verify as f64 * reach / reach_sum;
            if share < 1.0 {
                break;
            }
            let candidates = share.clamp(1.0, top_k as f64);
            let p = self.rate_at(i);
            // Extra candidates are correlated with the top candidate, so their
            // marginal value diminishes (square-root law on the surplus).
            let exponent = 1.0 + 0.5 * (candidates - 1.0).max(0.0).sqrt();
            let p_eff = 1.0 - (1.0 - p).powf(exponent);
            running *= p_eff;
            total += running;
            reach *= p;
        }
        total
    }

    /// Mean acceptance rate across positions (a scalar drafter-quality summary).
    pub fn mean_rate(&self) -> f64 {
        self.per_position.iter().sum::<f64>() / self.per_position.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original buffered formulation of
    /// [`AcceptanceProfile::expected_accept_len_tree`]: reach probabilities are
    /// collected into a `Vec` first, then summed and walked. The allocation-free
    /// version must match it bit for bit.
    fn reference_accept_len_tree(
        profile: &AcceptanceProfile,
        depth: usize,
        top_k: usize,
        tokens_to_verify: usize,
    ) -> f64 {
        if depth == 0 || tokens_to_verify == 0 {
            return 1.0;
        }
        let top_k = top_k.max(1);
        let mut reach = Vec::with_capacity(depth);
        let mut running = 1.0;
        for i in 0..depth {
            reach.push(running);
            running *= profile.rate_at(i);
        }
        let reach_sum: f64 = reach.iter().sum::<f64>().max(f64::EPSILON);
        let mut total = 1.0;
        let mut running = 1.0;
        for (i, &reach_i) in reach.iter().enumerate() {
            let share = tokens_to_verify as f64 * reach_i / reach_sum;
            if share < 1.0 {
                break;
            }
            let candidates = share.clamp(1.0, top_k as f64);
            let p = profile.rate_at(i);
            let exponent = 1.0 + 0.5 * (candidates - 1.0).max(0.0).sqrt();
            let p_eff = 1.0 - (1.0 - p).powf(exponent);
            running *= p_eff;
            total += running;
        }
        total
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Random continuous and grid-snapped profiles (the grid hits exact 0
        /// and 1), depths from 0 to well past the profile length, and verify
        /// budgets from 0 up, including top-K 0.
        #[test]
        fn tree_accept_len_is_bit_identical_to_the_buffered_reference(
            rates in collection::vec(0.0f64..1.0, 1..20),
            grid in collection::vec(0u32..=8, 1..20),
            depth in 0usize..32,
            top_k in 0usize..12,
            tokens_to_verify in 0usize..96,
        ) {
            let snapped = grid.iter().map(|&g| f64::from(g) / 8.0).collect();
            for profile in [
                AcceptanceProfile::from_measured(rates),
                AcceptanceProfile::from_measured(snapped),
            ] {
                let got = profile.expected_accept_len_tree(depth, top_k, tokens_to_verify);
                let want = reference_accept_len_tree(&profile, depth, top_k, tokens_to_verify);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn linear_accept_len_bounded_by_depth_plus_one() {
        let p = AcceptanceProfile::adaptive_drafter();
        for depth in [1, 4, 8, 16] {
            let len = p.expected_accept_len_linear(depth);
            assert!(len >= 1.0 && len <= depth as f64 + 1.0);
        }
    }

    #[test]
    fn perfect_drafter_accepts_everything() {
        let p = AcceptanceProfile::parametric(1.0, 1.0, 8);
        assert!((p.expected_accept_len_linear(8) - 9.0).abs() < 1e-9);
        assert!(p.expected_accept_len_tree(8, 2, 64) > 8.5);
    }

    #[test]
    fn useless_drafter_accepts_only_bonus_token() {
        let p = AcceptanceProfile::parametric(0.0, 1.0, 8);
        assert!((p.expected_accept_len_linear(8) - 1.0).abs() < 1e-9);
        assert!((p.expected_accept_len_tree(8, 4, 32) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accept_len_saturates_with_depth() {
        // Figure 13(a): increasing draft depth raises accept length with diminishing
        // returns.
        let p = AcceptanceProfile::adaptive_drafter();
        let l4 = p.expected_accept_len_tree(4, 8, 64);
        let l8 = p.expected_accept_len_tree(8, 8, 64);
        let l12 = p.expected_accept_len_tree(12, 8, 64);
        let l16 = p.expected_accept_len_tree(16, 8, 64);
        assert!(l8 > l4);
        assert!(l12 >= l8);
        assert!(l12 - l8 < l8 - l4, "gains must diminish");
        assert!(l16 - l12 < 1.0);
    }

    #[test]
    fn accept_len_grows_with_verification_budget() {
        let p = AcceptanceProfile::adaptive_drafter();
        let l16 = p.expected_accept_len_tree(10, 8, 16);
        let l64 = p.expected_accept_len_tree(10, 8, 64);
        assert!(l64 > l16);
    }

    #[test]
    fn accept_len_insensitive_to_large_topk() {
        // Table 1: topK beyond ~6 barely moves accept length.
        let p = AcceptanceProfile::adaptive_drafter();
        let l6 = p.expected_accept_len_tree(12, 6, 64);
        let l16 = p.expected_accept_len_tree(12, 16, 64);
        assert!(
            (l6 - l16).abs() < 0.8,
            "topK sensitivity too high: {l6} vs {l16}"
        );
    }

    #[test]
    fn tree_drafting_beats_linear_drafting() {
        let p = AcceptanceProfile::adaptive_drafter();
        let linear = p.expected_accept_len_linear(8);
        let tree = p.expected_accept_len_tree(8, 8, 64);
        assert!(tree > linear);
    }

    #[test]
    fn adaptive_profile_dominates_stale_profile() {
        // Figure 16: the adaptive drafter keeps a higher accept rate at every position.
        let adaptive = AcceptanceProfile::adaptive_drafter();
        let stale = AcceptanceProfile::stale_drafter();
        for i in 0..8 {
            assert!(adaptive.rate_at(i) > stale.rate_at(i));
        }
        assert!(
            adaptive.expected_accept_len_tree(8, 8, 48)
                > stale.expected_accept_len_tree(8, 8, 48) + 1.0
        );
    }

    #[test]
    fn calibrated_accept_length_matches_paper_range() {
        // The paper reports ~6.5 average accept length for the adapted EAGLE drafter
        // (Table 7) and ~8.3-8.7 for the depth-12/verify-64 grid (Table 1).
        let p = AcceptanceProfile::adaptive_drafter();
        let table7 = p.expected_accept_len_tree(6, 8, 48);
        assert!(
            (4.5..8.0).contains(&table7),
            "table7-style accept len {table7}"
        );
        let table1 = p.expected_accept_len_tree(12, 8, 64);
        assert!(
            (6.0..11.0).contains(&table1),
            "table1-style accept len {table1}"
        );
    }

    #[test]
    fn scaled_profile_clamps_and_reduces() {
        let p = AcceptanceProfile::adaptive_drafter();
        let s = p.scaled(0.5);
        assert!(s.mean_rate() < p.mean_rate());
        let boosted = p.scaled(2.0);
        assert!(boosted.per_position.iter().all(|&x| x <= 1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_measured_rates_panic() {
        let _ = AcceptanceProfile::from_measured(vec![0.5, 1.5]);
    }
}
