//! Shared transition-event extraction for the FPMC family.

use rand::rngs::StdRng;
use rand::Rng;
use rrc_sequence::{classify, ConsumptionKind, Dataset, ItemId, UserId, WindowState};

/// One extracted transition event: `user` reconsumed `pos` out of basket
/// `basket`; `negs` are sampled non-chosen eligible candidates.
#[derive(Debug, Clone)]
pub struct Transition {
    pub user: UserId,
    pub pos: ItemId,
    pub negs: Vec<ItemId>,
    pub basket: Vec<ItemId>,
}

/// Walk the training split extracting eligible-repeat transitions with up
/// to `negatives_per_positive` sampled negatives each. The basket is the
/// distinct-item content of the window at the event.
pub fn collect_transitions(
    train: &Dataset,
    window: usize,
    omega: usize,
    negatives_per_positive: usize,
    rng: &mut StdRng,
) -> Vec<Transition> {
    let mut out = Vec::new();
    for (user, seq) in train.iter() {
        let mut win = WindowState::new(window);
        for &item in seq.events() {
            if classify(&win, item, omega) == ConsumptionKind::EligibleRepeat {
                let mut candidates = win.eligible_candidates(omega);
                candidates.retain(|&v| v != item);
                if !candidates.is_empty() {
                    let s = negatives_per_positive.min(candidates.len());
                    for k in 0..s {
                        let j = rng.gen_range(k..candidates.len());
                        candidates.swap(k, j);
                    }
                    out.push(Transition {
                        user,
                        pos: item,
                        negs: candidates[..s].to_vec(),
                        basket: basket(&win),
                    });
                }
            }
            win.push(item);
        }
    }
    out
}

/// The basket `B`: the distinct items of the window, sorted by id so a sum
/// over it is the same whatever order the window keeps them in.
pub(crate) fn basket(window: &WindowState) -> Vec<ItemId> {
    let mut basket: Vec<ItemId> = window.distinct_items().collect();
    basket.sort_unstable();
    basket
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rrc_sequence::Sequence;

    #[test]
    fn transitions_have_valid_structure() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![1, 2, 3, 4, 1, 2])], 5);
        let mut rng = StdRng::seed_from_u64(1);
        let ts = collect_transitions(&d, 10, 2, 3, &mut rng);
        assert!(!ts.is_empty());
        for t in &ts {
            assert!(!t.negs.contains(&t.pos));
            assert!(t.basket.contains(&t.pos));
            for pair in t.basket.windows(2) {
                assert!(pair[0] < pair[1], "basket must be sorted/deduped");
            }
            assert!(t.negs.len() <= 3);
        }
    }
}
