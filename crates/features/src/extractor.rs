//! The [`Feature`] trait and the feature pipeline of §4.4.
//!
//! A [`FeaturePipeline`] is a list of columns. The paper's four are columns
//! the pipeline computes itself, from the candidate's [`WindowRow`] and the
//! [`TrainStats`]: no lookup beyond the one that produced the row, and no
//! virtual call. Any other [`Feature`] is a column that calls
//! [`Feature::value`] with the item, and pays one virtual call (plus
//! whatever it looks up) per candidate. [`FeaturePipeline::extract_row`] is
//! the one routine that fills a feature vector; everything else reaches it.

use crate::train_stats::TrainStats;
use rrc_sequence::{ItemId, WindowRow, WindowState};
use std::sync::Arc;

/// Everything a feature may look at when valuing a `(u, v, t)` interaction:
/// the user's window state as of time `t` and the training-set statistics.
#[derive(Debug, Clone, Copy)]
pub struct FeatureContext<'a> {
    /// The user's window `W_{u,t-1}` (its `time()` is the current `t`).
    pub window: &'a WindowState,
    /// Static per-item statistics from the training split.
    pub stats: &'a TrainStats,
}

/// One time-sensitive behavioral feature — a component of the paper's
/// `f_{uvt}` vector. Implement this to append domain-specific features to
/// the pipeline; all features must return values in `[0, 1]` so the shared
/// regularisation scales sensibly.
///
/// The four standard structs below implement it too, with the formulas
/// the pipeline's own columns use, so one valued alone agrees with its
/// column to the bit. Pushed into a pipeline with
/// [`FeaturePipeline::push`] they are custom columns like any other:
/// correct, and one virtual call dearer than the
/// [`FeaturePipeline::standard`] columns.
pub trait Feature: Send + Sync {
    /// Short stable identifier ("IP", "IR", "RE", "DF" for the paper's
    /// four).
    fn name(&self) -> &'static str;
    /// Value of the feature for `item` in the given context.
    fn value(&self, ctx: &FeatureContext<'_>, item: ItemId) -> f64;
}

/// Item quality `q̄_v` (Eqs. 16–17) — "IP" (item popularity) in Fig. 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct ItemQuality;

impl Feature for ItemQuality {
    fn name(&self) -> &'static str {
        Column::Quality.name()
    }
    fn value(&self, ctx: &FeatureContext<'_>, item: ItemId) -> f64 {
        ctx.stats.quality(item)
    }
}

/// Item reconsumption ratio `r_v` (Eq. 18) — "IR" in Fig. 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReconsumptionRatio;

impl Feature for ReconsumptionRatio {
    fn name(&self) -> &'static str {
        Column::Recon.name()
    }
    fn value(&self, ctx: &FeatureContext<'_>, item: ItemId) -> f64 {
        ctx.stats.recon_ratio(item)
    }
}

/// Which decay shape the recency feature uses. The paper defaults to the
/// hyperbolic form (found superior in its ref. \[14\]) and offers the
/// exponential as the alternative of Eq. 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecencyKind {
    /// `c_vt = 1 / (t − l_ut(v))` (Eq. 19).
    #[default]
    Hyperbolic,
    /// `c_vt = e^{−(t − l_ut(v))}` (Eq. 20).
    Exponential,
}

/// Recency `c_vt` (Eqs. 19–20) — "RE" in Fig. 7. Items the window does not
/// hold get recency 0 (infinite gap).
#[derive(Debug, Clone, Copy, Default)]
pub struct Recency {
    /// Decay shape.
    pub kind: RecencyKind,
}

impl Recency {
    /// Hyperbolic recency (the paper's default).
    pub fn hyperbolic() -> Self {
        Recency {
            kind: RecencyKind::Hyperbolic,
        }
    }

    /// Exponential recency (Eq. 20).
    pub fn exponential() -> Self {
        Recency {
            kind: RecencyKind::Exponential,
        }
    }
}

impl Feature for Recency {
    fn name(&self) -> &'static str {
        Column::Recency(self.kind).name()
    }
    fn value(&self, ctx: &FeatureContext<'_>, item: ItemId) -> f64 {
        Column::Recency(self.kind).value(ctx, &ctx.window.row(item))
    }
}

/// Dynamic familiarity `m_vt` (Eq. 21) — "DF" in Fig. 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicFamiliarity;

impl Feature for DynamicFamiliarity {
    fn name(&self) -> &'static str {
        Column::Familiarity.name()
    }
    fn value(&self, ctx: &FeatureContext<'_>, item: ItemId) -> f64 {
        Column::Familiarity.value(ctx, &ctx.window.row(item))
    }
}

/// One component of the feature vector.
#[derive(Clone)]
enum Column {
    Quality,
    Recon,
    Recency(RecencyKind),
    Familiarity,
    Custom(Arc<dyn Feature>),
}

impl Column {
    fn name(&self) -> &'static str {
        match self {
            Column::Quality => "IP",
            Column::Recon => "IR",
            Column::Recency(_) => "RE",
            Column::Familiarity => "DF",
            Column::Custom(feature) => feature.name(),
        }
    }

    /// The value for `row.item`. A window feature of an item the window
    /// does not hold (`count == 0`) is 0: no recency, no familiarity.
    #[inline]
    fn value(&self, ctx: &FeatureContext<'_>, row: &WindowRow) -> f64 {
        match self {
            Column::Quality => ctx.stats.quality(row.item),
            Column::Recon => ctx.stats.recon_ratio(row.item),
            Column::Recency(_) | Column::Familiarity if row.count == 0 => 0.0,
            Column::Recency(kind) => {
                let gap = (ctx.window.time() - row.last) as f64; // >= 1
                match kind {
                    RecencyKind::Hyperbolic => 1.0 / gap,
                    RecencyKind::Exponential => (-gap).exp(),
                }
            }
            Column::Familiarity => f64::from(row.count) / ctx.window.len() as f64,
            Column::Custom(feature) => feature.value(ctx, row.item),
        }
    }
}

/// An ordered collection of features: the concrete realisation of the
/// paper's observable feature vector `f_{uvt}` (dimension `F = len()`).
/// Cloning is cheap: custom features are shared, not copied.
#[derive(Clone)]
pub struct FeaturePipeline {
    columns: Vec<Column>,
}

impl FeaturePipeline {
    /// An empty pipeline; push features with [`FeaturePipeline::push`].
    pub fn empty() -> Self {
        FeaturePipeline { columns: vec![] }
    }

    /// The paper's standard four-feature vector
    /// `f = {q̄_v, r_v, c_vt, m_vt}ᵀ` with hyperbolic recency.
    pub fn standard() -> Self {
        Self::standard_with_recency(RecencyKind::Hyperbolic)
    }

    /// The standard vector with a chosen recency shape.
    pub fn standard_with_recency(kind: RecencyKind) -> Self {
        FeaturePipeline {
            columns: vec![
                Column::Quality,
                Column::Recon,
                Column::Recency(kind),
                Column::Familiarity,
            ],
        }
    }

    /// Append a custom feature (builder style also available via
    /// [`Self::with`]).
    pub fn push<F: Feature + 'static>(&mut self, feature: F) {
        self.columns.push(Column::Custom(Arc::new(feature)));
    }

    /// Builder-style [`Self::push`].
    pub fn with<F: Feature + 'static>(mut self, feature: F) -> Self {
        self.push(feature);
        self
    }

    /// A copy of this pipeline with the named feature removed — the Fig. 7
    /// ablation ("-IP", "-IR", "-RE", "-DF"). Unknown names are a no-op;
    /// every other column is kept as it is.
    pub fn without(&self, name: &str) -> Self {
        FeaturePipeline {
            columns: self
                .columns
                .iter()
                .filter(|column| column.name() != name)
                .cloned()
                .collect(),
        }
    }

    /// Feature dimension `F`.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True iff no features are registered.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The feature names, in vector order.
    pub fn names(&self) -> Vec<&'static str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// The full vector for `row.item` into `out`, which must hold `F`
    /// values. `row` must be the context window's row for its item (as
    /// [`WindowState::row`] or [`WindowState::eligible_rows`] give it).
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    #[inline]
    pub fn extract_row(&self, ctx: &FeatureContext<'_>, row: &WindowRow, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.columns.len(),
            "feature row length must be F"
        );
        for (slot, column) in out.iter_mut().zip(&self.columns) {
            *slot = column.value(ctx, row);
        }
    }

    /// Extract the full vector for `item` into `out` (resized to `F`, every
    /// value overwritten): one window lookup, then [`Self::extract_row`].
    pub fn extract_into(&self, ctx: &FeatureContext<'_>, item: ItemId, out: &mut Vec<f64>) {
        out.resize(self.columns.len(), 0.0);
        self.extract_row(ctx, &ctx.window.row(item), out);
    }

    /// Extract the full vector for `item` as a fresh allocation.
    pub fn extract(&self, ctx: &FeatureContext<'_>, item: ItemId) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.columns.len());
        self.extract_into(ctx, item, &mut out);
        out
    }
}

impl std::fmt::Debug for FeaturePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeaturePipeline")
            .field("features", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_sequence::{Dataset, Sequence};

    fn fixture() -> (TrainStats, WindowState) {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 0, 2, 0, 1])], 4);
        let stats = TrainStats::compute(&d, 10);
        let window = WindowState::warmed(10, d.sequence(rrc_sequence::UserId(0)).events());
        (stats, window)
    }

    struct Constant;
    impl Feature for Constant {
        fn name(&self) -> &'static str {
            "CONST"
        }
        fn value(&self, _: &FeatureContext<'_>, _: ItemId) -> f64 {
            0.25
        }
    }

    #[test]
    fn standard_pipeline_shape() {
        let p = FeaturePipeline::standard();
        assert_eq!(p.len(), 4);
        assert_eq!(p.names(), vec!["IP", "IR", "RE", "DF"]);
        assert!(!p.is_empty());
    }

    #[test]
    fn standard_values_in_unit_interval() {
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        let p = FeaturePipeline::standard();
        for raw in 0..4u32 {
            let v = p.extract(&ctx, ItemId(raw));
            assert_eq!(v.len(), 4);
            for (f, name) in v.iter().zip(p.names()) {
                assert!((0.0..=1.0).contains(f), "{name}={f} for item {raw}");
            }
        }
    }

    #[test]
    fn recency_values_match_definitions() {
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        // History: 0 1 0 2 0 1 (t = 6). Item 1 last seen at step 5 → gap 1.
        assert_eq!(Recency::hyperbolic().value(&ctx, ItemId(1)), 1.0);
        // Item 0 last seen at step 4 → gap 2.
        assert_eq!(Recency::hyperbolic().value(&ctx, ItemId(0)), 0.5);
        assert!((Recency::exponential().value(&ctx, ItemId(0)) - (-2.0f64).exp()).abs() < 1e-12);
        // Never consumed → 0 under both shapes.
        assert_eq!(Recency::hyperbolic().value(&ctx, ItemId(3)), 0.0);
        assert_eq!(Recency::exponential().value(&ctx, ItemId(3)), 0.0);
    }

    #[test]
    fn familiarity_matches_window() {
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        // 0 appears 3 times in 6 events.
        assert_eq!(DynamicFamiliarity.value(&ctx, ItemId(0)), 0.5);
        assert_eq!(DynamicFamiliarity.value(&ctx, ItemId(3)), 0.0);
    }

    /// The columns give the bits the four `Feature::value` calls give, and
    /// the bits of the window's own queries (`last_seen`, `familiarity`),
    /// for window items, an absent item, and an empty window.
    #[test]
    fn extract_row_equals_the_four_feature_values() {
        let (stats, window) = fixture();
        let empty = WindowState::new(10);
        for window in [&window, &empty] {
            let ctx = FeatureContext {
                window,
                stats: &stats,
            };
            for kind in [RecencyKind::Hyperbolic, RecencyKind::Exponential] {
                let p = FeaturePipeline::standard_with_recency(kind);
                for item in (0..4).map(ItemId) {
                    let mut row = [f64::NAN; 4];
                    p.extract_row(&ctx, &window.row(item), &mut row);
                    let features: [&dyn Feature; 4] = [
                        &ItemQuality,
                        &ReconsumptionRatio,
                        &Recency { kind },
                        &DynamicFamiliarity,
                    ];
                    let alone = features.map(|f| f.value(&ctx, item).to_bits());
                    assert_eq!(row.map(f64::to_bits), alone, "{kind:?} item {item:?}");
                    let gap = window.last_seen(item).map(|l| (window.time() - l) as f64);
                    let recency = gap.map_or(0.0, |g| match kind {
                        RecencyKind::Hyperbolic => 1.0 / g,
                        RecencyKind::Exponential => (-g).exp(),
                    });
                    assert_eq!(row[2].to_bits(), recency.to_bits());
                    assert_eq!(row[3].to_bits(), window.familiarity(item).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature row length must be F")]
    fn extract_row_refuses_a_short_row() {
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        FeaturePipeline::standard().extract_row(&ctx, &window.row(ItemId(0)), &mut [0.0; 3]);
    }

    #[test]
    fn without_removes_exactly_one() {
        let p = FeaturePipeline::standard();
        for name in ["IP", "IR", "RE", "DF"] {
            let q = p.without(name);
            assert_eq!(q.len(), 3);
            assert!(!q.names().contains(&name));
        }
        // Unknown name: no-op.
        assert_eq!(p.without("XX").len(), 4);
    }

    /// Regression: `without` used to rebuild every "RE" column as
    /// hyperbolic, so an exponential pipeline's ablation silently changed
    /// its recency (item 0: e⁻² = 0.1353 became 0.5).
    #[test]
    fn without_keeps_the_recency_shape() {
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        let p = FeaturePipeline::standard_with_recency(RecencyKind::Exponential);
        let full = p.extract(&ctx, ItemId(0));
        assert_eq!(full[2], (-2.0f64).exp());
        assert_eq!(p.without("IP").extract(&ctx, ItemId(0)), full[1..]);
    }

    /// Regression: `without` used to panic on any custom column ("cannot
    /// rebuild custom feature").
    #[test]
    fn without_keeps_custom_columns() {
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        let p = FeaturePipeline::standard().with(Constant);
        let q = p.without("IP");
        assert_eq!(q.names(), vec!["IR", "RE", "DF", "CONST"]);
        assert_eq!(q.extract(&ctx, ItemId(0)), p.extract(&ctx, ItemId(0))[1..]);
        assert_eq!(
            p.without("CONST").names(),
            FeaturePipeline::standard().names()
        );
    }

    #[test]
    fn a_clone_extracts_what_its_original_does() {
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        let p = FeaturePipeline::standard_with_recency(RecencyKind::Exponential).with(Constant);
        let q = p.clone();
        assert_eq!(q.names(), p.names());
        for item in (0..4).map(ItemId) {
            assert_eq!(q.extract(&ctx, item), p.extract(&ctx, item));
        }
    }

    #[test]
    fn custom_feature_appends() {
        let p = FeaturePipeline::standard().with(Constant);
        assert_eq!(p.len(), 5);
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        assert_eq!(p.extract(&ctx, ItemId(0))[4], 0.25);
    }

    #[test]
    fn extract_into_reuses_buffer() {
        let (stats, window) = fixture();
        let ctx = FeatureContext {
            window: &window,
            stats: &stats,
        };
        let p = FeaturePipeline::standard();
        let mut buf = vec![99.0; 10];
        p.extract_into(&ctx, ItemId(0), &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf, p.extract(&ctx, ItemId(0)));
    }
}
