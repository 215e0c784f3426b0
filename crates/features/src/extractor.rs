//! The [`Feature`] trait and the standard four-feature pipeline of §4.4.

use crate::train_stats::TrainStats;
use rrc_sequence::{ItemId, WindowState};

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
        "IP"
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
        "IR"
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

/// Recency `c_vt` (Eqs. 19–20) — "RE" in Fig. 7. Items never consumed get
/// recency 0 (infinite gap).
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
        "RE"
    }
    fn value(&self, ctx: &FeatureContext<'_>, item: ItemId) -> f64 {
        match ctx.window.last_seen(item) {
            None => 0.0,
            Some(last) => {
                let gap = (ctx.window.time() - last) as f64; // >= 1
                match self.kind {
                    RecencyKind::Hyperbolic => 1.0 / gap,
                    RecencyKind::Exponential => (-gap).exp(),
                }
            }
        }
    }
}

/// Dynamic familiarity `m_vt` (Eq. 21) — "DF" in Fig. 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicFamiliarity;

impl Feature for DynamicFamiliarity {
    fn name(&self) -> &'static str {
        "DF"
    }
    fn value(&self, ctx: &FeatureContext<'_>, item: ItemId) -> f64 {
        ctx.window.familiarity(item)
    }
}

/// An ordered collection of features: the concrete realisation of the
/// paper's observable feature vector `f_{uvt}` (dimension `F = len()`).
pub struct FeaturePipeline {
    features: Vec<Box<dyn Feature>>,
}

impl FeaturePipeline {
    /// An empty pipeline; push features with [`FeaturePipeline::push`].
    pub fn empty() -> Self {
        FeaturePipeline { features: vec![] }
    }

    /// The paper's standard four-feature vector
    /// `f = {q̄_v, r_v, c_vt, m_vt}ᵀ` with hyperbolic recency.
    pub fn standard() -> Self {
        Self::standard_with_recency(RecencyKind::Hyperbolic)
    }

    /// The standard vector with a chosen recency shape.
    pub fn standard_with_recency(kind: RecencyKind) -> Self {
        let mut p = Self::empty();
        p.push(ItemQuality);
        p.push(ReconsumptionRatio);
        p.push(Recency { kind });
        p.push(DynamicFamiliarity);
        p
    }

    /// Append a feature (builder style also available via [`Self::with`]).
    pub fn push<F: Feature + 'static>(&mut self, feature: F) {
        self.features.push(Box::new(feature));
    }

    /// Builder-style [`Self::push`].
    pub fn with<F: Feature + 'static>(mut self, feature: F) -> Self {
        self.push(feature);
        self
    }

    /// A copy of this pipeline with the named feature removed — the Fig. 7
    /// ablation ("-IP", "-IR", "-RE", "-DF"). Unknown names are a no-op.
    pub fn without(&self, name: &str) -> Self
    where
        Self: Sized,
    {
        // Features are stateless markers, so rebuilding by name is enough.
        let mut p = Self::empty();
        for f in &self.features {
            if f.name() != name {
                p.features.push(rebuild(f.as_ref()));
            }
        }
        p
    }

    /// Feature dimension `F`.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True iff no features are registered.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The feature names, in vector order.
    pub fn names(&self) -> Vec<&'static str> {
        self.features.iter().map(|f| f.name()).collect()
    }

    /// Extract the full vector for `item` into `out` (cleared first).
    pub fn extract_into(&self, ctx: &FeatureContext<'_>, item: ItemId, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.features.iter().map(|f| f.value(ctx, item)));
    }

    /// Extract the full vector for `item` as a fresh allocation.
    pub fn extract(&self, ctx: &FeatureContext<'_>, item: ItemId) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.features.len());
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

/// Recreate a known feature by name. The standard features carry no state,
/// so this lossless rebuild keeps `without` simple; custom features fall
/// back to a panic with a clear message (ablation of custom features should
/// construct the pipeline explicitly instead).
fn rebuild(f: &dyn Feature) -> Box<dyn Feature> {
    match f.name() {
        "IP" => Box::new(ItemQuality),
        "IR" => Box::new(ReconsumptionRatio),
        "RE" => Box::new(Recency::hyperbolic()),
        "DF" => Box::new(DynamicFamiliarity),
        other => panic!(
            "FeaturePipeline::without cannot rebuild custom feature {other:?}; \
             construct the ablated pipeline explicitly"
        ),
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

    #[test]
    fn custom_feature_appends() {
        struct Constant;
        impl Feature for Constant {
            fn name(&self) -> &'static str {
                "CONST"
            }
            fn value(&self, _: &FeatureContext<'_>, _: ItemId) -> f64 {
                0.25
            }
        }
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
    }
}
