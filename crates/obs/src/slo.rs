//! Declarative service-level objectives with multi-window burn-rate
//! alerting.
//!
//! An [`Objective`] is a named bound on a measured value
//! (`observe_p99_ns ≤ 250_000`, `quality_ratio ≥ 0.95`, ...). The
//! [`SloEngine`] is fed one measurement per objective per *tick* — the
//! caller's evaluation cadence; a measurement of "lately" is the caller's
//! difference of two cumulative captures — and keeps a ring of recent
//! breach outcomes per objective. Two burn rates are derived with
//! **fixed denominators** (so a half-filled window cannot page):
//!
//! * short burn = breaches in the last `short_ticks` / `short_ticks`
//! * long burn  = breaches in the last `long_ticks` / `long_ticks`
//!
//! The state machine is the classic multi-window rule:
//!
//! * **Page** — both burns ≥ `page_burn`: the breach is sustained, not
//!   a blip (the long window vouches) and still happening (the short
//!   window vouches).
//! * **Warn** — short burn ≥ `warn_burn`: something just started.
//! * **Ok** — otherwise. Recovery is fast because the short window
//!   drains first.
//!
//! Because the long window fills `long_ticks / short_ticks`× slower, a
//! sustained breach always walks ok → warn → page in order.

use crate::json::Json;
use std::collections::VecDeque;

/// Direction of an objective's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Healthy while `value <= bound` (latency, shed ratio).
    Le,
    /// Healthy while `value >= bound` (quality, availability).
    Ge,
}

impl Cmp {
    pub fn as_str(self) -> &'static str {
        match self {
            Cmp::Le => "le",
            Cmp::Ge => "ge",
        }
    }

    fn breached(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Le => value > bound,
            Cmp::Ge => value < bound,
        }
    }
}

/// One declarative objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Metric-style name, e.g. `observe_p99_ns`.
    pub name: String,
    pub cmp: Cmp,
    pub bound: f64,
}

impl Objective {
    pub fn le(name: &str, bound: f64) -> Objective {
        Objective {
            name: name.to_string(),
            cmp: Cmp::Le,
            bound,
        }
    }

    pub fn ge(name: &str, bound: f64) -> Objective {
        Objective {
            name: name.to_string(),
            cmp: Cmp::Ge,
            bound,
        }
    }
}

/// Burn-rate window configuration, in ticks of the evaluation cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnConfig {
    pub short_ticks: usize,
    pub long_ticks: usize,
    /// Short burn at or above this warns.
    pub warn_burn: f64,
    /// Both burns at or above this page.
    pub page_burn: f64,
}

impl Default for BurnConfig {
    fn default() -> Self {
        BurnConfig {
            short_ticks: 3,
            long_ticks: 12,
            warn_burn: 0.5,
            page_burn: 0.75,
        }
    }
}

/// Alert state, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    Ok,
    Warn,
    Page,
}

impl SloState {
    pub fn as_str(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Page => "page",
        }
    }

    /// Gauge encoding: 0 ok, 1 warn, 2 page.
    pub fn as_gauge(self) -> u64 {
        self as u64
    }
}

/// The engine's current judgment of one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    pub name: String,
    pub cmp: Cmp,
    pub bound: f64,
    pub state: SloState,
    /// Latest measured value (`None` until first data arrives).
    pub value: Option<f64>,
    pub breached_now: bool,
    pub short_burn: f64,
    pub long_burn: f64,
    /// Ticks with data seen so far.
    pub ticks: u64,
}

impl SloVerdict {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("cmp", Json::Str(self.cmp.as_str().to_string())),
            ("bound", Json::F64(self.bound)),
            ("state", Json::Str(self.state.as_str().to_string())),
            ("value", self.value.map(Json::F64).unwrap_or(Json::Null)),
            ("breached_now", Json::Bool(self.breached_now)),
            ("short_burn", Json::F64(self.short_burn)),
            ("long_burn", Json::F64(self.long_burn)),
            ("ticks", Json::U64(self.ticks)),
        ])
    }
}

struct Tracked {
    objective: Objective,
    /// Breach outcomes, newest at the back; capped at `long_ticks`.
    history: VecDeque<bool>,
    verdict: SloVerdict,
}

/// Evaluates a set of objectives tick by tick; see the [module docs](self).
pub struct SloEngine {
    config: BurnConfig,
    tracked: Vec<Tracked>,
}

impl SloEngine {
    pub fn new(objectives: Vec<Objective>, config: BurnConfig) -> SloEngine {
        let config = BurnConfig {
            short_ticks: config.short_ticks.max(1),
            long_ticks: config.long_ticks.max(config.short_ticks.max(1)),
            ..config
        };
        let tracked = objectives
            .into_iter()
            .map(|objective| Tracked {
                verdict: SloVerdict {
                    name: objective.name.clone(),
                    cmp: objective.cmp,
                    bound: objective.bound,
                    state: SloState::Ok,
                    value: None,
                    breached_now: false,
                    short_burn: 0.0,
                    long_burn: 0.0,
                    ticks: 0,
                },
                objective,
                history: VecDeque::new(),
            })
            .collect();
        SloEngine { config, tracked }
    }

    pub fn objectives(&self) -> impl Iterator<Item = &Objective> {
        self.tracked.iter().map(|t| &t.objective)
    }

    /// Feed one tick. `values[i]` is the current measurement for
    /// objective `i` (order of construction); `None` means no data this
    /// tick — the objective's history and state are left untouched
    /// (absence of evidence is not a breach). Extra values are ignored,
    /// missing trailing values are treated as `None`.
    pub fn tick(&mut self, values: &[Option<f64>]) {
        let config = self.config;
        for (i, tracked) in self.tracked.iter_mut().enumerate() {
            let value = match values.get(i).copied().flatten() {
                Some(v) if v.is_finite() => v,
                _ => continue,
            };
            let breached = tracked
                .objective
                .cmp
                .breached(value, tracked.objective.bound);
            tracked.history.push_back(breached);
            while tracked.history.len() > config.long_ticks {
                tracked.history.pop_front();
            }
            let long_breaches = tracked.history.iter().filter(|&&b| b).count();
            let short_breaches = tracked
                .history
                .iter()
                .rev()
                .take(config.short_ticks)
                .filter(|&&b| b)
                .count();
            let short_burn = short_breaches as f64 / config.short_ticks as f64;
            let long_burn = long_breaches as f64 / config.long_ticks as f64;
            let state = if short_burn >= config.page_burn && long_burn >= config.page_burn {
                SloState::Page
            } else if short_burn >= config.warn_burn {
                SloState::Warn
            } else {
                SloState::Ok
            };
            let v = &mut tracked.verdict;
            v.state = state;
            v.value = Some(value);
            v.breached_now = breached;
            v.short_burn = short_burn;
            v.long_burn = long_burn;
            v.ticks += 1;
        }
    }

    /// Current verdicts, in objective order.
    pub fn verdicts(&self) -> Vec<SloVerdict> {
        self.tracked.iter().map(|t| t.verdict.clone()).collect()
    }

    /// The most severe state across all objectives.
    pub fn worst(&self) -> SloState {
        self.tracked
            .iter()
            .map(|t| t.verdict.state)
            .max()
            .unwrap_or(SloState::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(cmp: Cmp) -> SloEngine {
        let objective = Objective {
            name: "o".to_string(),
            cmp,
            bound: 100.0,
        };
        SloEngine::new(vec![objective], BurnConfig::default())
    }

    fn state(e: &SloEngine) -> SloState {
        e.verdicts()[0].state
    }

    #[test]
    fn sustained_breach_walks_ok_warn_page_in_order() {
        let mut e = engine(Cmp::Le);
        let mut seen = vec![state(&e)];
        for _ in 0..12 {
            e.tick(&[Some(500.0)]);
            seen.push(state(&e));
        }
        // Strictly monotone escalation, visiting every state.
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
        assert!(seen.contains(&SloState::Ok));
        assert!(seen.contains(&SloState::Warn));
        assert_eq!(*seen.last().unwrap(), SloState::Page);
        // Warn strictly precedes Page.
        let first_warn = seen.iter().position(|s| *s == SloState::Warn).unwrap();
        let first_page = seen.iter().position(|s| *s == SloState::Page).unwrap();
        assert!(first_warn < first_page);
    }

    #[test]
    fn blip_warns_then_recovers_without_paging() {
        let mut e = engine(Cmp::Le);
        e.tick(&[Some(500.0)]);
        e.tick(&[Some(500.0)]);
        assert_eq!(state(&e), SloState::Warn); // short burn 2/3
        for _ in 0..3 {
            e.tick(&[Some(50.0)]);
        }
        assert_eq!(state(&e), SloState::Ok);
        // The long window still remembers, but cannot page alone.
        assert!(e.verdicts()[0].long_burn > 0.0);
    }

    #[test]
    fn recovery_from_page_is_fast() {
        let mut e = engine(Cmp::Le);
        for _ in 0..12 {
            e.tick(&[Some(500.0)]);
        }
        assert_eq!(state(&e), SloState::Page);
        // One healthy tick drops short burn to 2/3 < page_burn.
        e.tick(&[Some(50.0)]);
        assert_ne!(state(&e), SloState::Page);
        for _ in 0..2 {
            e.tick(&[Some(50.0)]);
        }
        assert_eq!(state(&e), SloState::Ok);
    }

    #[test]
    fn ge_objectives_breach_below_bound() {
        let mut e = engine(Cmp::Ge);
        e.tick(&[Some(150.0)]);
        assert!(!e.verdicts()[0].breached_now);
        e.tick(&[Some(50.0)]);
        assert!(e.verdicts()[0].breached_now);
    }

    #[test]
    fn missing_values_freeze_state() {
        let mut e = engine(Cmp::Le);
        for _ in 0..12 {
            e.tick(&[Some(500.0)]);
        }
        assert_eq!(state(&e), SloState::Page);
        for _ in 0..20 {
            e.tick(&[None]);
        }
        assert_eq!(state(&e), SloState::Page);
        assert_eq!(e.verdicts()[0].ticks, 12);
    }

    #[test]
    fn worst_takes_the_most_severe_objective() {
        let mut e = SloEngine::new(
            vec![Objective::le("a", 100.0), Objective::le("b", 100.0)],
            BurnConfig::default(),
        );
        for _ in 0..12 {
            e.tick(&[Some(50.0), Some(500.0)]);
        }
        assert_eq!(e.verdicts()[0].state, SloState::Ok);
        assert_eq!(e.verdicts()[1].state, SloState::Page);
        assert_eq!(e.worst(), SloState::Page);
        let json = e.verdicts()[1].to_json();
        assert_eq!(json.get("name").and_then(Json::as_str), Some("b"));
        assert_eq!(json.get("state").and_then(Json::as_str), Some("page"));
        assert_eq!(json.get("short_burn").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn half_filled_long_window_cannot_page() {
        // Fixed denominators: 3 breaches = short 3/3 but long 3/12.
        let mut e = engine(Cmp::Le);
        for _ in 0..3 {
            e.tick(&[Some(500.0)]);
        }
        assert_eq!(state(&e), SloState::Warn);
        assert!(e.verdicts()[0].long_burn < 0.75);
    }
}
