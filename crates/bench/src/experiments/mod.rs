//! One module per reproduced table/figure. Every experiment returns its
//! rendered report as a `String` (the `reproduce` binary prints it).

pub mod ablation;
pub mod accuracy;
pub mod ci;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod mixture;
pub mod table2;
pub mod table5;

use crate::setup::RunOptions;

/// The canonical Top-N values of the paper.
pub const TOP_NS: [usize; 3] = [1, 5, 10];

type Driver = fn(&RunOptions) -> String;

/// Every experiment [`run`] accepts, with its driver: the paper's tables and
/// figures in paper order (the first [`PAPER_EXPERIMENTS`] entries), then
/// the extensions. `reproduce`'s usage text prints [`names`], so a name is
/// accepted exactly when it is listed.
const DRIVERS: [(&str, Driver); 16] = [
    ("table2", table2::run),
    ("fig4", fig4::run),
    ("fig5", accuracy::run_fig5),
    ("fig6", accuracy::run_fig6),
    ("table3", accuracy::run_table3),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("table5", table5::run),
    ("ablation", ablation::run),
    ("mixture", mixture::run),
    ("ci", ci::run),
];

/// How many of the [`names`] are the paper's own: what `reproduce all` runs.
pub const PAPER_EXPERIMENTS: usize = 13;

/// The names [`run`] accepts, in listing order.
pub fn names() -> impl Iterator<Item = &'static str> {
    DRIVERS.iter().map(|(name, _)| *name)
}

/// Run one experiment by name (`fig5`, `table3`, ...), returning the
/// rendered report, or `None` for a name not among [`names`].
pub fn run(name: &str, opts: &RunOptions) -> Option<String> {
    let (_, driver) = DRIVERS.iter().find(|(n, _)| *n == name)?;
    Some(driver(opts))
}
