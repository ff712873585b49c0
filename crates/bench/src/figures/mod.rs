//! One module per table/figure of the paper's evaluation. Every figure but
//! Figure 7 reads the fio grid: its module lists the [`Key`]s it needs and
//! prints from a [`CellTable`] through pure functions of the table, so one
//! table measured over the union of the keys serves every figure.

pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table;
pub mod table1;
#[cfg(test)]
mod tests;

pub use table::{Cell, CellTable, Key};

/// A figure's keys and its printer.
pub type Figure = (fn() -> Vec<Key>, fn(&CellTable));

/// Figure `name`'s keys (none for Figure 7's transition traces) and its
/// printer, which reads a table holding at least those keys.
///
/// # Panics
///
/// Panics on an unknown figure name.
pub fn figure(name: &str) -> Figure {
    match name {
        "table1" => (table1::keys, table1::run),
        "fig2" => (fig2::keys, fig2::run),
        "fig3" => (fig3::keys, fig3::run),
        "fig4" => (fig4::keys, fig4::run),
        "fig5" => (fig5::keys, fig5::run),
        "fig6" => (fig6::keys, fig6::run),
        "fig7" => (Vec::new, |table| fig7::run(table.seed())),
        "fig8" => (fig8::keys, fig8::run),
        "fig9" => (fig9::keys, fig9::run),
        "fig10" => (fig10::keys, fig10::run),
        other => panic!("unknown figure {other}"),
    }
}

/// The cells figure `name` reads.
pub fn keys(name: &str) -> Vec<Key> {
    figure(name).0()
}
