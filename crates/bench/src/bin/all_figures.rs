//! Regenerates the paper's tables and figures. Scale via
//! POWADAPT_SCALE=quick|paper.
//!
//! `all_figures <name>` (`table1`, `fig2` … `fig10`) prints that one
//! table or figure; with no name, every one prints in sequence under a
//! banner. Either way the fio cells the selected figures read are
//! measured once, in one sweep fanned across the workers set by
//! `--workers N` (or `POWADAPT_WORKERS`); stdout is byte-identical for
//! every worker count.

use powadapt_bench::cli;
use powadapt_bench::figures::{self, CellTable};
use powadapt_bench::golden::FIGURES;

fn main() {
    let cli = cli::parse("all_figures", &["FIGURE"]);
    let seed = 42;
    let name = cli.positionals.first();
    let selected: Vec<&str> = match name {
        None => FIGURES.to_vec(),
        Some(n) => FIGURES.into_iter().filter(|f| f == n).collect(),
    };
    if selected.is_empty() {
        let expected = format!("expected one of {}", FIGURES.join(", "));
        let name = name.cloned().unwrap_or_default();
        cli.fail(&format!("unknown figure {name:?}"), &expected);
    }
    let trace = cli.start_tracing();
    let keys = selected.iter().flat_map(|f| figures::keys(f));
    let table = CellTable::measure(keys, cli.scale, seed, &cli.parallel);
    if name.is_some() {
        for f in selected {
            figures::figure(f).1(&table);
        }
    } else {
        let rule = "=".repeat(72);
        for f in selected {
            let title = f.replace("fig", "Figure ").replace("table", "Table ");
            println!("{rule}\n{title}\n{rule}");
            figures::figure(f).1(&table);
            println!();
        }
    }
    cli::finish_tracing(trace);
}
