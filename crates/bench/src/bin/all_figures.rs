//! Regenerates the paper's tables and figures. Scale via
//! POWADAPT_SCALE=quick|full|paper.
//!
//! `all_figures <name>` (`table1`, `fig2` … `fig10`) prints that one
//! table or figure; with no name, every one runs in sequence under a
//! banner. Each figure fans its grid across the workers set by
//! `--workers N` (or `POWADAPT_WORKERS`); stdout is byte-identical for
//! every worker count.

use powadapt_bench::{cli, figures};
use powadapt_io::{ParallelConfig, SweepScale};

/// A figure's banner title, CLI name, and regenerator (scale, seed, workers).
type Figure = (
    &'static str,
    &'static str,
    fn(SweepScale, u64, &ParallelConfig),
);

const FIGURES: [Figure; 10] = [
    ("Table 1", "table1", figures::table1::run),
    ("Figure 2", "fig2", figures::fig2::run),
    ("Figure 3", "fig3", figures::fig3::run),
    ("Figure 4", "fig4", figures::fig4::run),
    ("Figure 5", "fig5", figures::fig5::run),
    ("Figure 6", "fig6", figures::fig6::run),
    ("Figure 7", "fig7", |_, seed, _| figures::fig7::run(seed)),
    ("Figure 8", "fig8", figures::fig8::run),
    ("Figure 9", "fig9", figures::fig9::run),
    ("Figure 10", "fig10", figures::fig10::run),
];

fn main() {
    let cli = cli::parse("all_figures", &["FIGURE"]);
    let seed = 42;
    let name = cli.positionals.first();
    let selected: Vec<&Figure> = match name {
        None => FIGURES.iter().collect(),
        Some(n) => FIGURES.iter().filter(|(_, short, _)| short == n).collect(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(_, short, _)| *short).collect();
        let expected = format!("expected one of {}", names.join(", "));
        let name = name.cloned().unwrap_or_default();
        cli.fail(&format!("unknown figure {name:?}"), &expected);
    }
    let trace = cli.start_tracing();
    if name.is_some() {
        for (_, _, run) in selected {
            run(cli.scale, seed, &cli.parallel);
        }
    } else {
        let rule = "=".repeat(72);
        for (title, _, run) in selected {
            println!("{rule}\n{title}\n{rule}");
            run(cli.scale, seed, &cli.parallel);
            println!();
        }
    }
    cli::finish_tracing(trace);
}
