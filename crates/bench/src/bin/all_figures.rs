//! Regenerates the paper's tables and figures. Scale via
//! POWADAPT_SCALE=quick|full|paper.
//!
//! `all_figures <name>` (`table1`, `fig2` … `fig10`) prints that one
//! table or figure; with no name, every one runs in sequence under a
//! banner. Each figure fans its grid across the workers configured by
//! `POWADAPT_WORKERS` (or the `--workers N` flag); stdout is
//! byte-identical for every worker count.

use powadapt_bench::{apply_cli_workers, bench_scale, figures};
use powadapt_io::SweepScale;

/// A figure's banner title, CLI name, and regenerator (scale, seed).
type Figure = (&'static str, &'static str, fn(SweepScale, u64));

const FIGURES: [Figure; 10] = [
    ("Table 1", "table1", figures::table1::run),
    ("Figure 2", "fig2", figures::fig2::run),
    ("Figure 3", "fig3", figures::fig3::run),
    ("Figure 4", "fig4", figures::fig4::run),
    ("Figure 5", "fig5", figures::fig5::run),
    ("Figure 6", "fig6", figures::fig6::run),
    ("Figure 7", "fig7", |_, seed| figures::fig7::run(seed)),
    ("Figure 8", "fig8", figures::fig8::run),
    ("Figure 9", "fig9", figures::fig9::run),
    ("Figure 10", "fig10", figures::fig10::run),
];

/// The first positional argument, skipping the `--workers` flag forms.
fn figure_name() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workers" | "-j" => {
                args.next();
            }
            _ if a.starts_with("--workers=") => {}
            _ => return Some(a),
        }
    }
    None
}

fn main() {
    apply_cli_workers();
    let scale = bench_scale();
    let seed = 42;
    let name = figure_name();
    let selected: Vec<&Figure> = match &name {
        None => FIGURES.iter().collect(),
        Some(n) => FIGURES.iter().filter(|(_, cli, _)| cli == n).collect(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(_, cli, _)| *cli).collect();
        eprintln!(
            "all_figures: unknown figure {:?}; expected one of {}",
            name.unwrap_or_default(),
            names.join(", ")
        );
        std::process::exit(2);
    }
    let trace = powadapt_bench::start_tracing();
    if name.is_some() {
        for (_, _, run) in selected {
            run(scale, seed);
        }
    } else {
        let rule = "=".repeat(72);
        for (title, _, run) in selected {
            println!("{rule}\n{title}\n{rule}");
            run(scale, seed);
            println!();
        }
    }
    powadapt_bench::finish_tracing(trace);
}
