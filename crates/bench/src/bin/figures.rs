//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--scale F] [--out DIR] [all|graph1|graph2|storage|table1|graph3|
//!          graph4|graph5|graph6|graph7|graph8|graph9|graph10|graph11|
//!          graph12|precomputed|aspects|locking]
//! ```
//!
//! Prints each figure as an aligned table and writes `DIR/<id>.csv`
//! (default `results/`). `--scale 1.0` (default) runs the paper's
//! cardinalities; use e.g. `--scale 0.1` for a quick pass.

// The tables themselves go to stdout.
#![allow(clippy::print_stdout)]

use mmdb_bench::{
    aspects, figure::Scale, graph1, graph10, graph2, graph3, joins, locking, precomputed,
    projection, storage_costs, Figure,
};

fn usage() -> ! {
    eprintln!(
        "usage: figures [--scale F] [--out DIR] [all|graph1|graph2|storage|table1|graph3|graph4|graph5|graph6|graph7|graph8|graph9|graph10|graph11|graph12|precomputed|aspects|locking]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::full();
    let mut out_dir = std::path::PathBuf::from("results");
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale = Scale(v.parse().unwrap_or_else(|_| usage()));
            }
            "--out" => {
                out_dir = std::path::PathBuf::from(args.next().unwrap_or_else(|| usage()));
            }
            "-h" | "--help" => usage(),
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    let all = targets.iter().any(|t| t == "all");
    let want = |name: &str| all || targets.iter().any(|t| t == name);

    let mut figures: Vec<Figure> = Vec::new();
    let mut run = |name: &str, f: &mut dyn FnMut() -> Vec<Figure>| {
        if want(name) {
            eprintln!("running {name} (scale {})...", scale.0);
            figures.extend(f());
        }
    };

    run("graph1", &mut || vec![graph1::run(scale)]);
    run("graph2", &mut || {
        graph2::mixes()
            .into_iter()
            .map(|m| graph2::run(scale, m))
            .collect()
    });
    run("storage", &mut || vec![storage_costs::run(scale)]);
    run("table1", &mut || vec![storage_costs::table1(scale)]);
    run("graph3", &mut || vec![graph3::run(scale)]);
    run("graph4", &mut || vec![joins::graph4(scale)]);
    run("graph5", &mut || vec![joins::graph5(scale)]);
    run("graph6", &mut || vec![joins::graph6(scale)]);
    run("graph7", &mut || vec![joins::graph7(scale)]);
    run("graph8", &mut || vec![joins::graph8(scale)]);
    run("graph9", &mut || vec![joins::graph9(scale)]);
    run("graph10", &mut || vec![graph10::run(scale)]);
    run("graph11", &mut || vec![projection::graph11(scale)]);
    run("graph12", &mut || vec![projection::graph12(scale)]);
    run("precomputed", &mut || vec![precomputed::run(scale)]);
    run("aspects", &mut || vec![aspects::run(scale)]);
    run("locking", &mut || vec![locking::run(scale)]);

    if figures.is_empty() {
        usage();
    }
    for fig in &figures {
        println!("{}", fig.render());
        match fig.write_csv(&out_dir) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("csv write failed for {}: {e}", fig.id),
        }
    }
}
