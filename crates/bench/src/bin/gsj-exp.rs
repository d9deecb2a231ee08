//! Section V of the paper, and the developer diagnostics, as sub-commands
//! over one in-process memo of offline preparation:
//!
//! ```text
//! gsj-exp all                    every experiment, in paper order
//! gsj-exp fig5a                  one of table2 fig5a…fig5h table3 offline e2e
//! gsj-exp probe                  recover quality per collection
//! gsj-exp diagnose <Collection>  discovered clusters and per-attribute F
//! gsj-exp incprobe [Collection] [fraction]
//!                                timing breakdown of one IncExt update
//!                                (default: Movie 0.05)
//! gsj-exp linkprobe [Collection] g_L build per source vs batched
//!                                (default: Celebrity; no model trained)
//! ```
//!
//! `GSJ_SCALE` scales every collection; `--trace` (or `GSJ_TRACE=1`)
//! dumps the span tree and a `gsj-trace-gsj-exp.json` snapshot at exit.

use gsj_bench::experiments::{all, EXPERIMENTS};
use gsj_bench::{diagnostics, scale_from_env, Memo};

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    eprintln!(
        "usage: gsj-exp <all|{}|probe|diagnose <Collection>|incprobe [Collection] [fraction]|linkprobe [Collection]>",
        names.join("|")
    );
    std::process::exit(2)
}

fn main() -> std::io::Result<()> {
    let _obs = gsj_bench::obs_scope("gsj-exp");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--trace")
        .collect();
    let mut memo = Memo::new(scale_from_env());
    let out = &mut std::io::stdout().lock();
    match args[..] {
        ["all"] => all(&mut memo, out)?,
        ["probe"] => diagnostics::probe(&mut memo, out)?,
        ["diagnose", collection] => diagnostics::diagnose(&mut memo, collection, out)?,
        ["incprobe", ref rest @ ..] if rest.len() <= 2 => {
            let collection = rest.first().copied().unwrap_or("Movie");
            let fraction = rest.get(1).map_or(Ok(0.05), |f| f.parse());
            let fraction = fraction.unwrap_or_else(|_| usage());
            diagnostics::incprobe(&mut memo, collection, fraction, out)?
        }
        ["linkprobe", ref rest @ ..] if rest.len() <= 1 => {
            let collection = rest.first().copied().unwrap_or("Celebrity");
            diagnostics::linkprobe(&mut memo, collection, out)?
        }
        [name] => match EXPERIMENTS.iter().find(|(n, ..)| *n == name) {
            Some((.., run)) => run(&mut memo, out)?,
            None => usage(),
        },
        _ => usage(),
    }
    eprintln!("{} language models trained", memo.models_trained());
    Ok(())
}
