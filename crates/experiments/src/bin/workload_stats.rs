//! Prints descriptive statistics of a generated workload — a quick sanity
//! check of the trace against the paper's §4 parameters.
//!
//! ```text
//! cargo run --release -p pscd-experiments --bin workload-stats -- \
//!     [news|alternative] [--scale F] [--seed N] [--export DIR]
//! ```
//!
//! `--export DIR` writes the trace in the TSV format of
//! [`pscd_workload::io`] (pages.tsv, requests.tsv, subscriptions.tsv).

use std::collections::{HashMap, HashSet};
use std::process::ExitCode;

use pscd_obs::{Registry, TraceSink};
use pscd_workload::{popularity_class_shifted, Workload, WorkloadConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace = "news".to_owned();
    let mut scale = 1.0f64;
    let mut seed = 0u64;
    let mut export: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if (0.0..=1.0).contains(&v) && v > 0.0 => scale = v,
                _ => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--export" => match it.next() {
                Some(dir) => export = Some(dir.into()),
                None => return usage(),
            },
            "news" | "alternative" => trace = arg.clone(),
            _ => return usage(),
        }
    }
    let config = match trace.as_str() {
        "news" => WorkloadConfig::news_scaled(scale),
        _ => WorkloadConfig::alternative_scaled(scale),
    }
    .with_seed(seed);
    let workload = match Workload::generate(&config) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_stats(&workload, &trace);
    if let Some(dir) = export {
        if let Err(e) = export_tsv(&workload, &dir) {
            eprintln!("export failed: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "
exported TSV traces to {}",
            dir.display()
        );
    }
    ExitCode::SUCCESS
}

fn export_tsv(w: &Workload, dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    use pscd_workload::io as trace_io;
    use std::io::BufWriter;
    std::fs::create_dir_all(dir)?;
    let file = |name: &str| -> Result<BufWriter<std::fs::File>, std::io::Error> {
        Ok(BufWriter::new(std::fs::File::create(dir.join(name))?))
    };
    trace_io::write_pages(file("pages.tsv")?, w.pages())?;
    trace_io::write_requests(file("requests.tsv")?, w.requests())?;
    trace_io::write_subscriptions(file("subscriptions.tsv")?, &w.subscriptions(1.0)?)?;
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!("usage: workload-stats [news|alternative] [--scale F] [--seed N] [--export DIR]");
    ExitCode::FAILURE
}

fn print_stats(w: &Workload, trace: &str) {
    let mut reg = Registry::new();
    let phases = TraceSink::enabled();
    let mut rec = phases.recorder("phases");
    let pages = w.pages();
    let alpha = w.config().requests.zipf_alpha;
    let shift = w.config().requests.zipf_shift;
    println!(
        "trace: {trace} (alpha = {alpha}, shift = {shift}, seed = {})",
        w.config().seed
    );

    // Publishing stream.
    let originals = pages.iter().filter(|p| p.kind().is_original()).count();
    let origins: HashSet<_> = pages.iter().filter_map(|p| p.kind().origin()).collect();
    println!("\n# publishing stream");
    println!("pages:            {}", pages.len());
    println!("originals:        {originals}");
    println!(
        "modified:         {} (from {} updated articles)",
        pages.len() - originals,
        origins.len()
    );
    let mut sizes: Vec<u64> = rec.span("scan.stream", || {
        pages.iter().map(|p| p.size().as_u64()).collect()
    });
    sizes.sort_unstable();
    let pct = |q: f64| sizes[((sizes.len() - 1) as f64 * q) as usize];
    println!(
        "page size:        p10 {}  p50 {}  p90 {}  p99 {}  max {}",
        pct(0.10),
        pct(0.50),
        pct(0.90),
        pct(0.99),
        sizes[sizes.len() - 1]
    );

    // Request stream.
    let requests = w.requests();
    let mut per_page: HashMap<u32, u64> = HashMap::new();
    let mut pairs: HashSet<(u32, u16)> = HashSet::new();
    rec.span("scan.stream", || {
        for ev in requests {
            *per_page.entry(ev.page.index()).or_default() += 1;
            pairs.insert((ev.page.index(), ev.server.index()));
        }
    });
    let mut counts: Vec<u64> = per_page.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    println!("\n# request stream");
    println!("requests:         {}", requests.len());
    println!("distinct pages:   {}", per_page.len());
    println!("(page,server):    {} pairs", pairs.len());
    println!("top pages:        {:?}", &counts[..counts.len().min(5)]);
    let total: u64 = counts.iter().sum();
    let top10: u64 = counts.iter().take(counts.len().div_ceil(10)).sum();
    println!(
        "head share:       top-10% of requested pages serve {:.1}% of requests",
        100.0 * top10 as f64 / total as f64
    );
    // Popularity classes (per the generator's rank assignment model).
    let mut class_pages = [0usize; 4];
    for rank in 1..=pages.len() {
        class_pages[popularity_class_shifted(rank, alpha, shift)] += 1;
    }
    println!("class sizes:      {class_pages:?} (by rank, classes 0-3)");

    // Subscriptions at SQ = 1.
    let subs = rec
        .span("subscriptions", || w.subscriptions(1.0))
        .expect("SQ = 1 is valid");
    let total_subs: u64 = subs.iter().map(|(_, _, c)| c as u64).sum();
    println!("\n# subscriptions (SQ = 1)");
    println!("pairs:            {}", subs.iter().count());
    println!("total count:      {total_subs}");

    // The same trace folded through the observability registry: the log₂
    // histograms show the size and popularity shapes at a glance.
    reg.add("pages.total", pages.len() as u64);
    reg.add("pages.originals", originals as u64);
    reg.add("requests.total", requests.len() as u64);
    reg.add("requests.distinct_pages", per_page.len() as u64);
    reg.add("subscriptions.pairs", subs.iter().count() as u64);
    reg.add("subscriptions.count", total_subs);
    for p in pages {
        reg.observe("page_size", p.size().as_f64());
        reg.add_bytes("bytes.published", p.size());
    }
    for &count in per_page.values() {
        reg.observe("requests_per_page", count as f64);
    }
    println!("\n# registry (log2 buckets)");
    print!("{}", reg.render());

    // Aggregated phase timings: the two stream scans share one label, so
    // the rolled-up view shows the total with its repeat count.
    println!("\n# phase totals");
    rec.flush();
    for (label, total, count) in phases.drain().span_totals() {
        println!("{label:<18} {total:>10.3?}  (x{count})");
    }

    // Capacity settings.
    println!("\n# per-proxy cache capacities");
    for frac in [0.01, 0.05, 0.10] {
        let caps = w.cache_capacities(frac);
        let mut vals: Vec<u64> = caps.iter().map(|b| b.as_u64()).collect();
        vals.sort_unstable();
        println!(
            "{:>4.0}%: median {}  min {}  max {}",
            frac * 100.0,
            pscd_types::Bytes::new(vals[vals.len() / 2]),
            pscd_types::Bytes::new(vals[0]),
            pscd_types::Bytes::new(vals[vals.len() - 1]),
        );
    }
}
