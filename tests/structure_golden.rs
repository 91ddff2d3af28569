//! Exact golden pin of graph construction and sharding. Every row hashes
//! (FNV-1a) the arrays one construction step produces:
//!
//! * `csr` rows: the offsets, columns and weights of every dataset's
//!   generated graph (the [`agg::graph::GraphBuilder`] output);
//! * `part` rows: one partition's cut count and relabeling;
//! * `shard` rows: one [`ShardPlan`] — owned range, local forward CSR,
//!   local reverse CSR, ghost table, boundary sources and cut counts.
//!
//! The table in `tests/golden/structure.txt` is the expected output; a
//! rewrite of the builder or the partitioner must reproduce it byte for
//! byte. Tiny-scale rows run in every `cargo test`; the small-scale rows
//! take a few seconds in a debug build and are `#[ignore]`d there (CI runs
//! them in release with `--include-ignored`). The paper-scale rows are
//! always `#[ignore]`d and run in release on their own.
//!
//! On a mismatch the test writes the rows it computed to
//! `target/structure_golden.<scale>.actual.txt` and fails.

use agg::graph::{partition, CsrGraph, Dataset, PartitionStrategy, Scale, ShardPlan};

const GOLDEN: &str = include_str!("golden/structure.txt");

const SEED: u64 = 7;
const MAX_WEIGHT: u32 = 64;

const STRATEGIES: [PartitionStrategy; 3] = [
    PartitionStrategy::Contiguous1D,
    PartitionStrategy::DegreeBalanced,
    PartitionStrategy::ClusteredContiguous,
];

/// 64-bit FNV-1a over the little-endian bytes of a `u32` array.
fn hash(words: &[u32]) -> String {
    let h = words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{h:016x}")
}

fn csr(g: &CsrGraph) -> String {
    format!(
        "n={} m={} off={} col={} w={}",
        g.node_count(),
        g.edge_count(),
        hash(g.row_offsets()),
        hash(g.col_indices()),
        g.weight_slice().map_or_else(|| "-".to_string(), hash),
    )
}

fn shard_row(label: &str, s: &ShardPlan) -> String {
    format!(
        "{label}/s{} range={}..{} cut_out={} cut_in={} ghosts={} bsrc={} local[{}] reverse[{}]",
        s.shard,
        s.start,
        s.end,
        s.cut_out_edges,
        s.cut_in_edges,
        hash(&s.ghosts),
        hash(&s.boundary_sources),
        csr(&s.local),
        csr(&s.reverse),
    )
}

fn partition_rows(label: &str, g: &CsrGraph, k: usize, strategy: PartitionStrategy) -> Vec<String> {
    let p = partition(g, k, strategy).expect("partition");
    let label = format!("{label}/{}/k{k}", strategy.name());
    let relabel = p.relabeling.as_ref().map_or_else(
        || "-".to_string(),
        |r| format!("{}:{}", hash(&r.perm), hash(&r.inv)),
    );
    let mut rows = vec![format!(
        "part {label} cut={} relabel={relabel}",
        p.cut_edges
    )];
    rows.extend(
        p.shards
            .iter()
            .map(|s| format!("shard {}", shard_row(&label, s))),
    );
    rows
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Compares `rows` with the golden rows whose label
/// (`<dataset>/<scale>/...`) names `scale`.
fn check(scale: Scale, rows: Vec<String>) {
    let expected: String = GOLDEN
        .lines()
        .filter(|l| {
            let label = l.split(' ').nth(1).unwrap_or_default();
            label.split('/').nth(1) == Some(scale_name(scale))
        })
        .map(|l| format!("{l}\n"))
        .collect();
    let actual: String = rows.iter().map(|r| format!("{r}\n")).collect();
    if actual != expected {
        let path = format!(
            "{}/target/structure_golden.{}.actual.txt",
            env!("CARGO_MANIFEST_DIR"),
            scale_name(scale)
        );
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/target")).unwrap();
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(expected.lines())
            .find(|(a, e)| a != e)
            .map(|(a, e)| format!("first differing row:\n  expected {e}\n  actual   {a}"))
            .unwrap_or_else(|| "row counts differ".to_string());
        panic!(
            "graph structure drifted from the golden table; actual rows written to {path}\n{first}"
        );
    }
}

#[test]
fn tiny_graphs_and_shard_plans_match_the_golden_table() {
    let mut rows = Vec::new();
    for d in Dataset::ALL {
        let label = format!("{}/tiny", d.name().to_lowercase());
        rows.push(format!(
            "csr {label} {}",
            csr(&d.generate(Scale::Tiny, SEED))
        ));
        let g = d.generate_weighted(Scale::Tiny, SEED, MAX_WEIGHT);
        for strategy in STRATEGIES {
            for k in [1, 2, 3, 8] {
                rows.extend(partition_rows(&label, &g, k, strategy));
            }
        }
    }
    check(Scale::Tiny, rows);
}

/// Rows for `datasets` at `scale`: each generated CSR, then the 2-shard
/// degree-balanced plan of its weighted twin.
fn scale_rows(scale: Scale, datasets: &[Dataset]) -> Vec<String> {
    let mut rows = Vec::new();
    for &d in datasets {
        let label = format!("{}/{}", d.name().to_lowercase(), scale_name(scale));
        rows.push(format!("csr {label} {}", csr(&d.generate(scale, SEED))));
        let g = d.generate_weighted(scale, SEED, MAX_WEIGHT);
        rows.extend(partition_rows(
            &label,
            &g,
            2,
            PartitionStrategy::DegreeBalanced,
        ));
    }
    rows
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "small-scale generation is slow in debug builds"
)]
fn small_graphs_and_shard_plans_match_the_golden_table() {
    check(Scale::Small, scale_rows(Scale::Small, &Dataset::ALL));
}

/// The two powerlaw datasets at paper size (CiteSeer has ~25.8M edges).
/// Always ignored: ~10-20 s and ~1 GB in a release build. Run it with
/// `cargo test --release --test structure_golden paper_scale -- --ignored`.
#[test]
#[ignore = "paper-scale generation needs a release build and ~1 GB"]
fn paper_scale_graphs_and_shard_plans_match_the_golden_table() {
    check(
        Scale::Paper,
        scale_rows(Scale::Paper, &[Dataset::CiteSeer, Dataset::Google]),
    );
}
