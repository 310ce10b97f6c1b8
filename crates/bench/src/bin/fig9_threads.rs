//! Figure 9: running time vs the number of threads.
//!
//! On the paper's 24-core machine this shows near-linear scaling for
//! Approx-DPC / S-Approx-DPC, limited scaling for Ex-DPC (sequential dependent
//! phase; this implementation's Ex-DPC δ phase is parallel nearest-denser
//! queries instead) and for LSH-DDP (no load balancing). On a single-core host the
//! wall-clock curve is flat, so this binary additionally reports the
//! load-balance quality (max/mean estimated cost per thread) of the LPT
//! partitioning versus plain round-robin — the quantity the paper's scaling
//! argument rests on.

use dpc_bench::cli::print_row;
use dpc_bench::{
    default_params, default_thresholds, run_algorithm, Algo, BenchDataset, HarnessArgs,
};
use dpc_index::Grid;
use dpc_parallel::partition::{lpt_partition, round_robin_partition};
use dpc_parallel::Executor;

fn main() {
    let args = HarnessArgs::from_env();
    let thread_counts = [1usize, 2, 4, 8, 16];
    let algorithms =
        if args.full { Algo::all(args.epsilon) } else { Algo::fast_only(args.epsilon) };
    println!(
        "Figure 9: running time [s] vs number of threads (n = {}, host parallelism = {})",
        args.n,
        std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1)
    );
    for dataset in BenchDataset::real_datasets() {
        let data = dataset.generate(args.n);
        let thresholds = default_thresholds(dataset.default_dcut());
        println!("\n{}", dataset.name());
        let mut header = vec!["threads".to_string()];
        header.extend(algorithms.iter().map(|a| a.name()));
        let widths = vec![8; header.len() + 1];
        print_row(&header, &widths);
        for &threads in &thread_counts {
            let params = default_params(&dataset, threads);
            let mut cells = vec![threads.to_string()];
            for algo in &algorithms {
                let (_, secs) = run_algorithm(algo, &data, params, &thresholds);
                cells.push(format!("{secs:.2}"));
            }
            print_row(&cells, &widths);
        }

        // Load-balance ablation: LPT (Approx-DPC) vs hash partitioning
        // (LSH-DDP style) over the per-cell range-search cost estimates.
        let params = default_params(&dataset, 1);
        let grid = Grid::build_parallel(
            &data,
            params.dcut / (data.dim() as f64).sqrt(),
            &Executor::new(args.threads),
        );
        let costs: Vec<f64> = grid.cell_ids().map(|c| grid.points(c).len() as f64).collect();
        println!("  load imbalance (max/mean cost per thread) over {} cells:", costs.len());
        print_row(&["threads".into(), "LPT".into(), "round-robin".into()], &[8, 8, 12]);
        for &threads in &thread_counts[1..] {
            print_row(
                &[
                    threads.to_string(),
                    format!("{:.3}", lpt_partition(&costs, threads).imbalance()),
                    format!("{:.3}", round_robin_partition(&costs, threads).imbalance()),
                ],
                &[8, 8, 12],
            );
        }
    }
    println!(
        "\nExpected shape (paper): Approx-DPC and S-Approx-DPC exploit added threads; Ex-DPC \
         plateaus once the sequential dependent phase dominates; LSH-DDP scales irregularly."
    );
}
