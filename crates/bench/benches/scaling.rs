//! Scaling bench: the arena trie, measured at workload scale 1 and
//! scale 10 so the BENCH trajectory records how it degrades as worlds
//! grow toward internet size.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use droplens_net::{Ipv4Prefix, PrefixTrie};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic prefix population: length-diverse (/8–/24) random
/// networks, the shape the allocation and routing tries hold.
fn prefix_set(n: usize, seed: u64) -> Vec<Ipv4Prefix> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Ipv4Prefix::from_u32(rng.gen::<u32>(), rng.gen_range(8..=24)))
        .collect()
}

fn bench_trie(c: &mut Criterion) {
    let mut g = c.benchmark_group("trie_scaling");
    g.measurement_time(Duration::from_secs(5));
    for scale in [1usize, 10] {
        let pfx = prefix_set(20_000 * scale, 42);
        let probes = prefix_set(20_000, 43);
        g.throughput(Throughput::Elements(pfx.len() as u64));
        g.bench_function(&format!("insert/{scale}"), |b| {
            b.iter_batched(
                || pfx.clone(),
                |ps| {
                    let mut t = PrefixTrie::new();
                    for (i, p) in ps.into_iter().enumerate() {
                        t.insert(p, i as u32);
                    }
                    t
                },
                BatchSize::LargeInput,
            )
        });
        let mut trie = PrefixTrie::new();
        for (i, p) in pfx.iter().enumerate() {
            trie.insert(*p, i as u32);
        }
        g.throughput(Throughput::Elements(probes.len() as u64));
        g.bench_function(&format!("longest_match/{scale}"), |b| {
            b.iter(|| probes.iter().filter_map(|p| trie.longest_match(p)).count())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_trie);
criterion_main!(benches);
