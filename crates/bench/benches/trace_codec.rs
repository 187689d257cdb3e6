//! Trace codec throughput: binary vs text, write vs read, and the
//! compaction of a packed fleet.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::{binary, text, IndexedTrace};

fn bench_codecs(c: &mut Criterion) {
    let trace = runner::simulate_session(&apps::crossword_sage(), 0, 42);
    let mut bin = Vec::new();
    binary::write(&trace, &mut bin).unwrap();
    let mut txt = Vec::new();
    text::write(&trace, &mut txt).unwrap();

    let mut group = c.benchmark_group("codec");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bin.len() as u64));
    group.bench_function("binary_write", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(bin.len());
            binary::write(&trace, &mut buf).unwrap();
            buf
        });
    });
    group.bench_function("binary_read", |b| {
        b.iter(|| binary::read(&mut bin.as_slice()).unwrap());
    });
    group.throughput(Throughput::Bytes(txt.len() as u64));
    group.bench_function("text_write", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(txt.len());
            text::write(&trace, &mut buf).unwrap();
            buf
        });
    });
    group.bench_function("text_read", |b| {
        b.iter(|| text::read(&mut txt.as_slice()).unwrap());
    });
    // A fleet as `simulate --sessions 4 --compress` packs it, compacted
    // with compression: every member re-encodes to its stored payload.
    let compress = PackOptions { compress: true };
    let fleet: Vec<IndexedTrace> = runner::simulate_corpus(&apps::crossword_sage(), 4, 42)
        .iter()
        .map(|session| {
            let mut bytes = Vec::new();
            let rollup = lagalyzer_core::rollup::build(session);
            binary::write_with_rollup(session, &mut bytes, rollup).unwrap();
            IndexedTrace::open(bytes).unwrap()
        })
        .collect();
    let packed = corpus::pack(&fleet, compress).unwrap();
    group.throughput(Throughput::Bytes(packed.len() as u64));
    let packed = CorpusReader::open(packed).unwrap();
    group.bench_function("compact", |b| {
        b.iter(|| corpus::compact(&packed, 1, compress).unwrap());
    });
    group.finish();

    eprintln!(
        "trace sizes: binary {} bytes, text {} bytes ({:.1}x)",
        bin.len(),
        txt.len(),
        txt.len() as f64 / bin.len() as f64
    );
}

criterion_group!(benches, bench_codecs);
criterion_main!(benches);
