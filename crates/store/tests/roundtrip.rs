//! v2 round-trip, corruption-rejection, and reorder-invariance tests.

use std::io::Cursor;
use std::path::PathBuf;

use kpj_graph::{CategoryIndex, Graph, GraphBuilder, NodeRemap};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_sp::DenseDijkstra;
use kpj_store::{open_v2, reorder, write_store, StoreError, StreamWriter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kpj-store-test-{}-{tag}.kpj", std::process::id()))
}

fn random_graph(n: u32, edges: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n as usize);
    for _ in 0..edges {
        b.add_edge(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(1..100),
        )
        .unwrap();
    }
    b.build()
}

fn symmetric_graph(n: u32, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n as usize);
    for v in 1..n {
        let u = rng.gen_range(0..v);
        b.add_bidirectional(u, v, rng.gen_range(1..50)).unwrap();
    }
    b.build()
}

fn assert_same_adjacency(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for u in a.nodes() {
        assert_eq!(a.out_edges(u), b.out_edges(u), "out adjacency of {u}");
        assert_eq!(a.in_edges(u), b.in_edges(u), "in adjacency of {u}");
    }
}

fn write_to_file(
    path: &PathBuf,
    g: &Graph,
    cats: Option<&CategoryIndex>,
    lm: Option<&LandmarkIndex>,
    remap: Option<&NodeRemap>,
) {
    let f = std::fs::File::create(path).unwrap();
    write_store(f, g, cats, lm, remap, None).unwrap();
}

#[test]
fn asymmetric_roundtrip_is_zero_copy_and_identical() {
    let g = random_graph(200, 900, 7);
    let path = tmp_path("asym");
    write_to_file(&path, &g, None, None, None);

    let bundle = open_v2(&path).unwrap();
    assert!(bundle.is_mapped());
    assert!(
        bundle.graph.is_fully_mapped(),
        "CSR sections must be mmap views, not heap copies"
    );
    assert_same_adjacency(&g, &bundle.graph);
    bundle.verify_data().unwrap();
    assert!(bundle.categories.is_none());
    assert!(bundle.landmarks.is_none());
    assert!(bundle.remap.is_none());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn symmetric_graph_elides_reverse_sections() {
    let g = symmetric_graph(120, 3);
    let path = tmp_path("sym");
    write_to_file(&path, &g, None, None, None);

    // The reverse CSR must come from the file (aliased), never rebuilt.
    let bundle = open_v2(&path).unwrap();
    assert!(bundle.graph.is_fully_mapped());
    assert_same_adjacency(&g, &bundle.graph);

    // And the file must actually be smaller than the asymmetric encoding.
    let sym_len = std::fs::metadata(&path).unwrap().len();
    let ga = random_graph(120, g.edge_count(), 3);
    let path_a = tmp_path("sym-ref");
    write_to_file(&path_a, &ga, None, None, None);
    let asym_len = std::fs::metadata(&path_a).unwrap().len();
    assert!(
        sym_len < asym_len,
        "symmetric file ({sym_len}) not smaller than asymmetric ({asym_len})"
    );
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&path_a).unwrap();
}

#[test]
fn sidecar_sections_roundtrip() {
    let g = symmetric_graph(80, 11);
    let mut cats = CategoryIndex::new();
    cats.add_category("hotel", vec![3, 9, 27]);
    cats.add_category("fuel", vec![1, 2, 70]);
    cats.add_category("empty", vec![]);
    let lm = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 5);
    let reordered = reorder(&g);

    let path = tmp_path("sidecar");
    write_to_file(&path, &g, Some(&cats), Some(&lm), Some(&reordered.remap));
    let bundle = open_v2(&path).unwrap();
    bundle.verify_data().unwrap();

    let rcats = bundle.categories.unwrap();
    assert_eq!(rcats.category_count(), 3);
    assert_eq!(rcats.name(0), "hotel");
    assert_eq!(rcats.members(0), &[3, 9, 27]);
    assert_eq!(rcats.members(2), &[] as &[u32]);

    let rlm = bundle.landmarks.unwrap();
    assert!(rlm.is_mapped(), "landmark tables must be mapped zero-copy");
    assert_eq!(rlm, lm);

    let rremap = bundle.remap.unwrap();
    assert_eq!(rremap, reordered.remap);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn empty_and_tiny_graphs_roundtrip() {
    for (n, tag) in [(0u32, "n0"), (1, "n1")] {
        let g = GraphBuilder::new(n as usize).build();
        let path = tmp_path(tag);
        write_to_file(&path, &g, None, None, None);
        let bundle = open_v2(&path).unwrap();
        assert_eq!(bundle.graph.node_count(), n as usize);
        assert_eq!(bundle.graph.edge_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}

fn v2_bytes(g: &Graph) -> Vec<u8> {
    let mut buf = Cursor::new(Vec::new());
    write_store(&mut buf, g, None, None, None, None).unwrap();
    buf.into_inner()
}

fn open_bytes(bytes: &[u8], tag: &str) -> Result<kpj_store::StoreBundle, StoreError> {
    let path = tmp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let r = open_v2(&path);
    std::fs::remove_file(&path).unwrap();
    r
}

#[test]
fn corrupt_files_are_rejected_precisely() {
    let g = random_graph(50, 220, 9);
    let bytes = v2_bytes(&g);

    // Truncation at several depths (the final cut removes more than the
    // ≤63 bytes of tail padding, so it always bites into a payload).
    for cut in [4usize, 40, 70, bytes.len() / 2, bytes.len() - 64] {
        let r = open_bytes(&bytes[..cut], &format!("trunc{cut}"));
        assert!(
            matches!(r, Err(StoreError::Truncated { .. })),
            "cut at {cut}: {r:?}"
        );
    }

    // Bad magic.
    let mut b = bytes.clone();
    b[0] ^= 0xFF;
    assert!(matches!(open_bytes(&b, "magic"), Err(StoreError::BadMagic)));

    // Unsupported version: an unknown one, and version 1 (same magic),
    // which this crate does not read.
    for v in [99u8, 1] {
        let mut b = bytes.clone();
        b[8] = v;
        let r = open_bytes(&b, &format!("ver{v}"));
        assert!(
            matches!(r, Err(StoreError::UnsupportedVersion(got)) if got == u32::from(v)),
            "version {v}: {r:?}"
        );
    }

    // Corrupt header (n) → meta checksum catches it.
    let mut b = bytes.clone();
    b[16] ^= 0x01;
    assert!(matches!(
        open_bytes(&b, "meta"),
        Err(StoreError::ChecksumMismatch { which: "meta", .. })
    ));

    // Corrupt section payload → open succeeds (lazy), verify_data catches it.
    let mut b = bytes.clone();
    let last = b.len() - 1;
    b[last] ^= 0x40; // inside the final section payload or its padding
                     // Flip a byte that is definitely payload: the first out_offsets entry
                     // lives at the first 64-aligned offset past the table.
    let first_section = {
        let count = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        (64 + count * 24).div_ceil(64) * 64
    };
    let mut b = bytes.clone();
    b[first_section + 2] ^= 0x10;
    match open_bytes(&b, "data") {
        Ok(bundle) => {
            let err = bundle.verify_data().unwrap_err();
            assert!(matches!(
                err,
                StoreError::ChecksumMismatch { which: "data", .. }
            ));
        }
        // Some flips break a structural invariant instead — also a rejection.
        Err(e) => assert!(matches!(e, StoreError::Graph(_)), "unexpected: {e}"),
    }

    // Misaligned section offset (patch table entry + recompute meta checksum).
    let mut b = bytes.clone();
    let entry0_offset = 64 + 8; // first table entry's offset field
    let old = u64::from_le_bytes(b[entry0_offset..entry0_offset + 8].try_into().unwrap());
    b[entry0_offset..entry0_offset + 8].copy_from_slice(&(old + 4).to_le_bytes());
    rewrite_meta_checksum(&mut b);
    assert!(matches!(
        open_bytes(&b, "misalign"),
        Err(StoreError::Misaligned { .. })
    ));

    // Section past EOF.
    let mut b = bytes.clone();
    b[entry0_offset..entry0_offset + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    rewrite_meta_checksum(&mut b);
    assert!(matches!(
        open_bytes(&b, "eof"),
        Err(StoreError::Truncated { .. })
    ));

    // Duplicate section id.
    let mut b = bytes.clone();
    let entry1_id = 64 + 24;
    let id0 = b[64];
    b[entry1_id] = id0;
    rewrite_meta_checksum(&mut b);
    assert!(matches!(
        open_bytes(&b, "dup"),
        Err(StoreError::DuplicateSection(_))
    ));

    // Missing required section (retag out_edges as an unknown id).
    let mut b = bytes;
    b[entry1_id] = 200;
    rewrite_meta_checksum(&mut b);
    assert!(matches!(
        open_bytes(&b, "missing"),
        Err(StoreError::MissingSection(_))
    ));
}

#[test]
fn truncation_mid_section_table_is_a_precise_error() {
    // An asymmetric graph writes 4 sections, so the section table spans
    // [64, 160). Cutting inside it (not merely inside a payload) must
    // produce `Truncated` with the exact need/have byte counts — not a
    // panic, not a checksum error, and no partially-built bundle.
    let g = random_graph(30, 120, 11);
    let bytes = v2_bytes(&g);
    let count = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as u64;
    assert_eq!(count, 4, "asymmetric store should declare 4 sections");
    let table_end = 64 + count * 24;

    // Mid-entry (half-way through entry 1) and on an entry boundary but
    // before the declared end.
    for cut in [64 + 24 + 12, 64 + 3 * 24] {
        match open_bytes(&bytes[..cut as usize], &format!("midtable{cut}")) {
            Err(StoreError::Truncated { need, have }) => {
                assert_eq!(need, table_end, "cut {cut}: need must be the table end");
                assert_eq!(have, cut, "cut {cut}: have must be the file length");
            }
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }

    // One byte short of the complete table: still the same precise error.
    match open_bytes(&bytes[..table_end as usize - 1], "midtable-last") {
        Err(StoreError::Truncated { need, have }) => {
            assert_eq!(need, table_end);
            assert_eq!(have, table_end - 1);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

/// Recompute and patch the meta checksum after editing header/table bytes
/// (mirrors the writer, so tests can forge structurally-bad-but-signed files).
fn rewrite_meta_checksum(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
    let mut fnv = kpj_store::Fnv64::new();
    fnv.update(&bytes[0..40]);
    fnv.update(&bytes[64..64 + count * 24]);
    let h = fnv.finish();
    bytes[40..48].copy_from_slice(&h.to_le_bytes());
}

#[test]
fn stream_writer_matches_write_store() {
    // A symmetric graph emitted through both paths must produce files the
    // reader sees identically (byte-for-byte apart from nothing, in fact).
    let g = symmetric_graph(90, 21);
    let whole = v2_bytes(&g);

    let mut buf = Cursor::new(Vec::new());
    let n = g.node_count() as u64;
    let m = g.edge_count() as u64;
    let mut sw = StreamWriter::new(&mut buf, n, m).unwrap();
    for u in g.nodes() {
        sw.push_degree(g.out_degree(u) as u32).unwrap();
    }
    sw.finish_degrees().unwrap();
    for u in g.nodes() {
        for e in g.out_edges(u) {
            sw.push_edge(e.to, e.weight).unwrap();
        }
    }
    sw.finish().unwrap();
    assert_eq!(
        buf.into_inner(),
        whole,
        "streamed bytes differ from whole-graph writer"
    );
}

#[test]
fn reorder_preserves_structure_and_distances() {
    let g = symmetric_graph(150, 33);
    let r = reorder(&g);
    assert_eq!(r.graph.node_count(), g.node_count());
    assert_eq!(r.graph.edge_count(), g.edge_count());
    assert!(!r.remap.is_identity() || g.node_count() <= 1);

    // Degrees are permuted, distances are preserved under the mapping.
    for old in g.nodes() {
        let new = r.remap.to_internal(old).unwrap();
        assert_eq!(g.out_degree(old), r.graph.out_degree(new));
        assert_eq!(g.in_degree(old), r.graph.in_degree(new));
    }
    let d_old = DenseDijkstra::from_source(&g, 0);
    let d_new = DenseDijkstra::from_source(&r.graph, r.remap.to_internal(0).unwrap());
    for old in g.nodes() {
        assert_eq!(
            d_old.dist(old),
            d_new.dist(r.remap.to_internal(old).unwrap()),
            "distance to {old} changed under reorder"
        );
    }

    // Deterministic: same graph, same permutation.
    let r2 = reorder(&g);
    assert_eq!(r.remap, r2.remap);
}

#[test]
fn reorder_improves_bfs_locality() {
    // On a shuffled-id graph, BFS reorder must make adjacent ids closer.
    let g = symmetric_graph(400, 5);
    let r = reorder(&g);
    let spread = |g: &Graph| -> u64 {
        let mut total = 0u64;
        for u in g.nodes() {
            for e in g.out_edges(u) {
                total += (e.to as i64 - u as i64).unsigned_abs();
            }
        }
        total
    };
    let before = spread(&g);
    let after = spread(&r.graph);
    assert!(
        after <= before,
        "id spread grew under BFS reorder: {before} -> {after}"
    );
}

#[test]
fn remapped_landmarks_give_identical_bounds() {
    let g = symmetric_graph(100, 8);
    let lm = LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 2);
    let r = reorder(&g);
    let lm2 = kpj_store::remap_landmarks(&lm, &r.remap);
    for old_u in g.nodes() {
        for old_v in g.nodes() {
            let new_u = r.remap.to_internal(old_u).unwrap();
            let new_v = r.remap.to_internal(old_v).unwrap();
            assert_eq!(
                lm.lower_bound(old_u, old_v),
                lm2.lower_bound(new_u, new_v),
                "bound changed for ({old_u},{old_v})"
            );
        }
    }
}

#[test]
fn reduction_sections_roundtrip_zero_copy() {
    // A corridor-heavy graph: reduce, write with the reduction sections,
    // reopen, and the loaded (mapped) reduction must behave identically.
    let mut b = GraphBuilder::new(12);
    for i in 0..11u32 {
        b.add_bidirectional(i, i + 1, i + 1).unwrap();
    }
    let g = b.build();
    let red = kpj_graph::reduce(&g, &[0], &[11]);
    let lm = LandmarkIndex::build(&red.graph, 2, SelectionStrategy::Farthest, 1);

    let path = tmp_path("reduce");
    kpj_store::write_store_to_path(
        &path,
        &red.graph,
        None,
        Some(&lm),
        None,
        Some(&red.reduction),
    )
    .unwrap();
    let bundle = open_v2(&path).unwrap();
    bundle.verify_data().unwrap();
    let loaded = bundle.reduction.expect("reduction sections present");
    assert!(loaded.is_fully_mapped(), "reduction must load zero-copy");
    assert_eq!(loaded, red.reduction);
    assert_same_adjacency(&red.graph, &bundle.graph);
    let mut want = Vec::new();
    let mut got = Vec::new();
    red.reduction.expand_path(&red.graph, &[0, 1], &mut want);
    loaded.expand_path(&bundle.graph, &[0, 1], &mut got);
    assert_eq!(want, got);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn reduction_folded_through_reorder_keeps_expansions() {
    // reduce → reorder the reduced graph → fold via remap_reduction →
    // write → reopen: queries on the file see reordered reduced ids but
    // expansion still yields original ids.
    let g = symmetric_graph(60, 13);
    let sources = [0u32, 7];
    let targets = [3u32, 55];
    let keep: Vec<u32> = sources.iter().chain(&targets).copied().collect();
    let red = kpj_graph::reduce(&g, &sources, &targets);
    let r = reorder(&red.graph);
    let folded = kpj_store::remap_reduction(&red.reduction, &red.graph, &r);

    let path = tmp_path("reduce-reorder");
    kpj_store::write_store_to_path(&path, &r.graph, None, None, None, Some(&folded)).unwrap();
    let bundle = open_v2(&path).unwrap();
    assert!(bundle.remap.is_none(), "reduced files carry no remap");
    let loaded = bundle.reduction.unwrap();
    for &kn in &keep {
        let before = red.reduction.to_reduced(kn).unwrap();
        let after = loaded.to_reduced(kn).unwrap();
        assert_eq!(after, r.remap.to_internal(before).unwrap());
        assert_eq!(loaded.to_original(after), kn);
    }
    // Every reordered hop must expand to the same original interiors.
    let mut want = Vec::new();
    let mut got = Vec::new();
    for u in red.graph.nodes() {
        for e in red.graph.out_edges(u) {
            red.reduction.expand_path(&red.graph, &[u, e.to], &mut want);
            let (nu, nv) = (
                r.remap.to_internal(u).unwrap(),
                r.remap.to_internal(e.to).unwrap(),
            );
            loaded.expand_path(&bundle.graph, &[nu, nv], &mut got);
            assert_eq!(want, got, "hop {u} -> {}", e.to);
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn remapped_categories_translate_members() {
    let g = symmetric_graph(40, 4);
    let mut cats = CategoryIndex::new();
    cats.add_category("poi", vec![1, 5, 17]);
    let r = reorder(&g);
    let cats2 = kpj_store::remap_categories(&cats, &r.remap);
    let mut want: Vec<u32> = [1u32, 5, 17]
        .iter()
        .map(|&v| r.remap.to_internal(v).unwrap())
        .collect();
    want.sort_unstable();
    assert_eq!(cats2.members(0), want.as_slice());
}
